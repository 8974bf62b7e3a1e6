"""Self-checks for the reference implementations."""

import numpy as np
import pytest

import glmpca as g
from oracle import OracleError
import oracle

from conftest import gradient, means, random_state


class TestFiniteDiffGradient:
    def test_exact_for_quadratic_objective(self):
        # gaussian identity: Q is quadratic, central differences are exact
        # up to roundoff
        state = random_state(g.gaussian(), seed=1)
        k = state.index.u_cols[-1]
        fd = oracle.finite_diff_gradient(state, "U", k)
        np.testing.assert_allclose(fd, gradient(state, "U")[:, -1], rtol=0,
                                   atol=1e-8)

    def test_penalty_only_gradient(self):
        state = random_state(g.gaussian(), seed=2, penalty=0.5)
        state.Y = means(state)  # data term vanishes
        k = state.index.latent_cols[0]
        fd = oracle.finite_diff_gradient(state, "U", k)
        np.testing.assert_allclose(fd, -0.5 * state.U[:, k], rtol=0,
                                   atol=1e-7)

    def test_state_restored_after_probing(self):
        state = random_state(g.poisson(), seed=3)
        u0 = state.U.copy()
        oracle.finite_diff_gradient(state, "U", state.index.u_cols[0])
        np.testing.assert_array_equal(state.U, u0)

    def test_eps_bounds_enforced(self):
        state = random_state(g.poisson(), seed=4)
        with pytest.raises(OracleError):
            oracle.finite_diff_gradient(state, "U", state.index.u_cols[0],
                                        eps=1e-3)
        with pytest.raises(OracleError):
            oracle.finite_diff_gradient(state, "W", state.index.u_cols[0])


class TestIrlsGlm:
    def test_gaussian_equals_ols(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.normal(size=40)
        beta = oracle.irls_glm(y, X, g.gaussian())
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(beta, ols, rtol=0, atol=1e-12)

    def test_poisson_intercept_closed_form(self):
        rng = np.random.default_rng(6)
        y = rng.poisson(3.0, 50).astype(float)
        beta = oracle.irls_glm(y, np.ones((50, 1)), g.poisson())
        assert beta[0] == pytest.approx(np.log(y.mean()), abs=1e-9)

    def test_bernoulli_symmetric_design_zero_intercept(self):
        # perfectly balanced outcomes at mirrored covariate values
        x = np.array([-1.0, -1.0, 1.0, 1.0] * 5)
        y = np.array([0.0, 1.0, 1.0, 0.0] * 5)
        X = np.column_stack([np.ones_like(x), x])
        beta = oracle.irls_glm(y, X, g.bernoulli())
        np.testing.assert_allclose(beta, 0.0, atol=1e-9)

    def test_rank_deficient_design_raises(self):
        X = np.ones((20, 2))
        with pytest.raises(OracleError):
            oracle.irls_glm(np.zeros(20), X, g.gaussian())


class TestPcaReference:
    def test_rank_one_exact(self):
        u = np.linspace(-1, 1, 12)
        v = np.arange(1.0, 6.0)
        Y = np.outer(v, u)
        scores, loadings = oracle.pca_reference(Y, 1)
        centered = Y - Y.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(loadings @ scores.T, centered, rtol=0,
                                   atol=1e-12)

    def test_full_rank_reconstructs_centered_matrix(self):
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(5, 9))
        scores, loadings = oracle.pca_reference(Y, 5)
        centered = Y - Y.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(loadings @ scores.T, centered, rtol=0,
                                   atol=1e-12)

    def test_truncation_error_is_discarded_singular_mass(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(6, 12))
        centered = Y - Y.mean(axis=1, keepdims=True)
        sing = np.linalg.svd(centered, compute_uv=False)
        scores, loadings = oracle.pca_reference(Y, 2)
        err2 = np.linalg.norm(centered - loadings @ scores.T) ** 2
        assert err2 == pytest.approx(np.sum(sing[2:] ** 2), rel=1e-10)

    def test_loadings_orthonormal_and_ordered(self):
        rng = np.random.default_rng(9)
        scores, loadings = oracle.pca_reference(rng.normal(size=(7, 15)), 3)
        np.testing.assert_allclose(loadings.T @ loadings, np.eye(3),
                                   rtol=0, atol=1e-12)
        norms = np.linalg.norm(scores, axis=0)
        assert np.all(np.diff(norms) <= 0)

    def test_too_many_components_rejected(self):
        with pytest.raises(OracleError):
            oracle.pca_reference(np.zeros((3, 5)), 4)


class TestReport:
    def test_report_fields(self):
        rep = oracle.report([1.0, 2.0], [1.0, 2.5])
        assert rep.max_abs_err == pytest.approx(0.5)
        assert rep.max_rel_err == pytest.approx(0.5 / 3.5)
        assert rep.max_abs_err >= 0 and rep.max_rel_err >= 0
        assert rep.location == (1,)
