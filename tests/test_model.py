"""Tests for model construction, the objective, and its derivatives."""

import numpy as np
import pytest

import glmpca as g
from glmpca import ConfigError, DataError
from glmpca.families import MEAN_CEIL, PROB_CEIL, PROB_FLOOR
from glmpca.model import IndexSets, ModelState, predictor_stats, resolve_offset
import oracle

from conftest import ALL_FAMILIES, random_state


class TestIndexSets:
    def test_blocks_tile_the_columns(self):
        idx = IndexSets(2, 3, 4)
        cols = list(idx.obs_cols) + list(idx.feat_cols) + list(idx.latent_cols)
        assert cols == list(range(idx.n_total))
        assert set(idx.u_cols) == set(idx.feat_cols) | set(idx.latent_cols)
        assert set(idx.v_cols) == set(idx.obs_cols) | set(idx.latent_cols)
        assert not set(idx.obs_cols) & set(idx.feat_cols)

    def test_latent_required(self):
        with pytest.raises(ConfigError):
            IndexSets(1, 1, 0)


class TestDataValidation:
    def test_negative_count_names_cell(self):
        Y = np.array([[1.0, 2.0], [3.0, -2.0], [0.0, 1.0]])
        with pytest.raises(DataError,
                           match=r"invalid entry -2\.0 at row 2, column 2"):
            g.check_data_matrix(Y, g.poisson())

    def test_non_integer_count_rejected(self):
        with pytest.raises(DataError, match="nonnegative integer"):
            g.check_data_matrix(np.array([[1.0, 2.5]]), g.poisson())

    def test_bernoulli_support(self):
        with pytest.raises(DataError, match="0 or 1"):
            g.check_data_matrix(np.array([[0.0, 2.0]]), g.bernoulli())

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="row 1, column 1"):
            g.check_data_matrix(np.array([[np.nan, 1.0]]), g.gaussian())

    def test_shape_minimums(self):
        with pytest.raises(DataError):
            g.check_data_matrix(np.ones((2, 1)), g.gaussian())
        with pytest.raises(DataError):
            g.check_data_matrix(np.ones(4), g.gaussian())


class TestBuildModel:
    def test_default_shapes_and_intercept(self):
        Y = np.zeros((5, 10))
        state = g.build_model(Y, n_latent=2, family=g.poisson(), seed=0)
        assert state.U.shape == (10, 3)
        assert state.V.shape == (5, 3)
        np.testing.assert_array_equal(state.U[:, 0], np.ones(10))
        np.testing.assert_array_equal(state.A, np.zeros((5, 1)))

    def test_offset_policy_none_gives_zeros(self):
        state = g.build_model(np.zeros((5, 10)), n_latent=1,
                              family=g.poisson(), offset="none", seed=0)
        np.testing.assert_array_equal(state.delta, np.zeros(10))

    def test_seeded_init_is_deterministic(self):
        Y = np.zeros((5, 10))
        a = g.build_model(Y, n_latent=2, family=g.poisson(), seed=11)
        b = g.build_model(Y, n_latent=2, family=g.poisson(), seed=11)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)
        c = g.build_model(Y, n_latent=2, family=g.poisson(), seed=12)
        assert not np.array_equal(a.U_latent, c.U_latent)

    def test_latent_init_scale(self):
        state = g.build_model(np.zeros((40, 80)), n_latent=4,
                              family=g.poisson(), seed=3)
        sd = state.U_latent.std()
        assert 0.02 < sd < 0.1  # target 0.1/sqrt(4) = 0.05

    def test_rank_deficient_designs_rejected(self):
        Y = np.zeros((6, 10))
        dup = np.ones((10, 1))  # duplicates the intercept column
        with pytest.raises(ConfigError, match="rank deficient"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          obs_covariates=dup, seed=0)
        zcol = np.zeros((6, 1))
        with pytest.raises(ConfigError, match="rank deficient"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          feat_covariates=zcol, seed=0)

    def test_too_many_dimensions_rejected(self):
        Y = np.zeros((4, 10))
        with pytest.raises(ConfigError, match="min"):
            g.build_model(Y, n_latent=3, family=g.poisson(), seed=0)

    def test_penalty_defaults_and_layout(self):
        Z = np.arange(5.0)[:, None]
        state = g.build_model(np.zeros((5, 10)), n_latent=2,
                              family=g.poisson(), feat_covariates=Z, seed=0)
        idx = state.index
        assert np.all(state.lambda_u[list(idx.obs_cols)] == 0)
        assert np.all(state.lambda_u[list(idx.feat_cols)] == 0)
        assert np.all(state.lambda_v[list(idx.obs_cols)] == 0)
        np.testing.assert_allclose(state.lambda_u[idx.latent_slice], 1e-4)
        np.testing.assert_allclose(state.lambda_v[idx.latent_slice], 1e-4)

    def test_penalty_vector_and_validation(self):
        Y = np.zeros((5, 10))
        state = g.build_model(Y, n_latent=2, family=g.poisson(),
                              penalty_u=[0.5, 0.25], seed=0)
        np.testing.assert_array_equal(
            state.lambda_u[state.index.latent_slice], [0.5, 0.25])
        with pytest.raises(ConfigError):
            g.build_model(Y, n_latent=2, family=g.poisson(),
                          penalty_u=-1.0, seed=0)
        with pytest.raises(ConfigError):
            g.build_model(Y, n_latent=2, family=g.poisson(),
                          penalty_u=[1.0, 2.0, 3.0], seed=0)

    def test_auto_offset_log_link(self):
        rng = np.random.default_rng(0)
        Y = rng.poisson(3.0, (6, 12)).astype(float) + 1.0
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              offset="auto", seed=0)
        colsums = Y.sum(axis=0)
        np.testing.assert_allclose(state.delta,
                                   np.log(colsums / colsums.mean()))

    def test_auto_offset_identity_link(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(6, 12))
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              offset="auto", seed=0)
        np.testing.assert_allclose(state.delta, Y.mean(axis=0))

    def test_auto_offset_rejected_for_logit(self):
        Y = np.zeros((6, 12))
        with pytest.raises(ConfigError, match="auto offset"):
            g.build_model(Y, n_latent=1, family=g.bernoulli(),
                          offset="auto", seed=0)

    def test_auto_offset_zero_column_rejected(self):
        Y = np.ones((4, 8))
        Y[:, 3] = 0.0
        with pytest.raises(ConfigError, match="column 4"):
            resolve_offset("auto", Y, g.poisson())

    def test_explicit_offset_validated(self):
        Y = np.zeros((4, 8))
        with pytest.raises(ConfigError, match="length"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          offset=np.zeros(5), seed=0)


class TestLinearPredictor:
    def test_all_zero(self):
        state = g.build_model(np.zeros((3, 6)), n_latent=1,
                              family=g.gaussian(), intercept=False, seed=0)
        state.U[...] = 0.0
        state.V[...] = 0.0
        np.testing.assert_array_equal(g.linear_predictor(state),
                                      np.zeros((3, 6)))

    def test_rank_one_rows(self):
        state = g.build_model(np.zeros((3, 6)), n_latent=1,
                              family=g.gaussian(), intercept=False, seed=0)
        u = np.arange(6.0)
        state.U[:, 0] = u
        state.V[:, 0] = 1.0
        R = g.linear_predictor(state)
        for j in range(3):
            np.testing.assert_array_equal(R[j], u)

    def test_matches_brute_force_triple_loop(self):
        state = random_state(g.gaussian(), seed=21, n_feat=3, n_obs=4,
                             n_latent=1, with_feat_cov=False)
        R = g.linear_predictor(state)
        for j in range(3):
            for i in range(4):
                expect = state.delta[i] + sum(
                    state.V[j, k] * state.U[i, k]
                    for k in range(state.index.n_total))
                assert abs(R[j, i] - expect) <= 1e-12

    def test_blockwise_decomposition(self):
        state = random_state(g.poisson(), seed=4)
        blockwise = (state.A @ state.X.T + state.Z @ state.Gamma.T
                     + state.V_latent @ state.U_latent.T
                     + state.delta[None, :])
        np.testing.assert_allclose(g.linear_predictor(state), blockwise,
                                   rtol=0, atol=1e-12)


class TestObjective:
    def test_poisson_closed_form_at_zero(self):
        Y = np.array([[3.0, 0.0], [1.0, 2.0]])
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              intercept=False, penalty_u=0.0, penalty_v=0.0,
                              seed=0)
        state.U[...] = 0.0
        state.V[...] = 0.0
        assert g.objective(state) == pytest.approx(-4.0)

    def test_penalty_arithmetic(self):
        Y = np.array([[3.0, 0.0], [1.0, 2.0]])
        base = g.build_model(Y, n_latent=1, family=g.poisson(),
                             intercept=False, penalty_u=0.0, penalty_v=0.0,
                             seed=0)
        base.U[...] = 0.0
        base.V[...] = 0.0
        withpen = g.build_model(Y, n_latent=1, family=g.poisson(),
                                intercept=False, penalty_u=2.0,
                                penalty_v=0.0, seed=0)
        withpen.U[:, 0] = 1.0
        withpen.V[...] = 0.0
        # theta is unchanged (V = 0), only the ridge term differs
        assert g.objective(withpen) - g.objective(base) == pytest.approx(-2.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_matches_scalar_loop(self, family):
        state = random_state(family, seed=31, n_feat=5, n_obs=6)
        assert g.objective(state) == pytest.approx(
            oracle.scalar_objective(state), abs=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_no_data_or_mean_rescan(self, family, monkeypatch):
        # Y is checked by build_model and the means are clamped, so the
        # objective must not run either check again
        state = random_state(family, seed=33, n_feat=5, n_obs=6)
        expected = g.objective(state)

        def boom(*args):
            raise AssertionError("validation ran inside the objective")

        monkeypatch.setattr(g.Family, "check_support", boom)
        monkeypatch.setattr(g.Family, "_check_mean_domain", boom)
        assert g.objective(state) == expected

    def test_nonfinite_predictor_still_raises(self):
        state = random_state(g.poisson(), seed=35, n_feat=5, n_obs=6)
        state.U[0, state.index.latent_cols[0]] = -np.inf
        with pytest.raises(g.DomainError):
            g.objective(state)


class TestGradients:
    def test_canonical_single_cell(self):
        # one cell, y = 2 and mu = 1 under the log link, loading 1:
        # the gradient reduces to (y - mu) * v = 1
        idx = IndexSets(0, 0, 1)
        state = ModelState(
            Y=np.array([[2.0]]), family=g.poisson(),
            U=np.array([[0.0]]), V=np.array([[1.0]]),
            delta=np.zeros(1), lambda_u=np.zeros(1), lambda_v=np.zeros(1),
            index=idx)
        np.testing.assert_allclose(g.gradient(state, "U", 0), [1.0])

    def test_zero_at_saturated_fit(self):
        state = random_state(g.gaussian(), seed=8, penalty=0.0)
        state.Y = predictor_stats(state).M.copy()
        for k in state.index.u_cols:
            np.testing.assert_allclose(g.gradient(state, "U", k), 0.0,
                                       atol=1e-12)
        for k in state.index.v_cols:
            np.testing.assert_allclose(g.gradient(state, "V", k), 0.0,
                                       atol=1e-12)

    def test_poisson_matches_finite_difference(self):
        state = random_state(g.poisson(), seed=13, n_feat=4, n_obs=3,
                             n_latent=1, with_feat_cov=False)
        for k in state.index.u_cols:
            fd = oracle.finite_diff_gradient(state, "U", k)
            np.testing.assert_allclose(g.gradient(state, "U", k), fd,
                                       rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_gradient_check_all_families(self, family):
        for seed in range(20):
            state = random_state(family, seed=500 + seed, n_feat=5, n_obs=7)
            for k in state.index.u_cols:
                fd = oracle.finite_diff_gradient(state, "U", k)
                np.testing.assert_allclose(g.gradient(state, "U", k), fd,
                                           rtol=1e-4, atol=1e-6)
            for k in state.index.v_cols:
                fd = oracle.finite_diff_gradient(state, "V", k)
                np.testing.assert_allclose(g.gradient(state, "V", k), fd,
                                           rtol=1e-4, atol=1e-6)

    def test_fixed_columns_rejected(self):
        state = random_state(g.poisson(), seed=2)
        with pytest.raises(ConfigError):
            g.gradient(state, "U", 0)  # X block is not updateable
        with pytest.raises(ConfigError):
            g.gradient(state, "V", 1)  # Z block is not updateable

    def test_unknown_block_rejected(self):
        state = random_state(g.poisson(), seed=2)
        k = state.index.latent_cols[0]
        for fn in (g.gradient, g.fisher_info):
            with pytest.raises(ConfigError, match="block must be"):
                fn(state, "u", k)


    def test_column_list_stacks_single_columns(self):
        state = random_state(g.negative_binomial(2.0), seed=14)
        for block, cols in (("U", state.index.u_cols),
                            ("V", state.index.v_cols)):
            stacked = np.column_stack(
                [g.gradient(state, block, k) for k in cols])
            np.testing.assert_allclose(g.gradient(state, block, cols),
                                       stacked, rtol=1e-12, atol=1e-12)
        with pytest.raises(ConfigError, match="column 0"):
            g.gradient(state, "U", [state.index.u_cols[0], 0])


class TestClampedMeans:
    """Where a mean sits at its clamp, the objective is flat in R, but the
    gradient keeps the pull y - M with M the clamp value."""

    def clamped_state(self, family, Y, intercepts):
        state = g.build_model(Y, n_latent=1, family=family, seed=0)
        state.V[:, 0] = intercepts  # the intercept column of A
        return state

    def assert_flat(self, state, rows):
        q = g.objective(state)
        state.V[rows, 0] += 1.0
        assert g.objective(state) == q

    def test_poisson_gradient_at_mean_ceiling(self):
        Y = np.random.default_rng(2).poisson(3.0, (4, 5)).astype(float)
        state = self.clamped_state(g.poisson(), Y, [30.0, 0.5, 1.0, 1.5])
        assert np.all(predictor_stats(state).M[0] == MEAN_CEIL)
        grad = g.gradient(state, "V", 0)
        assert grad[0] == pytest.approx(np.sum(Y[0] - MEAN_CEIL), rel=1e-12)
        assert grad[0] == pytest.approx(-5e10, rel=1e-9)
        self.assert_flat(state, 0)

    def test_bernoulli_gradient_at_probability_clamps(self):
        Y = np.array([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0],
                      [0, 1, 1, 0, 1], [1, 1, 0, 0, 1]], dtype=float)
        state = self.clamped_state(g.bernoulli(), Y, [30.0, -30.0, 0.2, -0.2])
        M = predictor_stats(state).M
        assert np.all(M[0] == PROB_CEIL) and np.all(M[1] == PROB_FLOOR)
        grad = g.gradient(state, "V", 0)
        assert grad[0] == pytest.approx(np.sum(Y[0] - PROB_CEIL), rel=1e-12)
        assert grad[1] == pytest.approx(np.sum(Y[1] - PROB_FLOOR), rel=1e-12)
        self.assert_flat(state, [0, 1])


class TestFisherInformation:
    def test_gaussian_identity_form(self):
        state = random_state(g.gaussian(), seed=5)
        k = state.index.u_cols[-1]
        expect = np.sum(state.V[:, k] ** 2) + state.lambda_u[k]
        np.testing.assert_allclose(g.fisher_info(state, "U", k),
                                   np.full(state.n_obs, expect), rtol=1e-12)

    def test_canonical_variance_form(self):
        state = random_state(g.bernoulli(), seed=6)
        stats = predictor_stats(state)
        k = state.index.u_cols[0]
        expect = stats.M * (1 - stats.M)  # rho(mu) for the bernoulli
        simplified = expect.T @ state.V[:, k] ** 2 + state.lambda_u[k]
        np.testing.assert_allclose(g.fisher_info(state, "U", k, stats),
                                   simplified, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_matches_scalar_loop(self, family):
        state = random_state(family, seed=41, n_feat=5, n_obs=6)
        for k in state.index.u_cols:
            np.testing.assert_allclose(g.fisher_info(state, "U", k),
                                       oracle.scalar_fisher_u(state, k),
                                       rtol=0, atol=1e-12)
        for k in state.index.v_cols:
            np.testing.assert_allclose(g.fisher_info(state, "V", k),
                                       oracle.scalar_fisher_v(state, k),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_positive_under_default_penalty(self, family):
        state = random_state(family, seed=51)
        for k in state.index.u_cols:
            assert np.all(g.fisher_info(state, "U", k) > 0)
        for k in state.index.v_cols:
            assert np.all(g.fisher_info(state, "V", k) > 0)

    def test_degenerate_column_has_zero_information(self):
        # unpenalized, with an all-zero partner column: the Gram
        # diagonal is 0 in every row
        state = random_state(g.poisson(), seed=61, penalty=0.0)
        k = state.index.u_cols[-1]
        state.V[:, k] = 0.0
        np.testing.assert_array_equal(g.fisher_info(state, "U", k),
                                      np.zeros(state.n_obs))

    def test_scalar_gradient_matches_vectorized(self):
        state = random_state(g.negative_binomial(2.0), seed=71, n_feat=5,
                             n_obs=6)
        for k in state.index.u_cols:
            np.testing.assert_allclose(g.gradient(state, "U", k),
                                       oracle.scalar_gradient_u(state, k),
                                       rtol=0, atol=1e-12)
        for k in state.index.v_cols:
            np.testing.assert_allclose(g.gradient(state, "V", k),
                                       oracle.scalar_gradient_v(state, k),
                                       rtol=0, atol=1e-12)
