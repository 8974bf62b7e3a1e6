"""Tests for the joint block step, the sweep, and the fit loop."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import glmpca as g
from glmpca import ConfigError, FitError
import oracle
from glmpca import model, optimizer
from glmpca.optimizer import full_scoring
from glmpca.model import (IndexSets, ModelState, PredictorStats, block_of,
                          linear_predictor, predictor_stats)

from conftest import ALL_FAMILIES, random_state, sample_response


def tiny_state(Y, family, U, V, lambda_u=None, lambda_v=None, index=None):
    """Hand-built state for cases build_model would refuse (e.g. J=1)."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    k = U.shape[1]
    return ModelState(
        Y=Y, family=family, U=U, V=V, delta=np.zeros(U.shape[0]),
        lambda_u=np.zeros(k) if lambda_u is None else np.asarray(lambda_u, float),
        lambda_v=np.zeros(k) if lambda_v is None else np.asarray(lambda_v, float),
        index=index or IndexSets(0, 0, k))


def glm_state(family, seed, n_obs=60, n_coef=3, penalty=1e-4):
    """J=1 state whose latent block is zero, so fitting it is plain GLM
    regression on the observation covariates."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n_obs)]
                        + [rng.normal(size=n_obs) for _ in range(n_coef - 1)])
    beta = rng.normal(0.0, 0.4, n_coef)
    mu = family.inverse_link(X @ beta)
    y = sample_response(rng, family, mu)
    k = n_coef + 1
    U = np.zeros((n_obs, k))
    U[:, :n_coef] = X
    V = np.zeros((1, k))
    lam_u = np.zeros(k)
    lam_v = np.zeros(k)
    lam_u[-1] = penalty  # keeps the all-zero latent block pinned at zero
    lam_v[-1] = penalty
    state = ModelState(Y=y[None, :], family=family, U=U, V=V,
                       delta=np.zeros(n_obs), lambda_u=lam_u,
                       lambda_v=lam_v, index=IndexSets(n_coef, 0, 1))
    return state, X, y


class TestColumnUpdates:
    def test_saturated_fit_is_fixed_point(self):
        state = random_state(g.gaussian(), seed=3, penalty=0.0)
        state.Y = predictor_stats(state).M.copy()
        before = state.U.copy()
        full_scoring(state, "U")
        np.testing.assert_array_equal(state.U, before)

    def test_gaussian_update_solves_least_squares_in_one_step(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(4, 7))
        v = rng.normal(size=4)
        u0 = rng.normal(size=7)
        state = tiny_state(Y, g.gaussian(), U=u0[:, None], V=v[:, None])
        full_scoring(state, "U")
        np.testing.assert_allclose(state.U[:, 0], Y.T @ v / (v @ v),
                                   rtol=0, atol=1e-12)

    def test_scalar_poisson_canonical_case(self):
        # y = 2 at mu = 1 with unit loading and no penalty: the step is
        # (y - mu) * v / (rho(mu) * v^2) = 1, landing exactly at u = 1
        state = tiny_state([[2.0]], g.poisson(), U=[[0.0]], V=[[1.0]])
        full_scoring(state, "U")
        assert state.U[0, 0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_blockwise_equals_simultaneous_scalar_updates(self, family):
        # restricted to one column, the block step is the diagonal step
        state = random_state(family, seed=17, n_feat=5, n_obs=7)
        k = state.index.u_cols[-1]
        expected = state.U[:, k] + (oracle.scalar_gradient_u(state, k)
                                    / oracle.scalar_fisher_u(state, k))
        full_scoring(state, "U", cols=[k])
        np.testing.assert_allclose(state.U[:, k], expected, rtol=0,
                                   atol=1e-12)
        k = state.index.v_cols[0]
        expected = state.V[:, k] + (oracle.scalar_gradient_v(state, k)
                                    / oracle.scalar_fisher_v(state, k))
        full_scoring(state, "V", cols=[k])
        np.testing.assert_allclose(state.V[:, k], expected, rtol=0,
                                   atol=1e-12)

    def test_coefficient_column_update_touches_only_that_block(self):
        state = random_state(g.poisson(), seed=23)
        u_before = state.U.copy()
        v_before = state.V.copy()
        full_scoring(state, "V")
        np.testing.assert_array_equal(state.U, u_before)
        np.testing.assert_array_equal(state.Z,
                                      v_before[:, state.index.feat_slice])
        cols = state.index.v_cols
        assert np.all(state.V[:, cols] != v_before[:, cols])

    def test_step_scale_halves_the_increment(self):
        state = random_state(g.poisson(), seed=29)
        full = random_state(g.poisson(), seed=29)
        full_scoring(full, "U")
        full_scoring(state, "U", scale=0.5)
        start = random_state(g.poisson(), seed=29).U
        np.testing.assert_allclose(state.U - start, 0.5 * (full.U - start),
                                   rtol=0, atol=1e-15)


class TestHeldPredictor:
    """Each block step builds R once, from the state it steps."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("full", [False, True], ids=["diag", "full"])
    def test_held_predictor_tracks_state(self, family, full, monkeypatch):
        # full_scoring_coef has no effect: both settings step both blocks
        state = random_state(family, seed=41, n_feat=7, n_obs=10)
        checked = []
        real_step = optimizer.full_scoring

        def checked_step(state, block, stats, scale):
            # means and weights are those of the current R
            for held, current in zip(stats, predictor_stats(state)):
                np.testing.assert_array_equal(held, current)
            checked.append(block)
            return real_step(state, block, stats, scale)

        monkeypatch.setattr(optimizer, "full_scoring", checked_step)
        g.fit(state, g.FitConfig(max_iters=5, tol=1e-14,
                                 full_scoring_coef=full))
        assert checked[:4] == ["U", "V", "U", "V"] and len(checked) >= 10

    @pytest.mark.parametrize("full, sweeps", [(False, 1), (True, 3)])
    def test_predictor_built_once_per_sweep(self, full, sweeps, monkeypatch):
        # R is built once per block step in each sweep, U then V, whatever
        # the no-effect full_scoring_coef says
        state = random_state(g.bernoulli(), seed=45)
        calls = []
        real = model.linear_predictor

        def counted(state):
            calls.append(1)
            return real(state)

        monkeypatch.setattr(model, "linear_predictor", counted)
        notes = Counter()
        for _ in range(sweeps):
            optimizer._sweep(state, 1.0, notes)
        assert len(calls) == 2 * sweeps

        state = random_state(g.bernoulli(), seed=45)
        built = []
        real_stats = optimizer.predictor_stats

        def counted_stats(state):
            built.append(1)
            return real_stats(state)

        monkeypatch.setattr(optimizer, "predictor_stats", counted_stats)
        result = g.fit(state, g.FitConfig(max_iters=sweeps, tol=1e-300,
                                          full_scoring_coef=full))
        assert result.iterations_run == sweeps
        assert len(built) == 2 * sweeps


def rowwise_full_scoring(state, block, info, resid, scale):
    """Per-row reference for full_scoring over all updateable columns of
    ``block``: for each row r, solve

        (D' diag(info_r) D + diag(lambda)) step = D' resid_r - lambda own_r

    or, when that system is singular, take the diagonal step and leave
    zero-pivot columns alone.  ``info`` and ``resid`` are J x N.
    Returns the scaled steps, one row per own row, and the fallback
    count."""
    side = block_of(state, block)
    D = side.partner[:, side.cols]
    lam = side.penalty[side.cols]
    info, resid = side.rows(info), side.rows(resid)
    own = side.own[:, side.cols]
    steps = np.empty_like(own)
    fallbacks = 0
    for r in range(own.shape[0]):
        gram = D.T @ (info[r][:, None] * D) + np.diag(lam)
        rhs = D.T @ resid[r] - lam * own[r]
        try:
            step = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            pivot = np.diag(gram)
            step = np.zeros_like(rhs)
            step[pivot != 0] = rhs[pivot != 0] / pivot[pivot != 0]
            fallbacks += 1
        steps[r] = scale * step
    return steps, fallbacks


def two_sided_state(family, seed, n_feat=7, n_obs=11):
    """Intercept plus one observation covariate (K_o=2), two feature
    covariates (K_f=2), two latent columns with distinct penalties, and
    random coefficient and latent blocks."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_obs, 1))
    Z = rng.normal(size=(n_feat, 2))
    mean = family.inverse_link(rng.normal(0.5, 0.3, (n_feat, n_obs)))
    Y = sample_response(rng, family, mean)
    state = g.build_model(Y, n_latent=2, family=family, obs_covariates=X,
                          feat_covariates=Z, penalty_u=[0.3, 0.05],
                          penalty_v=[0.7, 0.2], seed=seed)
    idx = state.index
    for own, cols in ((state.U, idx.feat_slice), (state.U, idx.latent_slice),
                      (state.V, idx.obs_slice), (state.V, idx.latent_slice)):
        own[:, cols] = rng.normal(0.0, 0.3, own[:, cols].shape)
    return state


class TestFullScoring:
    @pytest.mark.parametrize("block", ["U", "V"])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_batched_solve_matches_per_row_reference(self, family, block):
        state = two_sided_state(family, seed=71)
        # weights from the public link and variance functions, not from
        # the fused kernel the optimizer uses
        R = linear_predictor(state)
        mu = family.inverse_link(R)
        h = family.dinverse_link(R)
        rho = family.variance(mu)
        expected, ref_fallbacks = rowwise_full_scoring(
            state, block, h ** 2 / rho, (state.Y - mu) * h / rho, 0.375)
        assert ref_fallbacks == 0
        side = block_of(state, block)
        assert len(side.cols) == 4
        before = side.own[:, side.cols]
        assert full_scoring(state, block, scale=0.375) == 0
        np.testing.assert_allclose(side.own[:, side.cols] - before, expected,
                                   rtol=1e-12, atol=0)

    def test_gaussian_step_zeroes_the_gradient(self):
        # the Gaussian log likelihood is quadratic in V given U, so one
        # full V step lands on its maximizer
        state = two_sided_state(g.gaussian(), seed=75)
        full_scoring(state, "V")
        for k in state.index.v_cols:
            grad = g.gradient(state, "V", k)
            assert np.abs(grad).max() <= 1e-12 * np.abs(state.Y).sum()

    def test_singular_rows_alone_fall_back(self):
        # no information on feature 1: its Gram matrix is zero in the
        # unpenalized A columns, so the stacked solve raises and the rows
        # are solved one by one; the fallback row leaves A alone
        state = two_sided_state(g.poisson(), seed=73)
        stats = predictor_stats(state)
        info = stats.I.copy()
        info[1] = 0.0
        expected, ref_fallbacks = rowwise_full_scoring(
            state, "V", info, state.Y - stats.M, 0.5)
        assert ref_fallbacks == 1
        cols = state.index.v_cols
        before = state.V[:, cols]
        stats = PredictorStats(stats.M, stats.S, info)
        assert full_scoring(state, "V", stats, scale=0.5) == 1
        np.testing.assert_allclose(state.V[:, cols] - before, expected,
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(state.A[1], before[1, :2])

    def test_chunked_step_matches_unchunked_in_bounded_memory(self):
        # K^2 > J and K^2 > N: the whole Gram stack would hold 28 J x N
        # arrays' worth of cells, so it is built two rows at a time
        rng = np.random.default_rng(77)
        n, n_latent = 60, 40
        Y = rng.poisson(2.0, size=(n, n)).astype(float)
        state = g.build_model(Y, n_latent=n_latent, family=g.poisson(),
                              penalty_u=1.0, penalty_v=1.0, seed=77)
        lat = state.index.latent_slice
        state.U[:, lat] = rng.normal(0.0, 0.3, (n, n_latent))
        state.V[:, lat] = rng.normal(0.0, 0.3, (n, n_latent))
        stats = predictor_stats(state)
        side = block_of(state, "V")
        D = side.partner[:, side.cols]
        lam = side.penalty[side.cols]
        m = len(side.cols)
        assert n * m * m > 28 * n * n
        products = (D[:, :, None] * D[:, None, :]).reshape(n, m * m)
        gram = (stats.I @ products).reshape(n, m, m) + np.diag(lam)
        rhs = (state.Y - stats.M) @ D - lam * side.own[:, side.cols]
        unchunked = np.linalg.solve(gram, rhs[..., None])[..., 0]
        before = side.own[:, side.cols].copy()
        tracemalloc.start()
        try:
            full_scoring(state, "V", stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * Y.nbytes
        step = side.own[:, side.cols] - before
        assert np.abs(step - unchunked).max() <= \
            1e-14 * np.abs(unchunked).max()

    def test_gaussian_one_step_is_ols(self):
        rng = np.random.default_rng(31)
        n_obs, n_feat = 30, 5
        X = np.column_stack([np.ones(n_obs), rng.normal(size=n_obs)])
        Y = rng.normal(size=(n_feat, n_obs))
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              obs_covariates=X[:, 1:], seed=0)
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        fallbacks = full_scoring(state, "V")
        assert fallbacks == 0
        ols = np.linalg.solve(X.T @ X, X.T @ Y.T).T
        np.testing.assert_allclose(state.A, ols, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "family", [g.gaussian(), g.poisson(), g.bernoulli()],
        ids=lambda f: f.kind)
    def test_glm_special_case_full_scoring(self, family):
        state, X, y = glm_state(family, seed=7)
        beta_ref = oracle.irls_glm(y, X, family)
        result = g.fit(state, g.FitConfig(max_iters=200, tol=1e-14,
                                          full_scoring_coef=True))
        np.testing.assert_allclose(result.coef_A[0], beta_ref, rtol=0,
                                   atol=1e-6)
        # the pinned latent block must have stayed at zero
        np.testing.assert_array_equal(state.U_latent, 0.0)
        np.testing.assert_array_equal(state.V_latent, 0.0)

    @pytest.mark.parametrize(
        "family", [g.gaussian(), g.poisson(), g.bernoulli()],
        ids=lambda f: f.kind)
    def test_glm_special_case_diagonal_updates(self, family):
        # full_scoring_coef left off: the block step scores A fully anyway
        state, X, y = glm_state(family, seed=7)
        beta_ref = oracle.irls_glm(y, X, family)
        result = g.fit(state, g.FitConfig(max_iters=500, tol=1e-14))
        np.testing.assert_allclose(result.coef_A[0], beta_ref, rtol=0,
                                   atol=1e-6)

    def test_poisson_intercept_closed_form_with_offset(self):
        rng = np.random.default_rng(41)
        n_feat, n_obs = 5, 40
        delta = rng.normal(0.0, 0.4, n_obs)
        mu = np.exp(rng.normal(1.0, 0.3, n_feat)[:, None] + delta[None, :])
        Y = rng.poisson(mu).astype(float)
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              offset=delta, seed=0)
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        g.fit(state, g.FitConfig(max_iters=200, tol=1e-14))
        expected = np.log(Y.sum(axis=1) / np.exp(delta).sum())
        np.testing.assert_allclose(state.A[:, 0], expected, rtol=0,
                                   atol=1e-8)

    def test_gamma_full_scoring_matches_ols(self):
        rng = np.random.default_rng(51)
        n_feat, n_obs = 30, 8
        Z = rng.normal(size=(n_feat, 2))
        Y = rng.normal(size=(n_feat, n_obs))
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              intercept=False, feat_covariates=Z, seed=0)
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        assert full_scoring(state, "U") == 0
        ols = np.linalg.solve(Z.T @ Z, Z.T @ Y).T
        np.testing.assert_allclose(state.Gamma, ols, rtol=0, atol=1e-10)

    def test_singular_system_falls_back_to_diagonal(self):
        rng = np.random.default_rng(61)
        n_obs = 12
        x = rng.normal(size=n_obs)
        X = np.column_stack([x, x])  # duplicated column: singular grams
        Y = rng.normal(size=(3, n_obs))
        state = tiny_state(Y, g.gaussian(),
                           U=np.column_stack([X, np.zeros(n_obs)]),
                           V=np.zeros((3, 3)),
                           lambda_u=[0.0, 0.0, 1e-4],
                           lambda_v=[0.0, 0.0, 1e-4],
                           index=IndexSets(2, 0, 1))
        stats = predictor_stats(state)
        expected, _ = rowwise_full_scoring(state, "V", stats.I,
                                           state.Y - stats.M, 1.0)
        fallbacks = full_scoring(state, "V")
        assert fallbacks == 3
        assert np.all(np.isfinite(state.A))
        # V started at zero, so V holds the steps
        np.testing.assert_allclose(state.V, expected, rtol=1e-12, atol=0)


class TestDegenerateColumns:
    """An unpenalized column whose partner column is all zero makes every
    Gram matrix of its block singular; the per-row fallback handles it."""

    def degenerate_state(self, penalty=0.0, zero_pair=False):
        state = random_state(g.poisson(), seed=95, penalty=penalty)
        k = state.index.latent_cols[-1]
        state.V[:, k] = 0.0
        if zero_pair:
            state.U[:, k] = 0.0
        return state, k

    def test_column_unchanged_by_fallback_step(self):
        state, k = self.degenerate_state()
        u_before = state.U.copy()
        notes = Counter()
        optimizer._sweep(state, 1.0, notes)
        # every U row fell back to the diagonal step, which leaves the
        # zero-pivot column as it was and moves the others
        assert notes == Counter(
            {"block step fell back to diagonal for U rows": state.n_obs})
        np.testing.assert_array_equal(state.U[:, k], u_before[:, k])
        others = [c for c in state.index.u_cols if c != k]
        assert np.all(state.U[:, others] != u_before[:, others])
        # the V step then sees a nonzero partner column and moves V[:, k]
        assert np.all(np.isfinite(state.V)) and state.V[:, k].any()

    def test_fit_outputs_finite(self):
        state, _ = self.degenerate_state()
        result = g.fit(state, g.FitConfig(max_iters=30, tol=1e-8))
        for out in (result.factors, result.loadings, result.coef_A,
                    result.coef_Gamma):
            assert np.all(np.isfinite(out))
        assert result.warnings == [
            f"block step fell back to diagonal for U rows (x{state.n_obs})"]

    @pytest.mark.parametrize("penalty", [0.0, 1e-4])
    def test_zero_latent_pair_stays_zero(self, penalty):
        state, k = self.degenerate_state(penalty, zero_pair=True)
        result = g.fit(state, g.FitConfig(max_iters=30, tol=1e-8))
        assert not state.U[:, k].any() and not state.V[:, k].any()
        norms = np.linalg.norm(result.factors, axis=0)
        assert norms[-1] == 0 and np.all(norms[:-1] > 0)
        assert ("1 latent dimension(s) have zero norm "
                "(rank-deficient loadings)") in result.warnings

    def test_fallback_rows_counted_in_warnings(self):
        rng = np.random.default_rng(103)
        n_obs, n_feat = 10, 4
        x = rng.normal(size=n_obs)
        state = tiny_state(rng.normal(size=(n_feat, n_obs)), g.gaussian(),
                           U=np.column_stack([x, x, np.zeros(n_obs)]),
                           V=np.zeros((n_feat, 3)), lambda_u=[0, 0, 1e-4],
                           lambda_v=[0, 0, 1e-4], index=IndexSets(2, 0, 1))
        notes = Counter()
        optimizer._sweep(state, 1.0, notes)
        assert notes == Counter(
            {"block step fell back to diagonal for V rows": n_feat})


class TestFit:
    def test_gaussian_matches_truncated_svd(self):
        rng = np.random.default_rng(99)
        Y = rng.standard_normal((6, 12))
        state = g.build_model(Y, n_latent=2, family=g.gaussian(),
                              penalty_u=0.0, penalty_v=0.0, seed=3)
        result = g.fit(state, g.FitConfig(max_iters=20000, tol=1e-14))
        assert result.converged
        scores, loadings = oracle.pca_reference(Y, 2)
        recon = state.V_latent @ state.U_latent.T
        assert np.linalg.norm(recon - loadings @ scores.T) <= 1e-6

    def test_saturated_start_converges_immediately(self):
        # gaussian, unpenalized: y == mu is a stationary point
        state = random_state(g.gaussian(), seed=8, penalty=0.0)
        state.Y = predictor_stats(state).M.copy()
        u0, v0 = state.U.copy(), state.V.copy()
        result = g.fit(state, g.FitConfig(max_iters=50, tol=1e-10))
        assert result.converged and result.iterations_run <= 2
        # postprocessing rewrites blocks, so compare against a re-run
        np.testing.assert_allclose(
            result.final_q,
            g.objective(ModelState(state.Y, state.family, u0, v0, state.delta,
                                   state.lambda_u, state.lambda_v,
                                   state.index)),
            rtol=0, atol=1e-10)

    def test_saturated_integer_start_poisson(self):
        # default penalties with a zero latent block: counts equal to the
        # intercept means are a fixed point, nothing moves
        counts = np.array([2.0, 5.0, 1.0, 7.0])
        Y = np.tile(counts[:, None], (1, 9))
        state = g.build_model(Y, n_latent=1, family=g.poisson(), seed=0)
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        state.V[:, 0] = np.log(counts)
        result = g.fit(state, g.FitConfig(max_iters=50, tol=1e-10))
        assert result.converged and result.iterations_run <= 2
        np.testing.assert_allclose(state.A[:, 0], np.log(counts), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_trace_is_monotone(self, family):
        state = random_state(family, seed=77)
        result = g.fit(state, g.FitConfig(max_iters=60, tol=1e-9))
        qs = [q for _, q in result.trace]
        assert len(qs) >= 1
        for prev, cur in zip(qs, qs[1:]):
            assert cur >= prev - 1e-12 * (1.0 + abs(prev))

    def test_fixed_blocks_survive_fit_bit_for_bit(self):
        state = random_state(g.poisson(), seed=83)
        x_before = state.X.copy()
        z_before = state.Z.copy()
        g.fit(state, g.FitConfig(max_iters=20, tol=1e-8))
        np.testing.assert_array_equal(state.X, x_before)
        np.testing.assert_array_equal(state.Z, z_before)

    def test_non_convergence_is_flagged_not_raised(self):
        state = random_state(g.poisson(), seed=91)
        result = g.fit(state, g.FitConfig(max_iters=2, tol=1e-16))
        assert not result.converged
        assert result.iterations_run == 2
        assert [it for it, _ in result.trace] == [1, 2]

    @pytest.mark.parametrize("cfg, reason, converged", [
        (g.FitConfig(tol=1e-3), "tol", True),
        (g.FitConfig(max_iters=2, tol=1e-16), "max_iters", False),
        (g.FitConfig(max_halvings=0), "stalled", False),
    ], ids=["tol", "max_iters", "stalled"])
    def test_stop_reason(self, cfg, reason, converged):
        # on these counts the first full-size sweep lowers Q, so without
        # halvings the fit stalls at once; with them it converges
        Y = np.random.default_rng(0).poisson(5.0, size=(40, 30)).astype(float)
        state = g.build_model(Y, n_latent=2, family=g.poisson(), seed=0)
        q0 = g.objective(state)
        result = g.fit(state, cfg)
        assert result.stop_reason == reason
        assert result.converged is converged
        if reason == "stalled":
            # the rejected sweep is undone: Q stays at the starting point
            assert result.iterations_run == 1
            assert result.final_q == q0
            assert result.warnings == [
                "sweep rejected after max halvings; stopped early"]
        else:
            assert not any("rejected" in w for w in result.warnings)

    def test_trace_has_one_row_per_sweep(self):
        state = random_state(g.poisson(), seed=92)
        result = g.fit(state, g.FitConfig(max_iters=5, tol=1e-16))
        assert [it for it, _ in result.trace] == [1, 2, 3, 4, 5]

    def test_trace_every_thins_the_trace(self):
        state = random_state(g.poisson(), seed=93)
        result = g.fit(state, g.FitConfig(max_iters=6, tol=1e-16,
                                          trace_every=3))
        assert [it for it, _ in result.trace] == [3, 6]

    def test_last_sweep_traced_when_trace_every_exceeds_sweeps(self):
        state = random_state(g.poisson(), seed=93)
        result = g.fit(state, g.FitConfig(max_iters=2, tol=1e-16,
                                          trace_every=5))
        assert not result.converged
        assert result.trace[-1] == (2, result.final_q)

    def test_nonfinite_objective_raises_fit_error(self):
        Y = np.full((4, 8), 1e200)
        state = g.build_model(Y, n_latent=1, family=g.gaussian(), seed=0)
        with pytest.raises(FitError, match="halvings"):
            g.fit(state, g.FitConfig())

    def test_result_contract(self):
        state = random_state(g.poisson(), seed=97, n_latent=2)
        result = g.fit(state, g.FitConfig(max_iters=200, tol=1e-8))
        n_obs, n_feat = state.n_obs, state.n_feat
        assert result.factors.shape == (n_obs, 2)
        assert result.loadings.shape == (n_feat, 2)
        assert result.coef_A.shape == (n_feat, 1)
        assert result.coef_Gamma.shape == (n_obs, 1)
        assert result.offset.shape == (n_obs,)
        assert result.postprocessed
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(2), rtol=0, atol=1e-10)
        norms = np.linalg.norm(result.factors, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)
        assert result.final_q == pytest.approx(result.trace[-1][1])

    def test_rank_deficient_design_skips_postprocessing(self):
        # a duplicated covariate column cannot come out of build_model,
        # but a hand-built state must still return a usable result
        rng = np.random.default_rng(103)
        n_obs, n_feat = 10, 4
        x = rng.normal(size=n_obs)
        U = np.column_stack([x, x, rng.normal(0, 0.1, n_obs)])
        V = np.column_stack([np.zeros((n_feat, 2)),
                             rng.normal(0, 0.1, (n_feat, 1))])
        state = tiny_state(rng.normal(size=(n_feat, n_obs)), g.gaussian(),
                           U=U, V=V, lambda_u=[0, 0, 1e-4],
                           lambda_v=[0, 0, 1e-4], index=IndexSets(2, 0, 1))
        result = g.fit(state, g.FitConfig(max_iters=10, tol=1e-8))
        assert not result.postprocessed
        assert any("postprocessing skipped" in w for w in result.warnings)
        assert result.factors.shape == (n_obs, 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            g.FitConfig(max_iters=0)
        with pytest.raises(ConfigError):
            g.FitConfig(tol=0.0)
        with pytest.raises(ConfigError):
            g.FitConfig(trace_every=0)
