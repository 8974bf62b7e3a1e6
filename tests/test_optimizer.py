"""Tests for the joint block step, the sweep, and the fit loop."""

import copy
import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import glmpca as g
from glmpca import ConfigError, FitError
import oracle
from glmpca import model, optimizer
from glmpca.model import IndexSets, ModelState, linear_predictor

from conftest import (ALL_FAMILIES, block_step, column_penalty, gradient,
                      means, noise_start, own_block, random_state,
                      sample_response, u_steps)


def tiny_state(Y, family, U, V, penalty=0.0, index=None):
    """Hand-built state for cases build_model would refuse (e.g. J=1)."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    return ModelState(
        Y=Y, family=family, U=U, V=V, delta=np.zeros(U.shape[0]),
        penalty=penalty, index=index or IndexSets(0, 0, U.shape[1]))


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
    # the penalty keeps the all-zero latent block pinned at zero
    state = ModelState(Y=y[None, :], family=family, U=U, V=V,
                       delta=np.zeros(n_obs), penalty=penalty,
                       index=IndexSets(n_coef, 0, 1))
    return state, X, y


class TestColumnUpdates:
    def test_saturated_fit_is_fixed_point(self):
        state = random_state(g.gaussian(), seed=3, penalty=0.0)
        state.Y = means(state)
        before = state.U.copy()
        block_step(state, "U")
        np.testing.assert_array_equal(state.U, before)

    def test_gaussian_update_solves_least_squares_in_one_step(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(4, 7))
        v = rng.normal(size=4)
        u0 = rng.normal(size=7)
        state = tiny_state(Y, g.gaussian(), U=u0[:, None], V=v[:, None])
        block_step(state, "U")
        np.testing.assert_allclose(state.U[:, 0], Y.T @ v / (v @ v),
                                   rtol=0, atol=1e-12)

    def test_scalar_poisson_canonical_case(self):
        # y = 2 at mu = 1 with unit loading and no penalty: the step is
        # (y - mu) * v / (rho(mu) * v^2) = 1, landing exactly at u = 1
        state = tiny_state([[2.0]], g.poisson(), U=[[0.0]], V=[[1.0]])
        block_step(state, "U")
        assert state.U[0, 0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_blockwise_equals_simultaneous_scalar_updates(self, family):
        # with one updateable column per block (no covariates, L=1), the
        # block step is the paper's diagonal step
        rng = np.random.default_rng(17)
        Y = sample_response(rng, family,
                            family.inverse_link(rng.normal(0.5, 0.3, (5, 7))))
        state = g.build_model(Y, n_latent=1, family=family, intercept=False)
        state.U[:] = rng.normal(0.0, 0.3, state.U.shape)
        state.V[:] = rng.normal(0.0, 0.3, state.V.shape)
        assert state.index.u_cols == state.index.v_cols == [0]
        expected = state.U[:, 0] + (oracle.scalar_gradient_u(state, 0)
                                    / oracle.scalar_fisher_u(state, 0))
        block_step(state, "U")
        np.testing.assert_allclose(state.U[:, 0], expected, rtol=0,
                                   atol=1e-12)
        expected = state.V[:, 0] + (oracle.scalar_gradient_v(state, 0)
                                    / oracle.scalar_fisher_v(state, 0))
        block_step(state, "V")
        np.testing.assert_allclose(state.V[:, 0], expected, rtol=0,
                                   atol=1e-12)

    def test_coefficient_column_update_touches_only_that_block(self):
        state = random_state(g.poisson(), seed=23)
        u_before = state.U.copy()
        v_before = state.V.copy()
        block_step(state, "V")
        np.testing.assert_array_equal(state.U, u_before)
        np.testing.assert_array_equal(state.Z,
                                      v_before[:, state.index.feat_slice])
        cols = state.index.v_cols
        assert np.all(state.V[:, cols] != v_before[:, cols])

    def test_step_scale_halves_the_increment(self):
        state = random_state(g.poisson(), seed=29)
        full = random_state(g.poisson(), seed=29)
        block_step(full, "U")
        block_step(state, "U", scale=0.5)
        start = random_state(g.poisson(), seed=29).U
        np.testing.assert_allclose(state.U - start, 0.5 * (full.U - start),
                                   rtol=0, atol=1e-15)


class TestHeldPredictor:
    """A sweep solves the U system held from the scoring pass of its
    starting point once, and every attempt takes that held step; each
    accepted sweep builds each chunk's R twice."""

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("full", [False, True], ids=["diag", "full"])
    def test_held_predictor_tracks_state(self, family, full, monkeypatch):
        # full_scoring_coef has no effect: both settings step both blocks
        state = random_state(family, seed=41, n_feat=7, n_obs=10)
        checked = []
        real_sweep = optimizer._sweep

        def checked_sweep(state, scale, steps):
            # the held U step is the solve of the U system a fresh pass
            # over the state builds
            (own, cols, held), = steps
            assert own is state.U and cols == state.index.u_cols
            np.testing.assert_array_equal(
                held, u_steps(state, model.score_pass(state)[1])[0][0][2])
            checked.append(scale)
            return real_sweep(state, scale, steps)

        monkeypatch.setattr(optimizer, "_sweep", checked_sweep)
        g.fit(state, g.FitConfig(max_iters=5, tol=1e-14,
                                 full_scoring_coef=full))
        assert len(checked) >= 5

    @staticmethod
    def count_builds(monkeypatch):
        """Record the rows of each build of R, through
        model.linear_predictor."""
        calls = []
        real = model.linear_predictor

        def counted(state, rows, out=None):
            calls.append((rows.start, rows.stop))
            return real(state, rows, out)

        monkeypatch.setattr(model, "linear_predictor", counted)
        return calls

    @pytest.mark.parametrize("full, sweeps", [(False, 1), (True, 3)])
    def test_predictor_built_once_per_sweep(self, full, sweeps, monkeypatch):
        # a fit builds each chunk's R once for its starting point, then
        # twice per sweep: for the V step of the chunk's group and for
        # scoring the new point, whose U system the next U step takes as
        # it is; the no-effect full_scoring_coef changes nothing.  With
        # N = 24 and m = 3 V columns a group holds 24 // 12 = 2 chunks,
        # so both chunks take the V step before either is scored
        monkeypatch.setattr(model, "CHUNK_ROWS", 4)
        calls = self.count_builds(monkeypatch)
        state = random_state(g.bernoulli(), seed=45, n_obs=24)
        assert state.n_feat == 6 and len(state.index.v_cols) == 3
        result = g.fit(state, g.FitConfig(max_iters=sweeps, tol=1e-300,
                                          full_scoring_coef=full))
        assert result.iterations_run == sweeps and not result.warnings
        first, last = (0, 4), (4, 8)
        assert calls == [first, last] + [first, last, first, last] * sweeps

        # _sweep alone: the U step builds nothing
        state = random_state(g.bernoulli(), seed=45, n_obs=24)
        steps = u_steps(state, model.score_pass(state)[1])[0]
        calls.clear()
        optimizer._sweep(state, 1.0, steps)
        assert calls == [first, last, first, last]

    @staticmethod
    def overshooting_state():
        """From a zero intercept and a small latent start the first full
        sweep overshoots: it is halved twice, the second sweep not at
        all."""
        rng = np.random.default_rng(0)
        R = (rng.normal(1.0, 0.5, (10, 1))
             + rng.normal(0, 0.7, (10, 2)) @ rng.normal(0, 0.7, (2, 14)))
        Y = rng.poisson(np.exp(R)).astype(float)
        state = noise_start(g.build_model(Y, n_latent=2, family=g.poisson()))
        state.V[:, 0] = 0.0
        return state

    def test_halved_retry_keeps_the_start_u_step(self, monkeypatch):
        state = self.overshooting_state()
        start = u_steps(state, model.score_pass(state)[1])[0][0][2]
        scales, steps_seen = [], []
        real_sweep = optimizer._sweep

        def counted_sweep(state, scale, steps):
            scales.append(scale)
            steps_seen.append(steps)
            return real_sweep(state, scale, steps)

        monkeypatch.setattr(optimizer, "_sweep", counted_sweep)
        calls = self.count_builds(monkeypatch)
        result = g.fit(state, g.FitConfig(max_iters=2, tol=1e-300))
        assert scales == [1.0, 0.5, 0.25, 1.0]
        assert result.warnings == ["sweep step-halvings applied (x2)"]
        # the retries take the start's U step, held and unchanged: the
        # solve of the U system a fresh pass over the start builds
        assert steps_seen[1] is steps_seen[0]
        assert steps_seen[2] is steps_seen[0]
        assert steps_seen[3] is not steps_seen[0]
        np.testing.assert_array_equal(steps_seen[0][0][2], start)
        # one chunk: 1 build for the start, 2 per attempt
        assert len(calls) == 1 + 2 * 4

    def test_no_u_system_is_held_through_a_pass(self, monkeypatch):
        # a U system is freed once it is solved, or once its attempt is
        # rejected, before the next pass builds one: the fit holds the
        # N x m step through a pass, not an N x m² system
        state = self.overshooting_state()
        refs, held = [], []
        real_pass = optimizer.score_pass

        def watched_pass(*args, **kwargs):
            held.append(sum(ref() is not None for ref in refs))
            out = real_pass(*args, **kwargs)
            refs.extend(weakref.ref(part) for part in out[1])
            return out

        monkeypatch.setattr(optimizer, "score_pass", watched_pass)
        result = g.fit(state, g.FitConfig(max_iters=2, tol=1e-300))
        assert result.warnings == ["sweep step-halvings applied (x2)"]
        assert held == [0] * 5

    @pytest.mark.parametrize("halvings", [0, 1, 3])
    def test_one_u_solve_per_sweep_however_often_halved(self, halvings,
                                                        monkeypatch):
        # the first `halvings` attempts are made non-finite, so the sweep
        # is halved that many times; its U system is solved once
        state = random_state(g.poisson(), seed=77)
        solved, scales = [], []
        real_sweep, real_solve = optimizer._sweep, optimizer.solve_rows

        def poisoned_sweep(state, scale, steps):
            out = real_sweep(state, scale, steps)
            scales.append(scale)
            if len(scales) <= halvings:
                state.U[0, -1] = np.nan
            return out

        def counted_solve(*args):
            solved.append(len(args[0]))
            return real_solve(*args)

        monkeypatch.setattr(optimizer, "_sweep", poisoned_sweep)
        monkeypatch.setattr(optimizer, "solve_rows", counted_solve)
        result = g.fit(state, g.FitConfig(max_iters=1))
        assert scales == [0.5 ** k for k in range(halvings + 1)]
        assert solved == [state.n_obs]
        assert result.iterations_run == 1 and np.isfinite(result.final_q)


class TestChunks:
    """The pass over row chunks of Y gives the numbers of one pass over
    all rows, and holds no J x N array."""

    @staticmethod
    def chunk_case(case):
        if case == "J=1":  # C4's GLM state
            return glm_state(g.bernoulli(), seed=7)[0]
        if case == "J=6":  # below one chunk of 7 rows and of the default
            return random_state(g.negative_binomial(2.0), seed=47)
        # 23 rows: not a multiple of 7
        return random_state(g.poisson(), seed=48, n_feat=23, n_obs=9)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("case", ["J=23", "J=6", "J=1"])
    def test_chunk_size_changes_no_number(self, case, chunk, monkeypatch):
        real_sweep = optimizer._sweep

        def run():
            systems = []

            def recorded_sweep(state, scale, steps):
                # the new point's U system, copied before the next sweep
                # solves it in place
                out = real_sweep(state, scale, steps)
                systems.append(tuple(part.copy() for part in out[1]))
                return out

            monkeypatch.setattr(optimizer, "_sweep", recorded_sweep)
            result = g.fit(self.chunk_case(case),
                           g.FitConfig(max_iters=8, tol=1e-300))
            return result, systems

        default, default_systems = run()
        monkeypatch.setattr(model, "CHUNK_ROWS", chunk)
        chunked, chunked_systems = run()
        for field in ("iterations_run", "stop_reason", "warnings"):
            assert getattr(chunked, field) == getattr(default, field)
        np.testing.assert_allclose([q for _, q in chunked.trace],
                                   [q for _, q in default.trace],
                                   rtol=1e-12, atol=0)
        assert len(chunked_systems) == len(default_systems) >= 4
        for got, want in zip(chunked_systems, default_systems):
            for part, expected in zip(got, want):
                assert np.abs(part - expected).max() <= \
                    1e-12 * np.abs(expected).max()

    @staticmethod
    def reference_pass(state, v_scale):
        """score_pass built from buffer-free row_weights and row_system
        calls: each chunk's arrays are new, and the log likelihood has no
        scratch buffer."""
        idx = state.index
        m = len(idx.u_cols)
        u_grad = np.zeros((state.n_obs, m))
        u_gram = np.zeros((state.n_obs, m, m))
        q = 0.0
        for lo in range(0, state.n_feat, model.CHUNK_ROWS):
            rows = slice(lo, lo + model.CHUNK_ROWS)
            if v_scale is not None:
                _, _, resid, info = model.row_weights(state, rows)
                design = state.U[:, idx.v_cols]
                step, _ = model.solve_rows(
                    *model.row_system(resid, info, design,
                                      model.column_products(design)),
                    state.V[rows, idx.latent_slice], state.penalty)
                state.V[rows, idx.v_cols] += v_scale * step
            R, M, resid, info = model.row_weights(state, rows)
            design = state.V[rows, idx.u_cols]
            grad, gram = model.row_system(resid.T, info.T, design,
                                          model.column_products(design))
            u_grad += grad
            u_gram += gram
            q += state.family._loglik_sum(state.Y[rows], R, M)
        for latent in (state.U_latent, state.V_latent):
            q -= 0.5 * state.penalty * float(np.sum(latent ** 2))
        return q, (u_grad, u_gram)

    @pytest.mark.parametrize("v_scale", [None, 0.5], ids=["score", "step"])
    @pytest.mark.parametrize("n_feat", [10, 6], ids=["J=10", "J=6"])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_buffers_change_no_number(self, family, n_feat, v_scale,
                                      monkeypatch):
        # chunks of 7 rows: 10 rows end on a partial chunk, 6 rows are
        # below one chunk.  Two passes on the same state, so that stale
        # contents of a reused buffer would show
        monkeypatch.setattr(model, "CHUNK_ROWS", 7)
        state = random_state(family, seed=50, n_feat=n_feat, n_obs=9)
        reference = dataclasses.replace(state, U=state.U.copy(),
                                        V=state.V.copy())
        for _ in range(2):
            q, system, _ = model.score_pass(state, v_scale)
            want_q, want_system = self.reference_pass(reference, v_scale)
            assert q == want_q
            for got, want in zip(system, want_system):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(state.V, reference.V)

    @pytest.mark.parametrize("n_feat, groups", [(10, [4, 4, 2]),
                                                (11, [4, 4, 3])],
                             ids=["J=10", "J=11"])
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_grouped_v_step_matches_chunk_by_chunk(self, family, n_feat,
                                                   groups, monkeypatch):
        # chunks of 2 rows, and N // (m (m + 1)) = 25 // 12 = 2 chunks
        # per group: 10 rows end on a group of one chunk, 11 rows on a
        # group whose second chunk holds one row.  One solve per group
        # steps V, Q and the U system bit for bit as one per chunk
        monkeypatch.setattr(model, "CHUNK_ROWS", 2)
        state = random_state(family, seed=52, n_feat=n_feat, n_obs=25)
        assert len(state.index.v_cols) == 3
        reference = dataclasses.replace(state, U=state.U.copy(),
                                        V=state.V.copy())
        want_q, want_system = self.reference_pass(reference, 0.5)
        solved = []
        real = model.solve_rows

        def recorded(grad, *args):
            solved.append(len(grad))
            return real(grad, *args)

        monkeypatch.setattr(model, "solve_rows", recorded)
        q, system, fallbacks = model.score_pass(state, 0.5)
        assert solved == groups and fallbacks == 0
        np.testing.assert_array_equal(state.V, reference.V)
        assert q == want_q
        for got, want in zip(system, want_system):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_chunk_arrays_are_views_of_one_stack(self, family, monkeypatch):
        # R, M, the residual and I (unless I is M) of every chunk are
        # disjoint slices of one buffer stack per pass, and the U system
        # the pass returns is not
        monkeypatch.setattr(model, "CHUNK_ROWS", 4)
        real = model.row_weights
        seen = []

        def recorded(state, rows, buffers=None):
            arrays = real(state, rows, buffers)
            seen.append((buffers, arrays))
            return arrays

        monkeypatch.setattr(model, "row_weights", recorded)
        state = random_state(family, seed=51)
        _, system, _ = model.score_pass(state, 1.0)
        assert state.n_feat == 6 and len(seen) == 4
        stack = seen[0][0].base
        assert stack.shape == (5, 4, state.n_obs)
        for (buffers, (R, M, resid, info)), n in zip(seen, (4, 4, 2, 2)):
            assert buffers.base is stack
            assert buffers.shape == (5, n, state.n_obs)
            assert (info is M) == (family.kind == "poisson")
            views = [R, M, resid] + ([] if info is M else [info])
            for k, view in enumerate(views):
                assert view.shape == (n, state.n_obs)
                assert np.shares_memory(view, stack)
                assert not any(np.shares_memory(view, other)
                               for other in views[k + 1:])
        for part in system:
            assert not np.shares_memory(part, stack)

    def test_fit_holds_no_jxn_array_but_y(self):
        # 4000 rows are 32 chunks of the default size; one J x N
        # temporary alone would be twice the bound
        rng = np.random.default_rng(11)
        Y = rng.poisson(2.0, size=(4000, 200)).astype(float)
        state = g.build_model(Y, n_latent=3, family=g.poisson())
        assert state.n_feat >= 16 * model.CHUNK_ROWS
        tracemalloc.start()
        try:
            result = g.fit(state, g.FitConfig(max_iters=3, tol=1e-300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations_run == 3
        assert peak < 0.5 * Y.nbytes


def rowwise_full_scoring(state, block, info, resid, scale):
    """Per-row reference for the block step over all updateable columns
    of ``block``: for each row r, solve

        (D' diag(info_r) D + diag(lam)) step = D' resid_r - lam own_r

    with lam the penalty on latent columns and 0 on the others, or, when
    that system is singular, take the diagonal step and leave
    zero-pivot columns alone.  ``info`` and ``resid`` are J x N.
    Returns the scaled steps, one row per own row, and the fallback
    count."""
    own, cols = own_block(state, block)
    D = (state.V if block == "U" else state.U)[:, cols]
    lam = column_penalty(state, cols)
    if block == "U":
        info, resid = info.T, resid.T
    own = own[:, cols]
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
    covariates (K_f=2), two latent columns under the penalty 0.3, and
    random coefficient and latent blocks."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_obs, 1))
    Z = rng.normal(size=(n_feat, 2))
    mean = family.inverse_link(rng.normal(0.5, 0.3, (n_feat, n_obs)))
    Y = sample_response(rng, family, mean)
    state = g.build_model(Y, n_latent=2, family=family, obs_covariates=X,
                          feat_covariates=Z, penalty=0.3)
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
        own, cols = own_block(state, block)
        assert len(cols) == 4
        before = own[:, cols]
        assert block_step(state, block, scale=0.375) == 0
        np.testing.assert_allclose(own[:, cols] - before, expected,
                                   rtol=1e-12, atol=0)

    def test_gaussian_step_zeroes_the_gradient(self):
        # the Gaussian log likelihood is quadratic in V given U, so one
        # full V step lands on its maximizer
        state = two_sided_state(g.gaussian(), seed=75)
        block_step(state, "V")
        grad = gradient(state, "V")
        assert np.abs(grad).max() <= 1e-12 * np.abs(state.Y).sum()

    def test_singular_rows_alone_fall_back(self):
        # no information on feature 1: its Gram matrix is zero in the
        # unpenalized A columns, so the stacked solve raises, the other
        # rows are solved again in one stacked call, and the fallback row
        # leaves A alone
        state = two_sided_state(g.poisson(), seed=73)
        _, _, resid, info = model.row_weights(state, slice(None))
        info = info.copy()
        info[1] = 0.0
        expected, ref_fallbacks = rowwise_full_scoring(
            state, "V", info, resid, 0.5)
        assert ref_fallbacks == 1
        design = state.U[:, state.index.v_cols]
        step, fallbacks = g.solve_rows(
            *g.row_system(resid, info, design,
                          model.column_products(design)),
            state.V_latent, state.penalty)
        assert fallbacks == 1
        np.testing.assert_allclose(0.5 * step, expected, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(step[1, :2], 0.0)  # A stays

    @pytest.mark.parametrize("singular", [
        [3, 7, 8, 21, 34], [0, 39], list(range(40))],
        ids=["mixed", "first-and-last", "all"])
    def test_fallback_matches_per_row_solves_bit_for_bit(self, singular):
        # a singular row has an all-zero unpenalized column, or is zero
        # but for the ridge; the others are solved as np.linalg.solve
        # solves each alone, and each singular row takes the diagonal step
        rng = np.random.default_rng(107)
        n, m, n_latent, lam = 40, 5, 2, 0.3
        factors = rng.normal(size=(n, m, m))
        gram = factors @ factors.transpose(0, 2, 1)
        for r in singular:
            if r % 3:
                gram[r, r % 3, :] = gram[r, :, r % 3] = 0.0
            else:
                gram[r] = 0.0
        grad = rng.normal(size=(n, m))
        own = rng.normal(size=(n, n_latent))
        rhs = grad.copy()
        rhs[:, m - n_latent:] -= lam * own
        lhs = gram.copy()
        for c in range(m - n_latent, m):
            lhs[:, c, c] += lam
        expected = np.empty((n, m))
        rows = []
        for r in range(n):
            try:
                expected[r] = np.linalg.solve(lhs[r], rhs[r])
            except np.linalg.LinAlgError:
                rows.append(r)
                expected[r] = [b / p if p else 0.0
                               for b, p in zip(rhs[r], np.diag(lhs[r]))]
        assert rows == singular
        step, fallbacks = g.solve_rows(grad, gram, own, lam)
        assert fallbacks == len(singular)
        np.testing.assert_array_equal(step, expected)

    def test_non_contiguous_gram_takes_the_same_step_and_the_ridge(self):
        # the ridge is added by index into the caller's stack: a
        # transposed view gets it too, and solves to the same step as a
        # contiguous copy, bit for bit
        state = random_state(g.poisson(), seed=79, penalty=0.3)
        grad, gram = model.score_pass(state)[1]
        view = np.ascontiguousarray(gram.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(view, gram)
        step, _ = g.solve_rows(grad.copy(), view, state.U_latent,
                               state.penalty)
        want, _ = g.solve_rows(grad, gram, state.U_latent, state.penalty)
        np.testing.assert_array_equal(step, want)
        np.testing.assert_array_equal(view, gram)
        latent = state.index.n_latent
        assert np.all(np.diagonal(view, axis1=1, axis2=2)[:, -latent:]
                      != np.diagonal(model.score_pass(state)[1][1],
                                     axis1=1, axis2=2)[:, -latent:])

    def test_chunked_step_matches_unchunked_in_bounded_memory(
            self, monkeypatch):
        # K^2 > J and K^2 > N: taken two rows of Y at a time, the V step
        # matches one solve over all rows and holds little more than the
        # N x m² products of the design and the U system
        rng = np.random.default_rng(77)
        n, n_latent = 60, 40
        Y = rng.poisson(2.0, size=(n, n)).astype(float)
        state = g.build_model(Y, n_latent=n_latent, family=g.poisson(),
                              penalty=1.0)
        lat = state.index.latent_slice
        state.U[:, lat] = rng.normal(0.0, 0.3, (n, n_latent))
        state.V[:, lat] = rng.normal(0.0, 0.3, (n, n_latent))
        M = means(state)  # also the Poisson information weights
        cols = state.index.v_cols
        D = state.U[:, cols]
        lam = column_penalty(state, cols)
        m = len(cols)
        assert n * m * m > 28 * n * n
        products = (D[:, :, None] * D[:, None, :]).reshape(n, m * m)
        gram = (M @ products).reshape(n, m, m) + np.diag(lam)
        rhs = (state.Y - M) @ D - lam * state.V[:, cols]
        unchunked = np.linalg.solve(gram, rhs[..., None])[..., 0]
        before = state.V[:, cols].copy()
        monkeypatch.setattr(model, "CHUNK_ROWS", 2)
        tracemalloc.start()
        try:
            block_step(state, "V")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * products.nbytes
        step = state.V[:, cols] - before
        assert np.abs(step - unchunked).max() <= \
            1e-14 * np.abs(unchunked).max()

    def test_gaussian_one_step_is_ols(self):
        rng = np.random.default_rng(31)
        n_obs, n_feat = 30, 5
        X = np.column_stack([np.ones(n_obs), rng.normal(size=n_obs)])
        Y = rng.normal(size=(n_feat, n_obs))
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              obs_covariates=X[:, 1:])
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        fallbacks = block_step(state, "V")
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
                              offset=delta)
        state.started = True  # the zero latent block is a fixed point
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
                              intercept=False, feat_covariates=Z)
        state.U[:, state.index.latent_slice] = 0.0
        state.V[:, state.index.latent_slice] = 0.0
        assert block_step(state, "U") == 0
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
                           V=np.zeros((3, 3)), penalty=1e-4,
                           index=IndexSets(2, 0, 1))
        _, _, resid, info = model.row_weights(state, slice(None))
        expected, _ = rowwise_full_scoring(state, "V", info, resid, 1.0)
        fallbacks = block_step(state, "V")
        assert fallbacks == 3
        assert np.all(np.isfinite(state.A))
        # V started at zero, so V holds the steps
        np.testing.assert_allclose(state.V, expected, rtol=1e-12, atol=0)


class TestDegenerateColumns:
    """An unpenalized column whose partner column is all zero makes every
    Gram matrix of its block singular; the diagonal fallback handles it."""

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
        steps, u_rows = u_steps(state, model.score_pass(state)[1])
        rows = u_rows, optimizer._sweep(state, 1.0, steps)[2]
        # every U row fell back to the diagonal step, which leaves the
        # zero-pivot column as it was and moves the others
        assert rows == (state.n_obs, 0)
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
                "(rank-deficient latent product)") in result.warnings

    def test_fallback_rows_counted_in_warnings(self):
        rng = np.random.default_rng(103)
        n_obs, n_feat = 10, 4
        x = rng.normal(size=n_obs)
        state = tiny_state(rng.normal(size=(n_feat, n_obs)), g.gaussian(),
                           U=np.column_stack([x, x, np.zeros(n_obs)]),
                           V=np.zeros((n_feat, 3)), penalty=1e-4,
                           index=IndexSets(2, 0, 1))
        fit_state = copy.deepcopy(state)
        steps, u_rows = u_steps(state, model.score_pass(state)[1])
        rows = u_rows, optimizer._sweep(state, 1.0, steps)[2]
        assert rows == (0, n_feat)
        # the fit's own tally words them
        assert g.fit(fit_state, g.FitConfig(max_iters=1)).warnings == [
            f"block step fell back to diagonal for V rows (x{n_feat})",
            "1 latent dimension(s) have zero norm "
            "(rank-deficient latent product)"]


class TestFit:
    def test_gaussian_matches_truncated_svd(self):
        rng = np.random.default_rng(99)
        Y = rng.standard_normal((6, 12))
        state = g.build_model(Y, n_latent=2, family=g.gaussian(),
                              penalty=0.0)
        result = g.fit(state, g.FitConfig(max_iters=20000, tol=1e-14))
        assert result.converged
        scores, loadings = oracle.pca_reference(Y, 2)
        recon = state.V_latent @ state.U_latent.T
        assert np.linalg.norm(recon - loadings @ scores.T) <= 1e-6

    def test_gaussian_returns_pca_loadings_and_scores(self):
        # C3's data: the output is PCA's own, not just the same product
        Y = np.random.default_rng(42).standard_normal((20, 40))
        state = g.build_model(Y, n_latent=3, family=g.gaussian(),
                              penalty=0.0)
        result = g.fit(state, g.FitConfig(max_iters=20000, tol=1e-12))
        scores, loadings = oracle.pca_reference(Y, 3)
        signs = np.sign(np.sum(result.loadings * loadings, axis=0))
        for got, want in ((result.loadings, loadings),
                          (result.factors, scores)):
            err = np.linalg.norm(got * signs - want, axis=0)
            assert np.all(err <= 1e-4 * np.linalg.norm(want, axis=0))

    def test_saturated_start_converges_immediately(self):
        # gaussian, unpenalized: y == mu is a stationary point
        state = random_state(g.gaussian(), seed=8, penalty=0.0)
        state.Y = means(state)
        u0, v0 = state.U.copy(), state.V.copy()
        result = g.fit(state, g.FitConfig(max_iters=50, tol=1e-10))
        assert result.converged and result.iterations_run <= 2
        # postprocessing rewrites blocks, so compare against a re-run
        np.testing.assert_allclose(
            result.final_q,
            g.score_pass(ModelState(state.Y, state.family, u0, v0,
                                    state.delta, state.penalty,
                                    state.index))[0],
            rtol=0, atol=1e-10)

    def test_null_intercept_start_needs_no_first_halving(self):
        # counts with row effects, column sizes and a rank-2 signal: from
        # a zero intercept the first full sweep, which sets the residual
        # start of that wrong null point, overshoots and is halved once;
        # from the null fit build_model starts at, it is not
        rng = np.random.default_rng(1)
        R = (rng.normal(1.0, 0.5, (40, 1))
             + np.log(rng.gamma(4.0, 0.25, (1, 30)))
             + rng.normal(0, 0.5, (40, 2)) @ rng.normal(0, 0.5, (2, 30)))
        Y = rng.poisson(np.exp(R)).astype(float)
        one_sweep = g.FitConfig(max_iters=1)
        for zero_intercept, warnings in (
                (True, ["sweep step-halvings applied"]), (False, [])):
            state = g.build_model(Y, n_latent=2, family=g.poisson(),
                                  offset="auto")
            if zero_intercept:
                state.V[:, 0] = 0.0
            assert g.fit(state, one_sweep).warnings == warnings

    def test_saturated_integer_start_poisson(self):
        # default penalties with a zero latent block: counts equal to the
        # intercept means are a fixed point, nothing moves
        counts = np.array([2.0, 5.0, 1.0, 7.0])
        Y = np.tile(counts[:, None], (1, 9))
        state = g.build_model(Y, n_latent=1, family=g.poisson())
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

    @pytest.mark.parametrize("cfg, halvings, reason, converged", [
        (g.FitConfig(tol=1e-3), optimizer.MAX_HALVINGS, "tol", True),
        (g.FitConfig(max_iters=2, tol=1e-16), optimizer.MAX_HALVINGS,
         "max_iters", False),
        (g.FitConfig(), 0, "stalled", False),
    ], ids=["tol", "max_iters", "stalled"])
    def test_stop_reason(self, cfg, halvings, reason, converged,
                         monkeypatch):
        # from a zero intercept the first full-size sweep on these counts
        # lowers Q, so without halvings the fit stalls at once; with them
        # it converges.  fit reads the halving budget when it runs.
        monkeypatch.setattr(optimizer, "MAX_HALVINGS", halvings)
        Y = np.random.default_rng(0).poisson(5.0, size=(40, 30)).astype(float)
        state = g.build_model(Y, n_latent=2, family=g.poisson())
        state.V[:, 0] = 0.0
        q0 = g.score_pass(state)[0]
        result = g.fit(state, cfg)
        assert result.stop_reason == reason
        assert result.converged is converged
        if reason == "stalled":
            # the rejected sweep is undone: Q stays at the starting point,
            # and the latent blocks at zero, as build_model left them
            assert result.iterations_run == 1
            assert result.final_q == q0
            assert result.trace == [(1, q0)]
            assert result.warnings == [
                "sweep rejected after max halvings; stopped early",
                "2 latent dimension(s) have zero norm (rank-deficient "
                "latent product)"]
        else:
            assert not any("rejected" in w for w in result.warnings)

    def test_trace_has_one_row_per_sweep(self):
        state = random_state(g.poisson(), seed=92)
        result = g.fit(state, g.FitConfig(max_iters=5, tol=1e-16))
        assert [it for it, _ in result.trace] == [1, 2, 3, 4, 5]

    def test_trace_ends_on_the_last_sweep_at_max_iters(self):
        # every accepted sweep is traced, so the last one ends the trace
        state = random_state(g.poisson(), seed=93)
        result = g.fit(state, g.FitConfig(max_iters=2, tol=1e-16))
        assert not result.converged
        assert result.trace[-1] == (2, result.final_q)

    def test_nonfinite_objective_raises_fit_error(self):
        # from a zero intercept: the null fit's start would make the
        # starting Q non-finite
        Y = np.full((4, 8), 1e200)
        state = g.build_model(Y, n_latent=1, family=g.gaussian())
        state.V[:, 0] = 0.0
        with pytest.raises(FitError, match="halvings"):
            g.fit(state, g.FitConfig())

    @pytest.mark.parametrize("case, message", [
        ("huge offset", "non-finite at the starting point"),
        ("inf in U", "undefined at the starting point"),
        ("inf in V", "undefined at the starting point"),
        ("nan in delta", "undefined at the starting point"),
    ])
    def test_nonfinite_start_raises_fit_error(self, case, message):
        # the suite turns RuntimeWarnings into errors, so an overflow
        # leaking from the starting objective would fail this test
        Y = np.random.default_rng(0).normal(size=(5, 8))
        offset = np.full(8, 1e200) if case == "huge offset" else "none"
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              offset=offset)
        if case == "huge offset":
            # a zero intercept leaves the offset in R; the null fit's
            # intercept would cancel it
            state.V[:, 0] = 0.0
        elif case == "inf in U":
            state.U[0, -1] = np.inf
        elif case == "inf in V":
            state.V[0, -1] = np.inf
        elif case == "nan in delta":
            state.delta[0] = np.nan
        with pytest.raises(FitError, match=message):
            g.fit(state, g.FitConfig())

    def test_nonfinite_block_step_is_halved(self, monkeypatch):
        # a first attempt that leaves NaN in U is non-finite as a whole:
        # it is retried at half the step, and nothing raises
        state = random_state(g.poisson(), seed=77)
        scales = []
        real_sweep = optimizer._sweep

        def poisoned_sweep(state, scale, steps):
            out = real_sweep(state, scale, steps)
            if not scales:
                state.U[0, -1] = np.nan
            scales.append(scale)
            return out

        monkeypatch.setattr(optimizer, "_sweep", poisoned_sweep)
        result = g.fit(state, g.FitConfig(max_iters=5, tol=1e-14))
        assert scales[:2] == [1.0, 0.5]
        assert any(w.startswith("sweep step-halvings applied")
                   for w in result.warnings)
        qs = [q for _, q in result.trace]
        assert len(qs) == 5 and np.all(np.isfinite(qs))
        for prev, cur in zip(qs, qs[1:]):
            assert cur >= prev - 1e-12 * (1.0 + abs(prev))

    def test_rejected_attempt_fallbacks_not_counted(self, monkeypatch):
        # the sweep's one U solve and every attempt's V step report one
        # fallback row each, and the first attempt's NaN in U gets it
        # rejected and undone: only the accepted attempt's rows reach
        # the warnings, the U row once for the sweep
        state = random_state(g.poisson(), seed=77)
        real_sweep, real_solve = optimizer._sweep, optimizer.solve_rows
        solves, attempts = [], []

        def one_fallback_solve(*args):
            solves.append(True)
            return real_solve(*args)[0], 1

        def one_fallback_sweep(state, scale, steps):
            q, system, _ = real_sweep(state, scale, steps)
            if not attempts:
                state.U[0, -1] = np.nan
            attempts.append(scale)
            return q, system, 1

        monkeypatch.setattr(optimizer, "solve_rows", one_fallback_solve)
        monkeypatch.setattr(optimizer, "_sweep", one_fallback_sweep)
        result = g.fit(state, g.FitConfig(max_iters=1))
        assert len(solves) == 1 and attempts == [1.0, 0.5]
        assert result.warnings == [
            "block step fell back to diagonal for U rows",
            "block step fell back to diagonal for V rows",
            "sweep step-halvings applied"]

    def test_underflow_under_strict_errstate(self):
        # exp(-800) underflows to 0 and is clamped to the mean floor, so
        # a caller's np.errstate(all="raise") changes nothing in the fit
        Y = np.random.default_rng(0).poisson(3.0, size=(30, 20)).astype(float)
        Y[:, 0] = 0.0
        offset = np.zeros(20)
        offset[0] = -800.0

        def run():
            state = g.build_model(Y, n_latent=2, family=g.poisson(),
                                  offset=offset)
            return g.fit(state, g.FitConfig(max_iters=30, tol=1e-300))

        plain = run()
        with np.errstate(all="raise"):
            strict = run()
        assert plain.stop_reason == "max_iters"
        np.testing.assert_equal(dataclasses.asdict(strict),
                                dataclasses.asdict(plain))

    def test_result_contract(self):
        state = random_state(g.poisson(), seed=97, n_latent=2)
        result = g.fit(state, g.FitConfig(max_iters=200, tol=1e-8))
        n_obs, n_feat = state.n_obs, state.n_feat
        assert result.factors.shape == (n_obs, 2)
        assert result.loadings.shape == (n_feat, 2)
        assert result.coef_A.shape == (n_feat, 1)
        assert result.coef_Gamma.shape == (n_obs, 1)
        assert result.offset.shape == (n_obs,)
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(2), rtol=0, atol=1e-10)
        norms = np.linalg.norm(result.factors, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)
        assert result.final_q == pytest.approx(result.trace[-1][1])

    def test_rank_deficient_design_is_postprocessed(self, monkeypatch):
        # a duplicated covariate column cannot come out of build_model,
        # but a hand-built state is still fitted and postprocessed
        rng = np.random.default_rng(103)
        n_obs, n_feat = 10, 4
        x = rng.normal(size=n_obs)
        U = np.column_stack([x, x, rng.normal(0, 0.1, n_obs)])
        V = np.column_stack([np.zeros((n_feat, 2)),
                             rng.normal(0, 0.1, (n_feat, 1))])
        state = tiny_state(rng.normal(size=(n_feat, n_obs)), g.gaussian(),
                           U=U, V=V, penalty=1e-4, index=IndexSets(2, 0, 1))
        predictors, postprocess = [], optimizer.postprocess

        def watched(state):
            predictors.append(linear_predictor(state))
            out = postprocess(state)
            predictors.append(linear_predictor(state))
            return out

        monkeypatch.setattr(optimizer, "postprocess", watched)
        result = g.fit(state, g.FitConfig(max_iters=10, tol=1e-8))
        assert result.factors.shape == (n_obs, 1)
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(1), rtol=0, atol=1e-12)
        assert np.abs(state.X.T @ state.U_latent).max() <= 1e-10
        before, after = predictors
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-10)
        rebuilt = (result.coef_A @ state.X.T
                   + result.loadings @ result.factors.T)
        np.testing.assert_allclose(rebuilt, before, rtol=0, atol=1e-10)
        assert not any("skipped" in w for w in result.warnings)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            g.FitConfig(max_iters=0)
        with pytest.raises(ConfigError):
            g.FitConfig(tol=0.0)
        # bool is an int subclass, but True is no count and no tolerance
        with pytest.raises(ConfigError,
                           match="max_iters must be a positive integer"):
            g.FitConfig(max_iters=True)
        with pytest.raises(ConfigError,
                           match="tol must be a positive finite scalar"):
            g.FitConfig(tol=True)

    @pytest.mark.parametrize("field", ["max_iters"])
    def test_config_rejects_fractional_counts(self, field):
        # range() would raise a TypeError from inside fit instead
        with pytest.raises(ConfigError,
                           match=f"{field} must be a positive integer"):
            g.FitConfig(**{field: 2.5})
        assert getattr(g.FitConfig(**{field: np.int64(3)}), field) == 3


def rank_two_counts(n_feat=40, n_obs=30, seed=1):
    """Counts with row effects, column sizes and a rank-2 signal."""
    rng = np.random.default_rng(seed)
    R = (rng.normal(1.0, 0.5, (n_feat, 1))
         + np.log(rng.gamma(4.0, 0.25, (1, n_obs)))
         + rng.normal(0, 0.5, (n_feat, 2)) @ rng.normal(0, 0.5, (2, n_obs)))
    return rng.poisson(np.exp(R)).astype(float)


class TestResidualStart:
    """A state build_model returns starts at the weighted SVD of its null
    model's Pearson residuals, sketched in the fit's first pass and set
    by sweep 1."""

    def test_two_fits_are_bit_identical(self):
        Y = rank_two_counts()
        a, b = (g.fit(g.build_model(Y, n_latent=3, family=g.poisson(),
                                    offset="auto"))
                for _ in range(2))
        np.testing.assert_equal(dataclasses.asdict(a), dataclasses.asdict(b))

    @pytest.mark.parametrize("zero_intercept, scale", [(False, 1.0),
                                                       (True, 0.5)])
    def test_sweep_one_sets_the_scaled_start(self, zero_intercept, scale,
                                             monkeypatch):
        # the first pass sketches and builds no U system; sweep 1 sets the
        # latent blocks to the start times the step scale, solves no U
        # system and takes the V step.  From a zero intercept the full
        # start overshoots and is halved once.
        Y = rank_two_counts()
        state = g.build_model(Y, n_latent=2, family=g.poisson(),
                              offset="auto")
        if zero_intercept:
            state.V[:, 0] = 0.0
        ref = dataclasses.replace(state, U=state.U.copy(), V=state.V.copy())
        q0, sketch, fallbacks = model.score_pass(ref, sketch=True)
        assert fallbacks == 0 and sketch[0].shape == (40, 10)
        u_start, v_start = model.residual_start(sketch, 2)
        ref.U_latent[...] = scale * u_start
        ref.V_latent[...] = scale * v_start
        q1 = model.score_pass(ref, scale)[0]
        g.project_out_covariates(ref)

        solved = []
        monkeypatch.setattr(optimizer, "solve_rows",
                            lambda *args: solved.append(args))
        result = g.fit(state, g.FitConfig(max_iters=1))
        assert solved == [] and state.started
        assert result.trace == [(1, q1)] and q1 > q0
        np.testing.assert_array_equal(state.U, ref.U)
        np.testing.assert_array_equal(state.V, ref.V)

    @staticmethod
    def check_weighted_svd(feat_covariates):
        # with J <= k the sketch spans every row, so the one-pass range
        # finder returns the exact weighted rank-L SVD of the Pearson
        # residuals with the spans of X and Z projected out
        Y = rank_two_counts(n_feat=8, n_obs=15)
        state = g.build_model(Y, n_latent=2, family=g.poisson(),
                              feat_covariates=feat_covariates, offset="auto")
        _, _, resid, info = model.row_weights(state, slice(None))
        a = info.mean(axis=1)
        b = info.mean(axis=0) / info.mean()

        def complement(design):
            return np.eye(len(design)) - design @ np.linalg.pinv(design)

        pearson = complement(state.Z) @ (resid / np.sqrt(info)) \
            @ complement(state.X)
        p, s, w_t = np.linalg.svd(pearson)
        expected = (p[:, :2] * s[:2] / np.sqrt(a)[:, None]) @ \
            (w_t[:2] / np.sqrt(b))
        sketch = model.score_pass(state, sketch=True)[1]
        u_start, v_start = model.residual_start(sketch, 2)
        np.testing.assert_allclose(v_start @ u_start.T, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
        # the product is split evenly: both blocks carry sqrt(s)
        np.testing.assert_allclose(
            np.linalg.norm(v_start * np.sqrt(a)[:, None], axis=0),
            np.linalg.norm(u_start * np.sqrt(b)[:, None], axis=0),
            rtol=1e-12)

    def test_start_is_the_weighted_svd_of_the_pearson_residuals(self):
        self.check_weighted_svd(None)

    def test_start_with_z_is_the_weighted_svd_of_the_projected_residuals(
            self):
        self.check_weighted_svd(np.random.default_rng(4).normal(size=(8, 2)))

    def test_start_is_orthogonal_to_the_covariates(self):
        # an intercept, 2 observation and 2 feature covariates: the start
        # holds none of their effects, in the weights of the start
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        Z = rng.normal(size=(40, 2))
        state = g.build_model(rank_two_counts(), n_latent=2,
                              family=g.poisson(), obs_covariates=X,
                              feat_covariates=Z, offset="auto")
        q0, sketch, _ = model.score_pass(state, sketch=True)
        u_start, v_start = model.residual_start(sketch, 2)
        a, col_sums = sketch[2], sketch[3]
        weighted_u = np.sqrt(col_sums / col_sums.mean())[:, None] * u_start
        weighted_v = np.sqrt(a)[:, None] * v_start
        assert state.X.shape == (30, 3) and state.Z.shape == (40, 2)
        for design, weighted in ((state.X, weighted_u), (state.Z, weighted_v)):
            assert np.abs(design.T @ weighted).max() <= 1e-12 * (
                np.linalg.norm(design) * np.linalg.norm(weighted))
        assert np.linalg.norm(weighted_u) > 0 and np.isfinite(q0)

    def test_start_without_designs_is_the_unprojected_sketch(self):
        # no intercept and no covariates: no QR is taken, and the start is
        # bit for bit the weighted SVD of the sketch of E itself
        state = g.build_model(rank_two_counts(), n_latent=2,
                              family=g.poisson(), intercept=False)
        assert state.index.n_obs_cov == state.index.n_feat_cov == 0
        sketch = model.score_pass(state, sketch=True)[1]
        omega = model.sketch_matrix(30, 2 + model.OVERSAMPLE)  # expected
        _, _, resid, info = model.row_weights(state, slice(None))
        pearson = resid / np.sqrt(info)
        t = pearson @ omega
        np.testing.assert_array_equal(sketch[0], t)
        np.testing.assert_array_equal(sketch[1], pearson.T @ t)
        for got, want in zip(model.residual_start(sketch, 2),
                             model.residual_start(
                                 (t, pearson.T @ t) + sketch[2:], 2)):
            np.testing.assert_array_equal(got, want)

    def test_residual_of_rank_below_l_gives_a_zero_pair(self):
        # two distinct rows: the null model's residual has rank 2, so
        # the third latent pair starts at zero, stays there and is named
        rng = np.random.default_rng(3)
        rows = rng.poisson(4.0, (2, 12)).astype(float)
        Y = rows[[0, 1, 0, 1, 0, 1]]
        state = g.build_model(Y, n_latent=3, family=g.poisson())
        result = g.fit(state, g.FitConfig(max_iters=50))
        assert result.stop_reason in ("tol", "max_iters")
        assert not state.U_latent[:, 2].any()
        assert not state.V_latent[:, 2].any()
        assert np.all(np.linalg.norm(state.U_latent[:, :2], axis=0) > 0)
        assert ("1 latent dimension(s) have zero norm "
                "(rank-deficient latent product)") in result.warnings

    def test_hand_built_zero_latent_state_stays_at_zero(self):
        # C4's fixed point: a hand-built state is fit from its own blocks,
        # and all-zero latent blocks are never moved
        Y = rank_two_counts()
        built = g.build_model(Y, n_latent=2, family=g.poisson(),
                              offset="auto")
        state = ModelState(built.Y, built.family, built.U, built.V,
                           built.delta, built.penalty, built.index)
        result = g.fit(state, g.FitConfig(max_iters=20))
        assert not state.U_latent.any() and not state.V_latent.any()
        assert ("2 latent dimension(s) have zero norm "
                "(rank-deficient latent product)") in result.warnings

    def test_second_fit_does_not_start_again(self, monkeypatch):
        starts = []
        real = optimizer.residual_start
        monkeypatch.setattr(optimizer, "residual_start",
                            lambda *args: starts.append(1) or real(*args))
        state = g.build_model(rank_two_counts(), n_latent=2,
                              family=g.poisson(), offset="auto")
        first = g.fit(state, g.FitConfig(max_iters=2, tol=1e-300))
        latent = state.U_latent.copy()
        assert starts == [1] and state.started and latent.any()
        second = g.fit(state, g.FitConfig(max_iters=1, tol=1e-300))
        assert starts == [1]
        assert second.final_q >= first.final_q
