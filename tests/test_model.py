"""Tests for model construction, the objective, and its derivatives."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

import glmpca as g
from glmpca import ConfigError, DataError, model
from glmpca.families import MEAN_CEIL, MEAN_FLOOR, PROB_CEIL, PROB_FLOOR
from glmpca.model import (CHUNK_ROWS, IndexSets, ModelState, resolve_offset,
                          sketch_matrix)
import oracle

from conftest import (ALL_FAMILIES, block_system, gradient, gram_diagonal,
                      means, own_block, random_state)


class TestIndexSets:
    def test_blocks_tile_the_columns(self):
        idx = IndexSets(2, 3, 4)
        cols = range(idx.n_total)
        obs, feat = cols[idx.obs_slice], cols[idx.feat_slice]
        latent = cols[idx.latent_slice]
        assert list(obs) + list(feat) + list(latent) == list(cols)
        assert set(idx.u_cols) == set(feat) | set(latent)
        assert set(idx.v_cols) == set(obs) | set(latent)
        assert not set(obs) & set(feat)

    @pytest.mark.parametrize("n_latent", [1, 4])
    @pytest.mark.parametrize("n_obs_cov, n_feat_cov",
                             [(0, 0), (1, 0), (3, 2), (0, 2)])
    def test_column_sets_the_pass_slices(self, n_obs_cov, n_feat_cov,
                                         n_latent):
        # score_pass takes U's updateable columns as the slice
        # n_obs_cov:n_total, and V's as 0:n_total exactly when there is
        # no feature covariate
        idx = IndexSets(n_obs_cov, n_feat_cov, n_latent)
        assert idx.u_cols == list(range(n_obs_cov, idx.n_total))
        assert (idx.v_cols == list(range(idx.n_total))) == (n_feat_cov == 0)

    def test_latent_required(self):
        with pytest.raises(ConfigError):
            IndexSets(1, 1, 0)

    def test_negative_covariate_count_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            IndexSets(-1, 0, 1)


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

    @pytest.mark.parametrize("kind", ["complex", "string"])
    def test_non_real_data_rejected(self, kind):
        # a cast to float would drop the imaginary part, or parse text
        Y = np.ones((5, 10)) + (1j if kind == "complex" else 0)
        if kind == "string":
            Y = Y.astype(str)
            Y[2, 3] = "two"
        with pytest.raises(DataError, match="data must hold real numbers"):
            g.build_model(Y, n_latent=1, family=g.poisson())

    def test_shape_minimums(self):
        with pytest.raises(DataError):
            g.check_data_matrix(np.ones((2, 1)), g.gaussian())
        with pytest.raises(DataError):
            g.check_data_matrix(np.ones(4), g.gaussian())

    def test_bad_cell_past_the_first_chunk_names_its_row(self):
        Y = np.ones((3 * CHUNK_ROWS, 4))
        Y[CHUNK_ROWS + 4, 2] = 0.5
        with pytest.raises(DataError, match=(
                rf"invalid entry 0\.5 at row {CHUNK_ROWS + 5}, column 3: "
                "poisson data must be a nonnegative integer")):
            g.check_data_matrix(Y, g.poisson())

    def test_first_chunk_holding_a_bad_cell_wins(self):
        # a NaN is reported before a negative count in its own chunk,
        # but not before one in an earlier chunk
        Y = np.ones((2 * CHUNK_ROWS, 4))
        Y[CHUNK_ROWS + 1, 0] = np.nan
        Y[CHUNK_ROWS + 3, 1] = -1.0
        with pytest.raises(DataError, match=(
                rf"nan at row {CHUNK_ROWS + 2}, column 1: non-finite")):
            g.check_data_matrix(Y, g.poisson())
        Y[1, 3] = -1.0
        with pytest.raises(DataError, match=(
                r"-1\.0 at row 2, column 4: poisson data must be")):
            g.check_data_matrix(Y, g.poisson())

    def test_check_and_start_make_no_jxn_temporary(self):
        # 4000 rows are 32 chunks: a chunk's masks and np.floor are about
        # 1/20 of Y, one J x N temporary would be 1 (a mask 1/8)
        Y = np.random.default_rng(11).poisson(2.0, (4000, 200)).astype(float)
        tracemalloc.start()
        try:
            state = g.build_model(Y, n_latent=3, family=g.poisson(),
                                  offset="auto")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.Y is Y
        assert peak < 0.1 * Y.nbytes

    def test_fortran_ordered_data_fits_as_c_ordered(self):
        # every chunk of the fit reads whole rows of Y, so an F-ordered
        # Y (pandas' .values, for one) is made C-ordered once, and fits
        # bit for bit as its C-ordered copy; a C-ordered Y is not copied
        Y = np.random.default_rng(12).poisson(2.0, (40, 30)).astype(float)
        assert np.shares_memory(g.check_data_matrix(Y, g.poisson()), Y)
        results = []
        for data in (Y, np.asfortranarray(Y)):
            state = g.build_model(data, n_latent=2, family=g.poisson(),
                                  offset="auto")
            assert state.Y.flags.c_contiguous
            results.append(g.fit(state, g.FitConfig(max_iters=20)))
        assert results[0].iterations_run > 1
        np.testing.assert_equal(vars(results[1]), vars(results[0]))


class TestBuildModel:
    def test_docstring_parameters_match_signature(self):
        # each "name : type" line of the Parameters section, in order
        doc = inspect.getdoc(g.build_model)
        section = doc.split("Parameters\n----------\n", 1)[1]
        documented = [name for names in re.findall(
            r"^(\w+(?:, \w+)*) :", section, flags=re.MULTILINE)
            for name in names.split(", ")]
        assert documented == list(inspect.signature(g.build_model).parameters)

    def test_default_shapes_and_intercept(self):
        Y = np.arange(50.0).reshape(5, 10) % 4
        Y[0] = 0.0
        state = g.build_model(Y, n_latent=2, family=g.poisson())
        assert state.U.shape == (10, 3)
        assert state.V.shape == (5, 3)
        np.testing.assert_array_equal(state.U[:, 0], np.ones(10))
        # the null fit without an offset: the log of each row's mean, the
        # all-zero row's clipped to the mean floor
        expected = np.log(np.maximum(Y.mean(axis=1), MEAN_FLOOR))
        np.testing.assert_allclose(state.A[:, 0], expected, rtol=1e-15,
                                   atol=0)

    def test_offset_policy_none_gives_zeros(self):
        state = g.build_model(np.zeros((5, 10)), n_latent=1,
                              family=g.poisson(), offset="none")
        np.testing.assert_array_equal(state.delta, np.zeros(10))

    def test_latent_blocks_start_at_zero_unstarted(self):
        # the residual start is left to the fit's first sweep
        Y = np.arange(50.0).reshape(5, 10) % 4
        state = g.build_model(Y, n_latent=2, family=g.poisson())
        assert not state.started
        np.testing.assert_array_equal(state.U_latent, 0.0)
        np.testing.assert_array_equal(state.V_latent, 0.0)
        # a hand-built state is fit from its own blocks
        assert ModelState(state.Y, state.family, state.U, state.V,
                          state.delta, state.penalty, state.index).started

    def test_sketch_matrix_is_fixed_and_centered(self):
        omega = sketch_matrix(1000, 12)
        np.testing.assert_array_equal(omega, sketch_matrix(1000, 12))
        # splitmix64 from state 0: its first output is 0xe220a8397b1dcdaf
        assert omega[0, 0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53 - 0.5
        assert np.all((omega >= -0.5) & (omega < 0.5))
        assert abs(omega.mean()) < 0.01
        # columns far from collinear: the range finder needs full rank
        assert np.linalg.cond(omega) < 1.5

    def test_rank_deficient_designs_rejected(self):
        Y = np.zeros((6, 10))
        dup = np.ones((10, 1))  # duplicates the intercept column
        with pytest.raises(ConfigError, match="rank deficient"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          obs_covariates=dup)
        zcol = np.zeros((6, 1))
        with pytest.raises(ConfigError, match="rank deficient"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          feat_covariates=zcol)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(obs_covariates=np.ones((9, 1))), "obs_covariates must be a "
         "matrix with 10 rows"),
        (dict(feat_covariates=[[0.0], [np.nan], [1.0], [2.0], [3.0]]),
         "feat_covariates contains non-finite values"),
        (dict(n_latent=1.5), "n_latent must be a positive integer"),
        (dict(n_latent=True), "n_latent must be a positive integer"),
        (dict(penalty=True), "penalty must be a nonnegative finite scalar"),
    ], ids=["short_covariates", "nan_covariate", "fractional_n_latent",
            "bool_n_latent", "bool_penalty"])
    def test_bad_argument_rejected(self, kwargs, message):
        args = dict(n_latent=1, family=g.poisson()) | kwargs
        with pytest.raises(ConfigError, match=message):
            g.build_model(np.zeros((5, 10)), **args)

    @pytest.mark.parametrize("kind", ["complex", "string"])
    @pytest.mark.parametrize("name, n_rows", [("obs_covariates", 10),
                                              ("feat_covariates", 5)])
    def test_non_real_covariates_rejected(self, name, n_rows, kind):
        design = np.arange(n_rows, dtype=float)[:, None] ** [1, 2]
        if kind == "complex":
            design = design + 1j
        else:
            design = design.astype(object)
            design[1, 0] = "one"
        with pytest.raises(ConfigError,
                           match=f"{name} must hold real numbers"):
            g.build_model(np.ones((5, 10)), n_latent=1, family=g.poisson(),
                          **{name: design})

    @pytest.mark.parametrize("kind", ["complex", "string"])
    def test_non_real_offset_rejected(self, kind):
        offset = (np.zeros(10) + 1j if kind == "complex"
                  else ["0.5"] * 10)
        with pytest.raises(ConfigError, match="offset must hold real numbers"):
            g.build_model(np.ones((5, 10)), n_latent=1, family=g.poisson(),
                          offset=offset)

    def test_covariate_vector_is_one_column(self):
        z = np.arange(5.0)
        state = g.build_model(np.zeros((5, 10)), n_latent=1,
                              family=g.poisson(), feat_covariates=z)
        assert state.index.n_feat_cov == 1
        np.testing.assert_array_equal(state.Z, z[:, None])

    def test_too_many_dimensions_rejected(self):
        Y = np.zeros((4, 10))
        with pytest.raises(ConfigError, match="min"):
            g.build_model(Y, n_latent=3, family=g.poisson())

    def test_penalty_defaults_and_layout(self):
        state = g.build_model(np.zeros((5, 10)), n_latent=2,
                              family=g.poisson())
        assert state.penalty == 1e-4
        # X, Z, A and Gamma all nonzero: the fit's systems carry no ridge,
        # and solve_rows adds lambda to the latent columns of the
        # gradient and the Gram diagonal, and only those
        lam = 0.7
        base = random_state(g.poisson(), seed=12, penalty=0.0)
        pen = random_state(g.poisson(), seed=12, penalty=lam)
        for block in (base.X, base.Z, base.A, base.Gamma):
            assert np.all(block != 0)
        latent = base.index.latent_slice
        for block in ("U", "V"):
            own, cols = own_block(base, block)
            n_coef = len(cols) - base.index.n_latent
            grad, gram = block_system(base, block)
            for part, again in zip((grad, gram), block_system(pen, block)):
                np.testing.assert_array_equal(again, part)
            rhs = grad.copy()
            rhs[:, n_coef:] -= lam * own[:, latent]
            gram_before = gram.copy()
            ridge = np.zeros_like(gram[0])
            ridge[n_coef:, n_coef:] = lam * np.eye(base.index.n_latent)
            expected = np.linalg.solve(gram + ridge, rhs[..., None])[..., 0]
            step, fallbacks = model.solve_rows(grad, gram, own[:, latent], lam)
            assert fallbacks == 0
            np.testing.assert_allclose(step, expected, rtol=1e-13, atol=0)
            # the system is penalized in place, to the one solved
            np.testing.assert_array_equal(grad, rhs)
            np.testing.assert_array_equal(gram, gram_before + ridge)

    @pytest.mark.parametrize(
        "penalty", [-1.0, np.nan, np.inf, [0.5], np.array([0.5, 0.25]),
                    "1e-4"],
        ids=["negative", "nan", "inf", "list", "array", "string"])
    def test_penalty_rejected(self, penalty):
        with pytest.raises(ConfigError, match="penalty"):
            g.build_model(np.zeros((5, 10)), n_latent=2, family=g.poisson(),
                          penalty=penalty)

    @pytest.mark.parametrize("penalty", [0, 2, np.float64(0.3)],
                             ids=["int-zero", "int", "numpy-float"])
    def test_penalty_accepted(self, penalty):
        state = g.build_model(np.zeros((5, 10)), n_latent=2,
                              family=g.poisson(), penalty=penalty)
        assert type(state.penalty) is float
        assert state.penalty == penalty

    def test_auto_offset_log_link(self):
        rng = np.random.default_rng(0)
        Y = rng.poisson(3.0, (6, 12)).astype(float) + 1.0
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              offset="auto")
        colsums = Y.sum(axis=0)
        np.testing.assert_allclose(state.delta,
                                   np.log(colsums / colsums.mean()))

    def test_auto_offset_identity_link(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(6, 12))
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              offset="auto")
        np.testing.assert_allclose(state.delta, Y.mean(axis=0))

    def test_auto_offset_rejected_for_logit(self):
        Y = np.zeros((6, 12))
        with pytest.raises(ConfigError, match="auto offset"):
            g.build_model(Y, n_latent=1, family=g.bernoulli(),
                          offset="auto")

    def test_auto_offset_zero_column_rejected(self):
        Y = np.ones((4, 8))
        Y[:, 3] = 0.0
        with pytest.raises(ConfigError, match="column 4"):
            resolve_offset("auto", Y, g.poisson())

    def test_explicit_offset_validated(self):
        Y = np.zeros((4, 8))
        with pytest.raises(ConfigError, match="length"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          offset=np.zeros(5))
        with pytest.raises(ConfigError, match="non-finite"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          offset=np.full(8, np.inf))
        with pytest.raises(ConfigError, match="unknown offset policy"):
            g.build_model(Y, n_latent=1, family=g.poisson(),
                          offset="bogus")


# each taker of a scalar option, called with that option alone set
OPTION_TAKERS = {
    "Family": lambda **kw: g.Family("negative_binomial", **kw),
    "FitConfig": g.FitConfig,
    "IndexSets": lambda **kw: IndexSets(
        **(dict(n_obs_cov=0, n_feat_cov=0, n_latent=1) | kw)),
    "build_model": lambda **kw: g.build_model(
        np.ones((5, 10)), **(dict(n_latent=1, family=g.poisson())
                             | kw)),
}


class TestScalarOptions:
    """Every scalar option is held to one rule (check_option): a finite
    number, not a bool, an integer where one is asked for, and positive
    or nonnegative as the option needs."""

    @pytest.mark.parametrize("taker, name, value", [
        ("Family", "dispersion", True),
        ("Family", "dispersion", "2"),
        ("Family", "dispersion", None),
        ("FitConfig", "tol", "x"),
        ("FitConfig", "tol", None),
        ("FitConfig", "tol", np.inf),
        ("FitConfig", "max_iters", np.bool_(True)),
        ("IndexSets", "n_latent", True),
        ("IndexSets", "n_obs_cov", 1.0),
        ("IndexSets", "n_feat_cov", np.nan),
        ("build_model", "penalty", 10**400),
    ], ids=["bool_dispersion", "string_dispersion", "missing_dispersion",
            "string_tol", "none_tol", "infinite_tol", "numpy_bool_max_iters",
            "bool_index_latent", "float_obs_count", "nan_feat_count",
            "huge_int_penalty"])
    def test_bad_value_rejected_naming_option(self, taker, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a ") as err:
            OPTION_TAKERS[taker](**{name: value})
        assert str(err.value).endswith(f", got {value!r}")

    def test_good_values_build_and_fit(self):
        family = g.negative_binomial(np.float32(2.0))
        config = g.FitConfig(max_iters=np.int64(3), tol=np.float32(1e-3))
        Y = np.ones((6, 10)) + np.eye(6, 10)
        state = g.build_model(Y, n_latent=np.int64(1), family=family,
                              penalty=0)
        # each stored as a Python number
        stored = [(family.dispersion, float), (config.max_iters, int),
                  (config.tol, float), (state.penalty, float),
                  (state.index.n_latent, int)]
        assert [type(value) for value, _ in stored] == \
            [kind for _, kind in stored]
        assert state.penalty == 0.0 and config.tol == np.float32(1e-3)
        result = g.fit(state, config)
        assert np.isfinite(result.final_q) and result.iterations_run <= 3


class TestInterceptStart:
    """build_model starts the intercept at the null fit of each row given
    the offset, and every other coefficient at zero."""

    @staticmethod
    def fit_is_monotone(state):
        result = g.fit(state, g.FitConfig(max_iters=30, tol=1e-9))
        qs = [q for _, q in result.trace]
        assert np.all(np.isfinite(qs))
        for prev, cur in zip(qs, qs[1:]):
            assert cur >= prev - 1e-12 * (1.0 + abs(prev))

    @pytest.mark.parametrize("family", [g.poisson(), g.negative_binomial(2.0)],
                             ids=lambda f: f.kind)
    def test_all_zero_count_row_is_clipped(self, family):
        rng = np.random.default_rng(21)
        Y = rng.poisson(3.0, (8, 12)).astype(float)
        Y[2] = 0.0
        delta = rng.normal(0.0, 0.5, 12)
        state = g.build_model(Y, n_latent=1, family=family, offset=delta)
        log_mean_exp = np.log(np.mean(np.exp(delta)))
        assert state.A[2, 0] == pytest.approx(
            np.log(MEAN_FLOOR) - log_mean_exp, rel=1e-14)
        self.fit_is_monotone(state)

    def test_bernoulli_constant_rows_are_clipped(self):
        rng = np.random.default_rng(22)
        Y = rng.binomial(1, 0.4, (8, 12)).astype(float)
        Y[0], Y[1] = 1.0, 0.0
        Y[2, :3] = 1.0
        Y[2, 3:] = 0.0
        state = g.build_model(Y, n_latent=1, family=g.bernoulli())
        p = np.array([PROB_CEIL, PROB_FLOOR, 0.25])
        np.testing.assert_allclose(state.A[:3, 0], np.log(p) - np.log1p(-p),
                                   rtol=1e-12, atol=0)
        self.fit_is_monotone(state)

    def test_gaussian_start_is_the_mean_residual(self):
        rng = np.random.default_rng(23)
        Y = rng.normal(2.0, 1.0, (6, 10))
        delta = rng.normal(0.0, 3.0, 10)
        state = g.build_model(Y, n_latent=1, family=g.gaussian(),
                              offset=delta)
        np.testing.assert_allclose(state.A[:, 0], np.mean(Y - delta, axis=1),
                                   rtol=1e-13, atol=1e-15)
        with np.errstate(all="raise"):  # no sum of the offsets overflows
            huge = g.build_model(Y, n_latent=1, family=g.gaussian(),
                                 offset=np.full(10, 1e308))
        np.testing.assert_allclose(huge.A[:, 0], -1e308, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_without_intercept_every_coefficient_starts_at_zero(self,
                                                                family):
        # and the latent blocks start at zero, with or without it
        rng = np.random.default_rng(24)
        Y = rng.binomial(1, 0.5, (6, 10)).astype(float)
        X = rng.normal(size=(10, 2))
        plain = g.build_model(Y, n_latent=2, family=family,
                              obs_covariates=X, intercept=False)
        start = g.build_model(Y, n_latent=2, family=family,
                              obs_covariates=X)
        np.testing.assert_array_equal(plain.A, np.zeros((6, 2)))
        np.testing.assert_array_equal(start.A[:, 1:], np.zeros((6, 2)))
        np.testing.assert_array_equal(plain.U_latent, start.U_latent)
        np.testing.assert_array_equal(plain.V_latent, start.V_latent)

    @pytest.mark.parametrize("offsets", [(-800.0, 800.0), (-800.0, -800.0),
                                         (800.0, 0.0)],
                             ids=["both", "all-low", "high"])
    def test_poisson_start_zeroes_the_intercept_score(self, offsets):
        # sum_i (y_ij - exp(a_j + delta_i)) = 0: the start is the exact
        # null fit, with no overflow from any offset
        rng = np.random.default_rng(25)
        Y = rng.poisson(4.0, (7, 12)).astype(float)
        delta = rng.normal(0.0, 0.5, 12)
        delta[:6] += offsets[0]
        delta[6:] += offsets[1]
        with np.errstate(all="raise"):
            state = g.build_model(Y, n_latent=1, family=g.poisson(),
                                  offset=delta)
        with np.errstate(under="ignore"):
            fitted = np.exp(state.A[:, 0][:, None] + delta[None, :])
        rowsums = Y.sum(axis=1)
        np.testing.assert_allclose(fitted.sum(axis=1), rowsums, rtol=1e-10,
                                   atol=0)


class TestLinearPredictor:
    def test_all_zero(self):
        state = g.build_model(np.zeros((3, 6)), n_latent=1,
                              family=g.gaussian(), intercept=False)
        state.U[...] = 0.0
        state.V[...] = 0.0
        np.testing.assert_array_equal(model.linear_predictor(state),
                                      np.zeros((3, 6)))

    def test_rank_one_rows(self):
        state = g.build_model(np.zeros((3, 6)), n_latent=1,
                              family=g.gaussian(), intercept=False)
        u = np.arange(6.0)
        state.U[:, 0] = u
        state.V[:, 0] = 1.0
        R = model.linear_predictor(state)
        for j in range(3):
            np.testing.assert_array_equal(R[j], u)

    def test_matches_brute_force_triple_loop(self):
        state = random_state(g.gaussian(), seed=21, n_feat=3, n_obs=4,
                             n_latent=1, with_feat_cov=False)
        R = model.linear_predictor(state)
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
        np.testing.assert_allclose(model.linear_predictor(state), blockwise,
                                   rtol=0, atol=1e-12)

    @staticmethod
    def assert_matches_product(R, V, U, delta):
        """R is V U' + 1 delta' to within 4 eps max|R|: the offset enters
        the one GEMM as a column, so only the order of its sum differs."""
        expected = V @ U.T + delta[None, :]
        bound = 4 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(R - expected).max() <= bound

    def test_offset_rides_in_the_product(self):
        # K = 7 columns (intercept, Z, five latent) and a non-zero offset
        state = random_state(g.poisson(), seed=6, n_feat=12, n_obs=257,
                             n_latent=5)
        state.delta[:] = np.random.default_rng(6).normal(0.0, 2.0, 257)
        assert state.index.n_total == 7 and np.all(state.delta != 0)
        self.assert_matches_product(model.linear_predictor(state), state.V,
                                    state.U, state.delta)

    @pytest.mark.parametrize("v_scale", [None, 0.5], ids=["score", "step"])
    def test_every_chunk_of_a_pass(self, v_scale, monkeypatch):
        # chunks of 4 rows over J = 10 end on a tail of 2: no row of an
        # earlier chunk's operands may reach the tail's R, in the first
        # pass or in a second one; with a step, each build sees the V
        # rows it was called with.  N // (m (m + 1)) = 257 // 42 puts all
        # three chunks in one group: each is built for the group's V step,
        # then each again to score it
        monkeypatch.setattr(model, "CHUNK_ROWS", 4)
        state = random_state(g.bernoulli(), seed=7, n_feat=10, n_obs=257,
                             n_latent=5)
        real = model.linear_predictor
        builds = []

        def checked(state, rows, out=None):
            V = state.V[rows].copy()
            R = real(state, rows, out)
            self.assert_matches_product(R, V, state.U, state.delta)
            builds.append((rows.start, len(R)))
            return R

        monkeypatch.setattr(model, "linear_predictor", checked)
        for _ in range(2):
            model.score_pass(state, v_scale)
        chunks = [(0, 4), (4, 4), (8, 2)]
        per_pass = chunks if v_scale is None else chunks + chunks
        assert builds == 2 * per_pass


class TestObjective:
    def test_poisson_closed_form_at_zero(self):
        Y = np.array([[3.0, 0.0], [1.0, 2.0]])
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              intercept=False, penalty=0.0)
        state.U[...] = 0.0
        state.V[...] = 0.0
        assert model.score_pass(state)[0] == pytest.approx(-4.0)

    def test_penalty_arithmetic(self):
        # X, Z, A and Gamma all nonzero; the ridge term of Q is
        # lambda/2 (|U_latent|^2 + |V_latent|^2) and nothing else
        base = random_state(g.poisson(), seed=14, penalty=0.0)
        withpen = random_state(g.poisson(), seed=14, penalty=2.0)
        for block in (base.X, base.Z, base.A, base.Gamma):
            assert np.all(block != 0)
        ridge = np.sum(base.U_latent ** 2) + np.sum(base.V_latent ** 2)
        q_gap = model.score_pass(withpen)[0] - model.score_pass(base)[0]
        assert q_gap == pytest.approx(-0.5 * 2.0 * ridge, rel=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_matches_scalar_loop(self, family):
        state = random_state(family, seed=31, n_feat=5, n_obs=6)
        assert model.score_pass(state)[0] == pytest.approx(
            oracle.scalar_objective(state), abs=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_no_data_or_mean_rescan(self, family, monkeypatch):
        # Y is checked by build_model and the means are clamped, so the
        # objective must not run either check again
        state = random_state(family, seed=33, n_feat=5, n_obs=6)
        expected = model.score_pass(state)[0]

        def boom(*args):
            raise AssertionError("validation ran inside the objective")

        monkeypatch.setattr(g.Family, "_outside_support", boom)
        monkeypatch.setattr(g.Family, "_check_mean_domain", boom)
        assert model.score_pass(state)[0] == expected

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_strict_error_state_changes_nothing(self, family):
        # an intercept of -800 (+800 for the logit) takes every mean to a
        # clamp through an exp that underflows; the objective clamps it
        # whatever the caller's np.seterr
        state = random_state(family, seed=37, n_feat=30, n_obs=20)
        state.V[:, 0] = 800.0 if family.link == "logit" else -800.0
        plain = model.score_pass(state)[0]
        with np.errstate(all="raise"):
            strict = model.score_pass(state)[0]
        assert np.isfinite(plain)
        assert strict == plain

    def test_zero_penalty_ignores_huge_latent_factors(self):
        # U_latent = 1e160 with V_latent = 1e-160 builds the R of
        # U_latent = V_latent = 1; their squares overflow, but with no
        # ridge they must not reach Q as 0 * inf
        Y = np.random.default_rng(37).poisson(2.0, (5, 8)).astype(float)
        qs = []
        for u, v in ((1.0, 1.0), (1e160, 1e-160)):
            state = g.build_model(Y, n_latent=1, family=g.poisson(),
                                  penalty=0.0)
            state.U[:, state.index.latent_slice] = u
            state.V[:, state.index.latent_slice] = v
            qs.append(model.score_pass(state)[0])
        assert np.isfinite(qs[1])
        assert qs[1] == pytest.approx(qs[0], rel=1e-14)


class TestGradients:
    def test_canonical_single_cell(self):
        # one cell, y = 2 and mu = 1 under the log link, loading 1:
        # the gradient reduces to (y - mu) * v = 1
        idx = IndexSets(0, 0, 1)
        state = ModelState(
            Y=np.array([[2.0]]), family=g.poisson(),
            U=np.array([[0.0]]), V=np.array([[1.0]]),
            delta=np.zeros(1), penalty=0.0, index=idx)
        np.testing.assert_allclose(gradient(state, "U"), [[1.0]])

    def test_zero_at_saturated_fit(self):
        state = random_state(g.gaussian(), seed=8, penalty=0.0)
        state.Y = means(state)
        for block in ("U", "V"):
            np.testing.assert_allclose(gradient(state, block), 0.0,
                                       atol=1e-12)

    def test_poisson_matches_finite_difference(self):
        state = random_state(g.poisson(), seed=13, n_feat=4, n_obs=3,
                             n_latent=1, with_feat_cov=False)
        grad = gradient(state, "U")
        for j, k in enumerate(state.index.u_cols):
            fd = oracle.finite_diff_gradient(state, "U", k)
            np.testing.assert_allclose(grad[:, j], fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_gradient_check_all_families(self, family):
        for seed in range(20):
            state = random_state(family, seed=500 + seed, n_feat=5, n_obs=7)
            for block, cols in (("U", state.index.u_cols),
                                ("V", state.index.v_cols)):
                grad = gradient(state, block)
                for j, k in enumerate(cols):
                    fd = oracle.finite_diff_gradient(state, block, k)
                    np.testing.assert_allclose(grad[:, j], fd,
                                               rtol=1e-4, atol=1e-6)


class TestClampedMeans:
    """Where a mean sits at its clamp, the objective is flat in R, but the
    gradient keeps the pull y - M with M the clamp value."""

    def clamped_state(self, family, Y, intercepts):
        state = g.build_model(Y, n_latent=1, family=family)
        state.V[:, 0] = intercepts  # the intercept column of A
        return state

    def assert_flat(self, state, rows):
        q = model.score_pass(state)[0]
        state.V[rows, 0] += 1.0
        assert model.score_pass(state)[0] == q

    def test_poisson_gradient_at_mean_ceiling(self):
        Y = np.random.default_rng(2).poisson(3.0, (4, 5)).astype(float)
        state = self.clamped_state(g.poisson(), Y, [30.0, 0.5, 1.0, 1.5])
        assert np.all(means(state)[0] == MEAN_CEIL)
        grad = gradient(state, "V")[:, 0]  # the intercept column of A
        assert grad[0] == pytest.approx(np.sum(Y[0] - MEAN_CEIL), rel=1e-12)
        assert grad[0] == pytest.approx(-5e10, rel=1e-9)
        self.assert_flat(state, 0)

    def test_bernoulli_gradient_at_probability_clamps(self):
        Y = np.array([[0, 1, 0, 1, 1], [1, 0, 1, 0, 0],
                      [0, 1, 1, 0, 1], [1, 1, 0, 0, 1]], dtype=float)
        state = self.clamped_state(g.bernoulli(), Y, [30.0, -30.0, 0.2, -0.2])
        M = means(state)
        assert np.all(M[0] == PROB_CEIL) and np.all(M[1] == PROB_FLOOR)
        grad = gradient(state, "V")[:, 0]  # the intercept column of A
        assert grad[0] == pytest.approx(np.sum(Y[0] - PROB_CEIL), rel=1e-12)
        assert grad[1] == pytest.approx(np.sum(Y[1] - PROB_FLOOR), rel=1e-12)
        self.assert_flat(state, [0, 1])


class TestFisherInformation:
    def test_gaussian_identity_form(self):
        state = random_state(g.gaussian(), seed=5)
        k = state.index.u_cols[-1]
        expect = np.sum(state.V[:, k] ** 2) + state.penalty  # k is latent
        np.testing.assert_allclose(gram_diagonal(state, "U")[:, -1],
                                   np.full(state.n_obs, expect), rtol=1e-12)

    def test_canonical_variance_form(self):
        state = random_state(g.bernoulli(), seed=6)
        M = means(state)
        k = state.index.u_cols[0]  # the Gamma column, not penalized
        expect = M * (1 - M)  # rho(mu) for the bernoulli
        simplified = expect.T @ state.V[:, k] ** 2
        np.testing.assert_allclose(gram_diagonal(state, "U")[:, 0],
                                   simplified, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_matches_scalar_loop(self, family):
        state = random_state(family, seed=41, n_feat=5, n_obs=6)
        info = gram_diagonal(state, "U")
        for j, k in enumerate(state.index.u_cols):
            np.testing.assert_allclose(info[:, j],
                                       oracle.scalar_fisher_u(state, k),
                                       rtol=0, atol=1e-12)
        info = gram_diagonal(state, "V")
        for j, k in enumerate(state.index.v_cols):
            np.testing.assert_allclose(info[:, j],
                                       oracle.scalar_fisher_v(state, k),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_positive_under_default_penalty(self, family):
        state = random_state(family, seed=51)
        for block in ("U", "V"):
            assert np.all(gram_diagonal(state, block) > 0)

    def test_degenerate_column_has_zero_information(self):
        # unpenalized, with an all-zero partner column: the Gram
        # diagonal is 0 in every row
        state = random_state(g.poisson(), seed=61, penalty=0.0)
        k = state.index.u_cols[-1]
        state.V[:, k] = 0.0
        np.testing.assert_array_equal(gram_diagonal(state, "U")[:, -1],
                                      np.zeros(state.n_obs))

    def test_scalar_gradient_matches_vectorized(self):
        state = random_state(g.negative_binomial(2.0), seed=71, n_feat=5,
                             n_obs=6)
        grad = gradient(state, "U")
        for j, k in enumerate(state.index.u_cols):
            np.testing.assert_allclose(grad[:, j],
                                       oracle.scalar_gradient_u(state, k),
                                       rtol=0, atol=1e-12)
        grad = gradient(state, "V")
        for j, k in enumerate(state.index.v_cols):
            np.testing.assert_allclose(grad[:, j],
                                       oracle.scalar_gradient_v(state, k),
                                       rtol=0, atol=1e-12)
