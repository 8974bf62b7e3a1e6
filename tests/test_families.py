"""Family-level unit and property tests."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmpca as g
from glmpca import ConfigError, DataError, DomainError
from glmpca.families import MEAN_CEIL, MEAN_FLOOR, PROB_CEIL, PROB_FLOOR

from conftest import sample_response

ALL = [g.gaussian(), g.poisson(), g.bernoulli(), g.negative_binomial(2.0)]


def central_diff(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


def kappa(fam, theta):
    """The cumulant kappa(theta), as -loglik_term(0, theta)."""
    return -fam.loglik_term(0.0, theta)


class TestConstruction:
    def test_canonical_resolution(self):
        assert g.gaussian().link == "identity"
        assert g.poisson().link == "log"
        assert g.bernoulli().link == "logit"
        # log is the standard (non-canonical) choice for the NB
        assert g.negative_binomial(1.5).link == "log"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            g.Family("gamma")

    def test_nb_dispersion_required_and_positive(self):
        with pytest.raises(ConfigError):
            g.Family("negative_binomial")
        with pytest.raises(ConfigError):
            g.negative_binomial(0.0)
        with pytest.raises(ConfigError):
            g.negative_binomial(-1.0)

    @pytest.mark.parametrize("kind", ["gaussian", "poisson", "bernoulli"])
    def test_dispersion_rejected_for_other_kinds(self, kind):
        with pytest.raises(ConfigError, match=f"got 2.0 for '{kind}'"):
            g.Family(kind, dispersion=2.0)
        assert g.Family(kind, dispersion=None) == g.Family(kind)

    def test_is_canonical(self):
        assert g.poisson().is_canonical
        assert g.gaussian().is_canonical
        assert g.bernoulli().is_canonical
        assert not g.negative_binomial(2.0).is_canonical


class TestInverseLink:
    def test_poisson_log_at_zero(self):
        assert g.poisson().inverse_link(0.0) == pytest.approx(1.0)

    def test_bernoulli_logit_at_zero(self):
        assert g.bernoulli().inverse_link(0.0) == pytest.approx(0.5)

    def test_gaussian_identity(self):
        assert g.gaussian().inverse_link(-2.5) == -2.5

    def test_nonfinite_rejected(self):
        for fam in ALL:
            with pytest.raises(DomainError):
                fam.inverse_link(np.inf)
            with pytest.raises(DomainError):
                fam.inverse_link(np.array([0.0, np.nan]))

    def test_clamping(self):
        assert g.poisson().inverse_link(-1000.0) == MEAN_FLOOR
        assert g.poisson().inverse_link(1000.0) == MEAN_CEIL
        assert g.bernoulli().inverse_link(800.0) == PROB_CEIL
        assert g.bernoulli().inverse_link(-800.0) == PROB_FLOOR

    def test_array_in_array_out(self):
        out = g.poisson().inverse_link(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, 1.0)


class TestDinverseLink:
    def test_poisson_at_zero(self):
        assert g.poisson().dinverse_link(0.0) == pytest.approx(1.0)

    def test_bernoulli_at_zero(self):
        assert g.bernoulli().dinverse_link(0.0) == pytest.approx(0.25)

    def test_poisson_at_one_is_e(self):
        # independently checked against a central difference of the
        # inverse link before freezing the constant
        fam = g.poisson()
        fd = central_diff(fam.inverse_link, 1.0)
        h = fam.dinverse_link(1.0)
        assert abs(h - fd) <= 1e-8 * (1.0 + abs(h))
        assert h == pytest.approx(math.e, rel=1e-12)

    def test_strictly_positive(self):
        grid = np.linspace(-30.0, 30.0, 61)
        for fam in ALL:
            assert np.all(fam.dinverse_link(grid) > 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            g.gaussian().dinverse_link(np.nan)

    def test_scalar_gives_float(self):
        for fam in ALL:
            assert type(fam.dinverse_link(0.5)) is float


class TestVariance:
    def test_gaussian_constant(self):
        assert g.gaussian().variance(7.3) == 1.0

    def test_bernoulli_max_at_half(self):
        assert g.bernoulli().variance(0.5) == 0.25

    def test_negative_binomial(self):
        assert g.negative_binomial(2.0).variance(2.0) == pytest.approx(4.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            g.poisson().variance(0.0)
        with pytest.raises(DomainError):
            g.bernoulli().variance(1.0)
        with pytest.raises(DomainError):
            g.negative_binomial(2.0).variance(-1.0)

    def test_strictly_positive_on_clamped_domain(self):
        for fam in ALL:
            mu = fam.inverse_link(np.linspace(-40, 40, 33))
            assert np.all(fam.variance(mu) > 0)


class TestNaturalParam:
    def test_trivia(self):
        assert g.poisson().natural_param(1.0) == 0.0
        assert g.bernoulli().natural_param(0.5) == 0.0
        assert g.gaussian().natural_param(-3.0) == -3.0

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            g.poisson().natural_param(0.0)
        with pytest.raises(DomainError):
            g.bernoulli().natural_param(0.0)
        with pytest.raises(DomainError):
            g.bernoulli().natural_param(1.0)
        with pytest.raises(DomainError, match="non-finite"):
            g.poisson().natural_param(np.nan)

    def test_nb_negative(self):
        fam = g.negative_binomial(2.0)
        assert fam.natural_param(5.0) == pytest.approx(math.log(5.0 / 7.0))
        assert fam.natural_param(5.0) < 0

    def test_nb_tiny_means(self):
        # alpha / mu overflows below mu = alpha / 1.8e308, where theta is
        # log(mu) - log(alpha) to double precision; the means around the
        # cut, and a subnormal one, stay finite and continuous
        fam = g.negative_binomial(2.0)
        mu = np.array([5e-324, 1e-308, 1.1e-308, 1.2e-308, 1e-300])
        theta = fam.natural_param(mu)
        np.testing.assert_allclose(theta, np.log(mu) - math.log(2.0),
                                   rtol=1e-15)
        assert fam.natural_param(1e-308) == pytest.approx(-709.889355822726,
                                                          rel=1e-14)
        assert np.isfinite(fam.loglik_term(np.zeros(5), theta)).all()


class TestCumulant:
    """kappa(theta), reached through loglik_term at y = 0."""

    def test_trivia(self):
        assert kappa(g.poisson(), 0.0) == pytest.approx(1.0)
        assert kappa(g.bernoulli(), 0.0) == pytest.approx(math.log(2.0))
        assert kappa(g.gaussian(), 2.0) == pytest.approx(2.0)

    def test_bernoulli_overflow_safe(self):
        fam = g.bernoulli()
        assert kappa(fam, 800.0) == pytest.approx(800.0)
        assert kappa(fam, -800.0) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(kappa(fam, np.array([-750.0, 750.0]))).all()

    def test_nb_domain(self):
        fam = g.negative_binomial(2.0)
        with pytest.raises(DomainError):
            kappa(fam, 0.0)
        with pytest.raises(DomainError):
            kappa(fam, 1.0)
        # kappa(theta(mu)) = alpha * log((mu + alpha)/alpha)
        mu = 3.0
        assert kappa(fam, fam.natural_param(mu)) == pytest.approx(
            2.0 * math.log(5.0 / 2.0))


class TestLoglikTerm:
    def test_poisson_values(self):
        fam = g.poisson()
        assert fam.loglik_term(0.0, 0.0) == pytest.approx(-1.0)
        assert fam.loglik_term(2.0, 0.0) == pytest.approx(-1.0)

    def test_bernoulli_value(self):
        assert g.bernoulli().loglik_term(1.0, 0.0) == pytest.approx(
            -math.log(2.0))

    def test_support_errors(self):
        with pytest.raises(DataError):
            g.poisson().loglik_term(-1.0, 0.0)
        with pytest.raises(DataError):
            g.bernoulli().loglik_term(0.5, 0.0)
        with pytest.raises(DataError):
            g.negative_binomial(2.0).loglik_term(-3.0, -1.0)
        with pytest.raises(DataError):
            g.poisson().loglik_term(2.5, 0.0)

    def test_nonfinite_natural_param_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            g.poisson().loglik_term(1.0, np.nan)


@pytest.mark.parametrize("value", [np.array([0.5 + 1j]), np.array(["0.5"])],
                         ids=["complex", "string"])
@pytest.mark.parametrize("call, error, what", [
    (lambda fam, x: fam.inverse_link(x), DomainError, "linear predictor"),
    (lambda fam, x: fam.dinverse_link(x), DomainError, "linear predictor"),
    (lambda fam, x: fam.variance(x), DomainError, "mean"),
    (lambda fam, x: fam.natural_param(x), DomainError, "mean"),
    (lambda fam, x: fam.loglik_term(x, -0.5), DataError, "data"),
    (lambda fam, x: fam.loglik_term(1.0, x), DomainError,
     "natural parameter"),
], ids=["inverse_link", "dinverse_link", "variance", "natural_param",
        "loglik_term-y", "loglik_term-theta"])
def test_non_real_argument_rejected(call, error, what, value):
    # a cast to float would drop the imaginary part or parse the string;
    # every other argument is in the domain of every family
    for fam in ALL:
        with pytest.raises(error, match=f"{what} must hold real numbers"):
            call(fam, value)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
def test_strict_error_state_changes_nothing(fam):
    # exp(+-800) overflows or underflows in the log and logit means, and
    # exp(-800) in the Poisson and NB cumulants (logaddexp in the
    # Bernoulli's); mu * mu underflows in the NB variance at mu = 1e-300,
    # and alpha / mu overflows in the NB natural parameter at mu = 1e-308:
    # each public method rounds it whatever the caller's np.seterr
    r = np.array([-800.0, 800.0, 0.5])
    theta = np.array([-800.0, -1.0])

    def values():
        return (fam.inverse_link(r), fam.dinverse_link(r),
                fam.variance(np.array([1e-300, 0.5])),
                fam.natural_param(np.array([1e-308, 0.5])),
                fam.loglik_term([0.0, 1.0], theta))

    plain = values()
    with np.errstate(all="raise"):
        strict = values()
    assert all(np.all(np.isfinite(v)) for v in plain)
    np.testing.assert_equal(strict, plain)


class TestAnalyticIdentities:
    """Grid-based consistency checks between the family ingredients."""

    @pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
    def test_dinverse_matches_finite_difference(self, fam):
        for r in np.linspace(-4.0, 4.0, 100):
            fd = central_diff(fam.inverse_link, r)
            h = fam.dinverse_link(r)
            assert abs(h - fd) <= 1e-6 * (1.0 + abs(h))

    @pytest.mark.parametrize(
        "fam", [g.gaussian(), g.poisson(), g.bernoulli()],
        ids=lambda f: f.kind)
    def test_cumulant_derivative_is_mean(self, fam):
        # canonical link: theta equals the linear predictor, so
        # d kappa / d theta must reproduce the inverse link
        for theta in np.linspace(-3.0, 3.0, 25):
            fd = central_diff(lambda t: kappa(fam, t), theta)
            assert abs(fd - fam.inverse_link(theta)) <= 1e-6

    def test_cumulant_derivative_is_mean_nb(self):
        fam = g.negative_binomial(2.0)
        for mu in np.linspace(0.2, 8.0, 25):
            fd = central_diff(lambda t: kappa(fam, t),
                              fam.natural_param(mu))
            assert abs(fd - mu) <= 1e-5 * (1.0 + mu)

    @pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
    def test_dtheta_dmu_is_inverse_variance(self, fam):
        grid = np.linspace(0.1, 0.9, 20) if fam.kind == "bernoulli" \
            else np.linspace(0.3, 6.0, 20)
        for mu in grid:
            fd = central_diff(fam.natural_param, mu)
            assert abs(fd * fam.variance(mu) - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "fam", [g.gaussian(), g.poisson(), g.bernoulli()],
        ids=lambda f: f.kind)
    def test_canonical_link_h_equals_variance(self, fam):
        r = np.linspace(-4.0, 4.0, 100)
        h = fam.dinverse_link(r)
        rho = fam.variance(fam.inverse_link(r))
        np.testing.assert_allclose(h, rho, rtol=0, atol=1e-12)


class TestRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_natural_param_inverts_mean_map(self, r):
        # for canonical families theta(g^-1(r)) recovers r
        for fam in (g.poisson(), g.bernoulli(), g.gaussian()):
            mu = fam.inverse_link(r)
            assert fam.natural_param(mu) == pytest.approx(r, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0),
           st.floats(min_value=-8.0, max_value=8.0))
    def test_inverse_link_monotone(self, r1, r2):
        for fam in ALL:
            lo, hi = sorted((r1, r2))
            assert fam.inverse_link(lo) <= fam.inverse_link(hi)


class TestWorkingWeights:
    # crosses the clamp boundaries: exp(+-23.03) and 1/(1 + exp(-+23.03))
    # reach MEAN_CEIL/MEAN_FLOOR and PROB_CEIL/PROB_FLOOR
    GRID = np.concatenate([np.linspace(-40.0, 40.0, 161),
                           [-30.0, -25.0, 25.0, 30.0, -23.0259, 23.0259]])

    @pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
    def test_matches_separate_formulas(self, fam):
        r = self.GRID.reshape(1, -1)
        M, S, I = fam._working_weights(r)
        mu = fam.inverse_link(r)
        h = fam.dinverse_link(r)
        w = 1.0 / fam.variance(mu)
        np.testing.assert_array_equal(M, mu)
        np.testing.assert_allclose(np.broadcast_to(S, r.shape), w * h,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(I, w * h ** 2, rtol=1e-14, atol=0)
        assert M.shape == I.shape == r.shape

    @pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
    def test_canonical_score_weight_is_one(self, fam):
        _, S, _ = fam._working_weights(self.GRID)
        if fam.is_canonical:
            assert S == 1.0
        else:
            assert np.shape(S) == self.GRID.shape

    def test_does_not_modify_predictor(self):
        r = self.GRID.copy()
        for fam in ALL:
            fam._working_weights(r)
        np.testing.assert_array_equal(r, self.GRID)


class TestLoglikSum:
    """Family._loglik_sum, the one log-likelihood kernel of the fit, reads
    theta from the predictor and the clamped mean; it must give the sum of
    the public per-cell terms at the same means.  Rows 0 and 1 carry the
    extreme predictors, with y = 1 in row 0 and y = 0 in row 1 for the
    Bernoulli, so that each clamp meets both outcomes."""

    NB = g.negative_binomial(2.0)
    # +-30 puts means at both clamps of either link; +-20 leaves the
    # Bernoulli probability 2e-9 inside its clamps, where theta read from
    # r and theta read from the rounded mean differ
    EXTREMES = {"none": (), "clamps": (-30.0, 30.0), "twenty": (-20.0, 20.0),
                "floor": (-30.0, -40.0)}

    def case(self, fam, extremes, seed=3):
        rng = np.random.default_rng(seed)
        r = rng.normal(0.0, 1.5, (6, 10))
        r[:2, :len(extremes)] = extremes
        # the kernel runs under its caller's error state, and the scoring
        # pass that calls it ignores every floating-point error
        with np.errstate(all="ignore"):
            mu = fam._working_weights(r)[0]
        y = sample_response(rng, fam, fam.inverse_link(np.clip(r, -3, 3)))
        if fam.kind == "bernoulli":
            y[0], y[1] = 1.0, 0.0
        return y, r, mu

    def fused(self, fam, y, r, mu):
        """The kernel's sum; it must not modify y or the means."""
        y_before, mu_before = y.copy(), mu.copy()
        out = fam._loglik_sum(y, r.copy(), mu)
        np.testing.assert_array_equal(y, y_before)
        np.testing.assert_array_equal(mu, mu_before)
        return out

    @pytest.mark.parametrize("fam, extremes", [
        (fam, name) for fam in ALL[:3] for name in ("none", "clamps", "twenty")
    ] + [(NB, "none"), (NB, "floor")], ids=lambda x: getattr(x, "kind", x))
    def test_matches_public_terms(self, fam, extremes):
        y, r, mu = self.case(fam, self.EXTREMES[extremes])
        expected = np.sum(fam.loglik_term(y, fam.natural_param(mu)))
        assert self.fused(fam, y, r, mu) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("extremes", ["clamps", "twenty"])
    def test_negative_binomial_large_means(self, extremes):
        # y*log(mu/(mu+alpha)) + alpha*log(alpha/(mu+alpha)) is the same
        # sum.  Its ratio mu/(mu+alpha) is rounded next to 1, so its theta
        # is off by about 1e-16 absolute; that is harmless here only
        # because y is small in every cell.  Cells with y near a large
        # mean are held to a decimal reference below
        a = self.NB.dispersion
        y, r, mu = self.case(self.NB, self.EXTREMES[extremes])
        expected = np.sum(y * np.log(mu / (mu + a)) + a * np.log(a / (mu + a)))
        assert self.fused(self.NB, y, r, mu) == pytest.approx(expected,
                                                              rel=1e-12)

    @staticmethod
    def nb_reference(y, mu, a):
        """y log(mu/(mu+a)) + a log(a/(mu+a)) in 60-digit decimals."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            y, mu, a = (decimal.Decimal(float(v)) for v in (y, mu, a))
            return float(y * (mu / (mu + a)).ln() + a * (a / (mu + a)).ln())

    # means of 4.9e8 and at the 1e10 clamp (r = 30 is clipped to it), each
    # with y near the mean, where y*theta and kappa are both large, and
    # with small y
    @pytest.mark.parametrize("r, y", [
        (math.log(4.9e8), 4.9e8), (math.log(4.9e8), 490_001_234.0),
        (math.log(4.9e8), 0.0), (math.log(4.9e8), 3.0),
        (30.0, 1e10), (30.0, 9_999_876_543.0), (30.0, 0.0), (30.0, 7.0),
    ], ids=[f"{mean}-{y}" for mean in ("4.9e8", "clamp")
            for y in ("y=mu", "y~mu", "y=0", "small-y")])
    def test_negative_binomial_cell_at_large_mean(self, r, y):
        fam = self.NB
        r = np.array([[r]])
        mu = fam._working_weights(r)[0]
        y = np.array([[y]])
        expected = self.nb_reference(y[0, 0], mu[0, 0], fam.dispersion)
        assert self.fused(fam, y, r, mu) == pytest.approx(expected, rel=1e-13)
        public = fam.loglik_term(y[0, 0], fam.natural_param(mu[0, 0]))
        assert public == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [1e8, 1e12, 1e14, 1e300])
    def test_negative_binomial_large_dispersion(self, alpha):
        # as alpha grows the family nears the Poisson and kappa nears mu;
        # each cell -(y log1p(alpha/mu) + alpha log1p(mu/alpha)) keeps
        # its digits, so the kernel's sum must match their exact sum
        fam = g.negative_binomial(alpha)
        rng = np.random.default_rng(5)
        r = rng.normal(math.log(3.0), 0.5, (40, 30))
        mu = fam._working_weights(r)[0]
        y = rng.poisson(3.0, r.shape).astype(float)
        expected = -math.fsum((y * np.log1p(alpha / mu)
                               + alpha * np.log1p(mu / alpha)).ravel())
        assert self.fused(fam, y, r, mu) == pytest.approx(expected,
                                                          rel=1e-12)

    def test_bernoulli_picks_the_mean_by_y(self):
        # the cell is log(mu) where y == 1 and log(1 - mu) where y == 0,
        # bit for bit, also with means at both clamps (r = -800, 800)
        fam = g.bernoulli()
        y, r, mu = self.case(fam, (-800.0, 800.0))
        assert mu[0, 0] == mu[1, 0] == PROB_FLOOR
        assert mu[0, 1] == mu[1, 1] == PROB_CEIL
        expected = np.sum(np.log(np.where(y == 1, mu, 1.0 - mu)))
        assert self.fused(fam, y, r, mu) == expected

    @pytest.mark.parametrize("fam", ALL[1:], ids=lambda f: f.kind)
    def test_flat_beyond_the_clamps(self, fam):
        y, r, mu = self.case(fam, self.EXTREMES["clamps"])
        far = r.copy()
        far[:2, :2] *= 2.0
        assert self.fused(fam, y, far, fam._working_weights(far)[0]) == \
            self.fused(fam, y, r, mu)
