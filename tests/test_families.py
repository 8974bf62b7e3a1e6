"""Family-level unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmpca as g
from glmpca import ConfigError, DataError, DomainError
from glmpca.families import MEAN_CEIL, MEAN_FLOOR, PROB_CEIL, PROB_FLOOR

ALL = [g.gaussian(), g.poisson(), g.bernoulli(), g.negative_binomial(2.0)]


def central_diff(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


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

    def test_nb_negative(self):
        fam = g.negative_binomial(2.0)
        assert fam.natural_param(5.0) == pytest.approx(math.log(5.0 / 7.0))
        assert fam.natural_param(5.0) < 0


class TestCumulant:
    def test_trivia(self):
        assert g.poisson().cumulant(0.0) == pytest.approx(1.0)
        assert g.bernoulli().cumulant(0.0) == pytest.approx(math.log(2.0))
        assert g.gaussian().cumulant(2.0) == pytest.approx(2.0)

    def test_bernoulli_overflow_safe(self):
        fam = g.bernoulli()
        assert fam.cumulant(800.0) == pytest.approx(800.0)
        assert fam.cumulant(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(fam.cumulant(np.array([-750.0, 750.0]))).all()

    def test_nb_domain(self):
        fam = g.negative_binomial(2.0)
        with pytest.raises(DomainError):
            fam.cumulant(0.0)
        with pytest.raises(DomainError):
            fam.cumulant(1.0)
        # kappa(theta(mu)) = alpha * log((mu + alpha)/alpha)
        mu = 3.0
        assert fam.cumulant(fam.natural_param(mu)) == pytest.approx(
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
            fd = central_diff(fam.cumulant, theta)
            assert abs(fd - fam.inverse_link(theta)) <= 1e-6

    def test_cumulant_derivative_is_mean_nb(self):
        fam = g.negative_binomial(2.0)
        for mu in np.linspace(0.2, 8.0, 25):
            fd = central_diff(fam.cumulant, fam.natural_param(mu))
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
        M, S, I = fam.working_weights(r)
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
        _, S, _ = fam.working_weights(self.GRID)
        if fam.is_canonical:
            assert S == 1.0
        else:
            assert np.shape(S) == self.GRID.shape

    @pytest.mark.parametrize("fam", ALL, ids=lambda f: f.kind)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, fam, bad):
        with pytest.raises(DomainError):
            fam.working_weights(np.array([0.0, bad]))

    def test_does_not_modify_predictor(self):
        r = self.GRID.copy()
        for fam in ALL:
            fam.working_weights(r)
        np.testing.assert_array_equal(r, self.GRID)
