"""Exponential-family noise models.

Each family is a kind with its standard link.  The fit runs only two
of its kernels: _working_weights, which maps a linear predictor to the
clamped mean g⁻¹ and the Fisher-scoring weights built from its
derivative h and the variance function rho(mu), and _loglik_sum.  The
natural parameter theta(mu) and the cumulant kappa(theta) serve the
public methods only.  The log density of every supported family is

    c(y) + y*theta - kappa(theta)

and all likelihood values reported by this package drop the data-only
constant c(y) (a "partial" log likelihood): it shifts the objective by a
constant, so maximizers and convergence monitoring are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigError, DataError, DomainError,
                         check_option)

# Means are clamped strictly inside their domain so that 1/rho(mu) and
# theta(mu) stay finite without branching in the update loops.
MEAN_FLOOR = 1e-10
MEAN_CEIL = 1e10
PROB_FLOOR = 1e-10
PROB_CEIL = 1.0 - 1e-10
# the predictors at which the log-link mean reaches its clamps
LOG_MEAN_FLOOR = float(np.log(MEAN_FLOOR))
LOG_MEAN_CEIL = float(np.log(MEAN_CEIL))

# The one link of each kind.  For the negative binomial the log link is
# the standard modelling choice even though the family's true canonical
# link is log(mu/(mu+alpha)).
_LINK = {
    "gaussian": "identity",
    "poisson": "log",
    "bernoulli": "logit",
    "negative_binomial": "log",
}

KINDS = tuple(_LINK)


def _asfloat(x):
    return np.asarray(x, dtype=float)


def _ret(out, like):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.ndim(like) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Family:
    """An exponential-family noise model with its standard link.

    Parameters
    ----------
    kind : str
        One of "gaussian", "poisson", "bernoulli", "negative_binomial",
        with the identity, log, logit and log link respectively.
    dispersion : float, optional
        Negative binomial shape alpha (variance mu + mu**2/alpha).
        Required for the negative binomial, rejected by the other kinds.

    The dispersion of the negative binomial must be a positive finite
    number, not a bool (exceptions.check_option), and is stored as a
    float; anything else raises ConfigError.
    """

    kind: str
    dispersion: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind == "negative_binomial":
            object.__setattr__(self, "dispersion", check_option(
                self.dispersion, "dispersion", positive=True))
        elif self.dispersion is not None:
            raise ConfigError(
                "dispersion is only valid for the negative_binomial kind, "
                f"got {self.dispersion!r} for {self.kind!r}")

    # ------------------------------------------------------------------
    # link functions

    @property
    def link(self) -> str:
        """The link function: "identity", "log" or "logit"."""
        return _LINK[self.kind]

    @property
    def is_canonical(self) -> bool:
        """True when the link equals the family's canonical link: for
        every kind but the negative binomial."""
        return self.kind != "negative_binomial"

    def inverse_link(self, r):
        """Mean mu = g⁻¹(r), clamped into the domain interior."""
        arr = _asfloat(r)
        _check_predictor(arr)
        return _ret(self._mean(arr), r)

    def dinverse_link(self, r):
        """Derivative h(r) = d g⁻¹(r) / dr; strictly positive."""
        arr = _asfloat(r)
        _check_predictor(arr)
        mu = self._mean(arr)
        # the clamped mean for the log link, which keeps h finite; rho(mu)
        # for the canonical links
        return _ret(mu if self.link == "log" else self._rho(mu), r)

    def _working_weights(self, r, out=(None, None, None)):
        """Means and Fisher-scoring weights at the linear predictor r, a
        float array, which is not checked: the fit builds r only from
        finite factors (model.finite_factors).

        Returns (M, S, I): the clamped mean g⁻¹(r), the score weight
        S = h/rho(M) and the information weight I = h²/rho(M), with
        h = g⁻¹'(r).  One exp, one in-place clamp.  For canonical links
        h == rho(M), so S is the scalar 1 and I is rho(M), which for the
        Poisson is M itself.  ``out`` holds three arrays shaped like r,
        or None each, into which M, S and I are written; r is not.
        """
        m_out, s_out, i_out = out
        M = self._mean(r, out=m_out)
        if self.kind == "poisson":
            return M, 1.0, M
        if self.is_canonical:
            return M, 1.0, self._rho(M, out=i_out)
        # negative binomial, log link: h == M, rho == M (1 + M/alpha)
        S = np.divide(M, self.dispersion, out=s_out)
        S += 1.0
        np.reciprocal(S, out=S)
        return M, S, np.multiply(M, S, out=i_out)

    def _mean(self, r, out=None):
        """g⁻¹(r), clamped in place into the strict interior of the
        domain: written into ``out`` when one is given, else a new
        array; r is not modified."""
        with np.errstate(over="ignore"):
            if self.link == "identity":
                return np.add(r, 0.0, out=out)
            if self.link == "log":
                mu = np.asarray(np.exp(r, out=out))
                lo, hi = MEAN_FLOOR, MEAN_CEIL
            else:  # logit: 1 / (1 + exp(-r))
                mu = np.asarray(np.negative(r, out=out))
                np.exp(mu, out=mu)
                mu += 1.0
                np.reciprocal(mu, out=mu)
                lo, hi = PROB_FLOOR, PROB_CEIL
        return np.clip(mu, lo, hi, out=mu)

    # ------------------------------------------------------------------
    # moment functions
    #
    # Each public method validates its argument, then runs the private
    # arithmetic.  The fit calls none of them: _working_weights and
    # _loglik_sum work on means already clamped into the domain and data
    # already checked by build_model.

    def variance(self, mu):
        """Variance function rho(mu); strictly positive on the domain."""
        arr = _asfloat(mu)
        self._check_mean_domain(arr)
        return _ret(self._rho(arr), mu)

    def natural_param(self, mu):
        """Natural parameter theta(mu)."""
        arr = _asfloat(mu)
        self._check_mean_domain(arr)
        return _ret(self._theta(arr), mu)

    def cumulant(self, theta):
        """Cumulant kappa(theta); kappa'(theta) = mu, kappa''(theta) = rho."""
        arr = _asfloat(theta)
        self._check_natural_domain(arr)
        return _ret(self._kappa(arr), theta)

    def loglik_term(self, y, theta):
        """Per-cell partial log likelihood y*theta - kappa(theta)."""
        y_arr = _asfloat(y)
        bad, reason = self._outside_support(y_arr)
        if bad.any():
            raise DataError(f"data outside the support: {reason}")
        t_arr = _asfloat(theta)
        self._check_natural_domain(t_arr)
        out = y_arr * t_arr - self._kappa(t_arr)
        return _ret(out, out)  # a float when y and theta are both scalars

    def _rho(self, mu, out=None):
        """rho(mu), written into ``out`` when one is given."""
        if self.kind == "gaussian":
            rho = np.empty_like(mu) if out is None else out
            rho.fill(1.0)
            return rho
        if self.kind == "poisson":
            return np.add(mu, 0.0, out=out)
        if self.kind == "bernoulli":
            rho = np.subtract(1.0, mu, out=out)
            rho *= mu
            return rho
        rho = np.multiply(mu, mu, out=out)
        rho /= self.dispersion
        rho += mu
        return rho

    def _theta(self, mu):
        if self.kind == "gaussian":
            return mu + 0.0
        if self.kind == "poisson":
            return np.log(mu)
        if self.kind == "bernoulli":
            return np.log(mu) - np.log1p(-mu)
        # log(mu/(mu+alpha)), without cancellation at large means
        return -np.log1p(self.dispersion / mu)

    def _kappa(self, theta):
        if self.kind == "gaussian":
            return 0.5 * theta * theta
        if self.kind == "poisson":
            with np.errstate(over="ignore"):
                return np.exp(theta)
        if self.kind == "bernoulli":
            # log(1 + e^theta) without overflow for large |theta|
            return np.logaddexp(0.0, theta)
        # -alpha log(1 - e^theta), with 1 - e^theta = -expm1(theta) above
        # -log 2 and log1p below it; each branch sees only its own thetas
        cut = -np.log(2.0)
        return -self.dispersion * np.where(
            theta > cut, np.log(-np.expm1(np.maximum(theta, cut))),
            np.log1p(-np.exp(np.minimum(theta, cut))))

    def _loglik_sum(self, y, r, mu, scratch=None):
        """Sum of y*theta(mu) - kappa(theta(mu)) over all cells, with mu
        the clamped mean of the predictor r; overwrites r, and
        ``scratch``, an array shaped like r, when one is given: the one
        temporary is written there.

        No log of an exp: for the Poisson theta is r, clipped to the
        mean clamps.  For the negative binomial theta is -t with
        t = log1p(alpha/mu), and kappa is alpha log1p(mu/alpha), so a
        cell -(y t + kappa) adds two positive terms, each to full
        relative precision, at large means and at large alpha alike.  A
        Bernoulli cell is log(mu) or log(1 - mu), by y, so it follows
        the clamped mean, not r; it is picked by exact 0/1 arithmetic,
        (1 - mu) - y (1 - mu) + y mu, which rounds nothing for y in
        {0, 1} and finite mu.
        """
        if self.kind == "gaussian":
            r *= 0.5
            r *= mu  # kappa = theta^2/2, with theta == mu == r
            ymu = np.multiply(y, mu, out=scratch)
            return float(np.sum(np.subtract(ymu, r, out=r)))
        if self.kind == "bernoulli":
            np.subtract(1.0, mu, out=r)
            t = np.multiply(y, r, out=scratch)
            r -= t
            r += np.multiply(y, mu, out=t)
            return float(np.sum(np.log(r, out=r)))
        if self.kind == "poisson":
            np.clip(r, LOG_MEAN_FLOOR, LOG_MEAN_CEIL, out=r)
            r *= y
            r -= mu
            return float(np.sum(r))
        t = np.divide(self.dispersion, mu, out=scratch)
        np.log1p(t, out=t)
        t *= y
        np.divide(mu, self.dispersion, out=r)
        np.log1p(r, out=r)
        r *= self.dispersion  # kappa
        r += t
        return -float(np.sum(r))  # sum of y theta - kappa = -(y t + kappa)

    # ------------------------------------------------------------------
    # support and domain checks

    def _outside_support(self, y: np.ndarray):
        """(mask of the entries of y outside the support, the reason)."""
        bad = ~np.isfinite(y)
        if bad.any() or self.kind == "gaussian":
            return bad, "non-finite value"
        if self.kind == "bernoulli":
            return (y != 0) & (y != 1), "bernoulli data must be 0 or 1"
        return ((y < 0) | (y != np.floor(y)),
                f"{self.kind} data must be a nonnegative integer")

    def _check_natural_domain(self, arr) -> None:
        if not np.all(np.isfinite(arr)):
            raise DomainError("natural parameter contains non-finite values")
        if self.kind == "negative_binomial" and np.any(arr >= 0):
            raise DomainError(
                "negative binomial natural parameter must be negative"
            )

    def _check_mean_domain(self, arr) -> None:
        if not np.all(np.isfinite(arr)):
            raise DomainError("mean contains non-finite values")
        if self.kind != "gaussian" and np.any(arr <= 0):
            raise DomainError(f"{self.kind} mean must be positive")
        if self.kind == "bernoulli" and np.any(arr >= 1):
            raise DomainError("bernoulli mean must be below 1")


def _check_predictor(arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError("linear predictor contains non-finite values")


def gaussian() -> Family:
    return Family("gaussian")


def poisson() -> Family:
    return Family("poisson")


def bernoulli() -> Family:
    return Family("bernoulli")


def negative_binomial(dispersion: float) -> Family:
    return Family("negative_binomial", dispersion=dispersion)
