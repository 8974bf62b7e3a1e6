"""Exponential-family noise models.

Each family bundles the five ingredients the factorization needs: the
inverse link g⁻¹ mapping a linear predictor to a mean, its derivative h,
the variance function rho(mu), the natural parameter theta(mu), and the
cumulant kappa(theta).  The log density of every supported family is

    c(y) + y*theta - kappa(theta)

and all likelihood values reported by this package drop the data-only
constant c(y) (a "partial" log likelihood): it shifts the objective by a
constant, so maximizers and convergence monitoring are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, DomainError

# Means are clamped strictly inside their domain so that 1/rho(mu) and
# theta(mu) stay finite without branching in the update loops.
MEAN_FLOOR = 1e-10
MEAN_CEIL = 1e10
PROB_FLOOR = 1e-10
PROB_CEIL = 1.0 - 1e-10

# The one link of each kind.  For the negative binomial the log link is
# the standard modelling choice even though the family's true canonical
# link is log(mu/(mu+alpha)).
_LINK = {
    "gaussian": "identity",
    "poisson": "log",
    "bernoulli": "logit",
    "negative_binomial": "log",
}
_TRUE_CANONICAL = {"gaussian": "identity", "poisson": "log", "bernoulli": "logit"}

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
        Required for the negative binomial, ignored by the other kinds.
    """

    kind: str
    dispersion: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.kind == "negative_binomial":
            d = self.dispersion
            if d is None or not np.isfinite(d) or d <= 0:
                raise ConfigError(
                    "negative_binomial requires a positive finite dispersion"
                )
            object.__setattr__(self, "dispersion", float(d))

    # ------------------------------------------------------------------
    # link functions

    @property
    def link(self) -> str:
        """The link function: "identity", "log" or "logit"."""
        return _LINK[self.kind]

    @property
    def is_canonical(self) -> bool:
        """True when the link equals the family's canonical link."""
        return _TRUE_CANONICAL.get(self.kind) == self.link

    def inverse_link(self, r):
        """Mean mu = g⁻¹(r), clamped into the domain interior."""
        arr = _asfloat(r)
        _check_predictor(arr)
        return _ret(self._mean(arr), r)

    def dinverse_link(self, r):
        """Derivative h(r) = d g⁻¹(r) / dr; strictly positive."""
        arr = _asfloat(r)
        _check_predictor(arr)
        if self.link == "identity":
            h = np.ones_like(arr)
        elif self.link == "log":
            # equals the clamped mean, which keeps h finite and preserves
            # h == rho(mu) exactly for the Poisson
            h = self._mean(arr)
        else:  # logit
            mu = self._mean(arr)
            h = mu * (1.0 - mu)
        return _ret(h, r)

    def working_weights(self, r):
        """Means and Fisher-scoring weights at the linear predictor r.

        Returns (M, S, I): the clamped mean g⁻¹(r), the score weight
        S = h/rho(M) and the information weight I = h²/rho(M), with
        h = g⁻¹'(r).  One exp, one in-place clamp.  For canonical links
        h == rho(M), so S is the scalar 1 and I is rho(M), which for the
        Poisson is M itself.  Raises DomainError when r holds a
        non-finite value.
        """
        arr = _asfloat(r)
        _check_predictor(arr)
        M = self._mean(arr)
        if self.kind == "poisson":
            return M, 1.0, M
        if self.is_canonical:
            return M, 1.0, self._rho(M)
        # negative binomial, log link: h == M, rho == M (1 + M/alpha)
        S = M / self.dispersion
        S += 1.0
        np.reciprocal(S, out=S)
        return M, S, M * S

    def _mean(self, r):
        """g⁻¹(r) for a finite predictor, clamped in place into the
        strict interior of the domain; always a new array."""
        with np.errstate(over="ignore"):
            if self.link == "identity":
                return r + 0.0
            if self.link == "log":
                mu = np.asarray(np.exp(r))
                lo, hi = MEAN_FLOOR, MEAN_CEIL
            else:  # logit: 1 / (1 + exp(-r))
                mu = np.asarray(np.exp(-r))
                mu += 1.0
                np.reciprocal(mu, out=mu)
                lo, hi = PROB_FLOOR, PROB_CEIL
        return np.clip(mu, lo, hi, out=mu)

    # ------------------------------------------------------------------
    # moment functions
    #
    # Each public method validates its argument, then runs the private
    # arithmetic that the objective also calls on means already clamped
    # into the domain and data already checked by build_model.

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
        self.check_support(y_arr)
        t_arr = _asfloat(theta)
        self._check_natural_domain(t_arr)
        out = self._loglik(y_arr, t_arr)
        return _ret(out, out)  # a float when y and theta are both scalars

    def _rho(self, mu):
        if self.kind == "gaussian":
            return np.ones_like(mu)
        if self.kind == "poisson":
            return mu + 0.0
        if self.kind == "bernoulli":
            rho = 1.0 - mu
            rho *= mu
            return rho
        return mu + mu * mu / self.dispersion

    def _theta(self, mu):
        if self.kind == "gaussian":
            return mu + 0.0
        if self.kind == "poisson":
            return np.log(mu)
        if self.kind == "bernoulli":
            return np.log(mu) - np.log1p(-mu)
        return np.log(mu) - np.log(mu + self.dispersion)

    def _kappa(self, theta):
        if self.kind == "gaussian":
            return 0.5 * theta * theta
        if self.kind == "poisson":
            with np.errstate(over="ignore"):
                return np.exp(theta)
        if self.kind == "bernoulli":
            # log(1 + e^theta) without overflow for large |theta|
            return np.logaddexp(0.0, theta)
        return -self.dispersion * np.log1p(-np.exp(theta))

    def _loglik(self, y, theta):
        return y * theta - self._kappa(theta)

    # ------------------------------------------------------------------
    # support and domain checks

    def check_support(self, y) -> None:
        """Raise DataError if any value lies outside the family's support."""
        bad, reason = self._outside_support(_asfloat(y))
        if bad.any():
            raise DataError(f"data outside the support: {reason}")

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
