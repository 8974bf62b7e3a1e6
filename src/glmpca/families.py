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

# Link used when the caller asks for "canonical".  For the negative
# binomial the log link is the standard modelling choice even though the
# family's true canonical link is log(mu/(mu+alpha)).
_DEFAULT_LINK = {
    "gaussian": "identity",
    "poisson": "log",
    "bernoulli": "logit",
    "negative_binomial": "log",
}
_TRUE_CANONICAL = {"gaussian": "identity", "poisson": "log", "bernoulli": "logit"}

KINDS = tuple(_DEFAULT_LINK)


def _asfloat(x):
    return np.asarray(x, dtype=float)


def _ret(out, like):
    """Return a float for scalar input, an ndarray otherwise."""
    if np.ndim(like) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Family:
    """An exponential-family noise model with a fixed link.

    Parameters
    ----------
    kind : str
        One of "gaussian", "poisson", "bernoulli", "negative_binomial".
    dispersion : float, optional
        Negative binomial shape alpha (variance mu + mu**2/alpha).
        Required for the negative binomial, ignored by the other kinds.
    link : str
        "canonical" resolves per kind.  Only the standard link of each
        kind is accepted: identity, log, logit, and log respectively.
    """

    kind: str
    dispersion: float | None = None
    link: str = "canonical"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}")
        link = _DEFAULT_LINK[self.kind] if self.link == "canonical" else self.link
        if link != _DEFAULT_LINK[self.kind]:
            raise ConfigError(
                f"family {self.kind!r} does not support link {self.link!r}"
            )
        object.__setattr__(self, "link", link)
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
    def is_canonical(self) -> bool:
        """True when the link equals the family's canonical link."""
        return _TRUE_CANONICAL.get(self.kind) == self.link

    def clamp_mean(self, mu):
        """Clip a mean into the strict interior of the family's domain."""
        if self.kind == "gaussian":
            return mu
        if self.kind == "bernoulli":
            return np.clip(mu, PROB_FLOOR, PROB_CEIL)
        return np.clip(mu, MEAN_FLOOR, MEAN_CEIL)

    def inverse_link(self, r):
        """Mean mu = g⁻¹(r), clamped into the domain interior."""
        arr = _asfloat(r)
        if not np.all(np.isfinite(arr)):
            raise DomainError("linear predictor contains non-finite values")
        with np.errstate(over="ignore"):
            if self.link == "identity":
                mu = arr + 0.0
            elif self.link == "log":
                mu = np.exp(arr)
            else:  # logit
                mu = 1.0 / (1.0 + np.exp(-arr))
        return _ret(self.clamp_mean(mu), r)

    def dinverse_link(self, r):
        """Derivative h(r) = d g⁻¹(r) / dr; strictly positive."""
        arr = _asfloat(r)
        if not np.all(np.isfinite(arr)):
            raise DomainError("linear predictor contains non-finite values")
        if self.link == "identity":
            h = np.ones_like(arr)
        elif self.link == "log":
            # equals the clamped mean, which keeps h finite and preserves
            # h == rho(mu) exactly for the Poisson
            with np.errstate(over="ignore"):
                h = np.clip(np.exp(arr), MEAN_FLOOR, MEAN_CEIL)
        else:  # logit
            mu = self.inverse_link(arr)
            h = mu * (1.0 - mu)
        return _ret(h, r)

    # ------------------------------------------------------------------
    # moment functions

    def variance(self, mu):
        """Variance function rho(mu); strictly positive on the domain."""
        arr = _asfloat(mu)
        self._check_mean_domain(arr)
        if self.kind == "gaussian":
            rho = np.ones_like(arr)
        elif self.kind == "poisson":
            rho = arr + 0.0
        elif self.kind == "bernoulli":
            rho = arr * (1.0 - arr)
        else:
            rho = arr + arr * arr / self.dispersion
        return _ret(rho, mu)

    def natural_param(self, mu):
        """Natural parameter theta(mu)."""
        arr = _asfloat(mu)
        self._check_mean_domain(arr)
        if self.kind == "gaussian":
            theta = arr + 0.0
        elif self.kind == "poisson":
            theta = np.log(arr)
        elif self.kind == "bernoulli":
            theta = np.log(arr) - np.log1p(-arr)
        else:
            theta = np.log(arr) - np.log(arr + self.dispersion)
        return _ret(theta, mu)

    def cumulant(self, theta):
        """Cumulant kappa(theta); kappa'(theta) = mu, kappa''(theta) = rho."""
        arr = _asfloat(theta)
        if not np.all(np.isfinite(arr)):
            raise DomainError("natural parameter contains non-finite values")
        if self.kind == "gaussian":
            kappa = 0.5 * arr * arr
        elif self.kind == "poisson":
            with np.errstate(over="ignore"):
                kappa = np.exp(arr)
        elif self.kind == "bernoulli":
            # log(1 + e^theta) without overflow for large |theta|
            kappa = np.logaddexp(0.0, arr)
        else:
            if np.any(arr >= 0):
                raise DomainError(
                    "negative binomial natural parameter must be negative"
                )
            kappa = -self.dispersion * np.log1p(-np.exp(arr))
        return _ret(kappa, theta)

    def loglik_term(self, y, theta):
        """Per-cell partial log likelihood y*theta - kappa(theta)."""
        y_arr = _asfloat(y)
        self.check_support(y_arr)
        t_arr = _asfloat(theta)
        out = y_arr * t_arr - self.cumulant(t_arr)
        if np.ndim(y) == 0 and np.ndim(theta) == 0:
            return float(out)
        return out

    # ------------------------------------------------------------------
    # support and domain checks

    def check_support(self, y) -> None:
        """Raise DataError if any value lies outside the family's support."""
        arr = _asfloat(y)
        if not np.all(np.isfinite(arr)):
            raise DataError("data contains non-finite values")
        if self.kind in ("poisson", "negative_binomial"):
            if np.any(arr < 0):
                raise DataError(f"{self.kind} data must be nonnegative")
        elif self.kind == "bernoulli":
            if np.any((arr != 0) & (arr != 1)):
                raise DataError("bernoulli data must lie in {0, 1}")

    def _check_mean_domain(self, arr) -> None:
        if not np.all(np.isfinite(arr)):
            raise DomainError("mean contains non-finite values")
        if self.kind == "gaussian":
            return
        if np.any(arr <= 0):
            raise DomainError(f"{self.kind} mean must be positive")
        if self.kind == "bernoulli" and np.any(arr >= 1):
            raise DomainError("bernoulli mean must be below 1")


def gaussian() -> Family:
    return Family("gaussian")


def poisson() -> Family:
    return Family("poisson")


def bernoulli() -> Family:
    return Family("bernoulli")


def negative_binomial(dispersion: float) -> Family:
    return Family("negative_binomial", dispersion=dispersion)
