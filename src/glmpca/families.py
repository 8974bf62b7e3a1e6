"""Exponential-family noise models.

Each family is a kind with its standard link.  The fit runs only two
of its kernels: _working_weights, which maps a linear predictor to the
clamped mean g⁻¹ and the Fisher-scoring weights built from its
derivative h and the variance function rho(mu), and _loglik_sum.  The
natural parameter theta(mu) serves natural_param only, and the cumulant
kappa(theta) loglik_term only.  Every supported family's log density is

    c(y) + y*theta - kappa(theta)

and all likelihood values reported by this package drop the data-only
constant c(y) (a "partial" log likelihood): it shifts the objective by a
constant, so maximizers and convergence monitoring are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (ConfigError, DataError, DomainError, _as_real,
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


def _guarded(kernel, *checked):
    """kernel(*arrays) for (argument, check) pairs, each argument checked
    in turn by its check, which returns it as a float array; overflow and
    underflow are ignored whatever the caller's np.seterr, and a 0-d
    result is a float."""
    arrays = [check(x) for x, check in checked]
    with np.errstate(over="ignore", under="ignore"):
        out = kernel(*arrays)
    return float(out) if np.ndim(out) == 0 else out


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
        """Mean mu = g⁻¹(r), clamped into the domain interior.  An exp
        that overflows or underflows on the way is clamped."""
        return _guarded(self._mean, (r, self._check_predictor))

    def dinverse_link(self, r):
        """Derivative h(r) = d g⁻¹(r) / dr > 0: the clamped mean for the
        log link, which keeps h finite, and rho(mu) for canonical links."""
        return _guarded(lambda arr: self._mean(arr) if self.link == "log"
                        else self._rho(self._mean(arr)),
                        (r, self._check_predictor))

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
        array; r is not modified.  An exp that overflows or underflows
        is clamped like any other; it sets no error state of its own, so
        it runs under its caller's (model.score_pass and
        model.sketch_pass ignore all errors once per pass)."""
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
    # Each public method runs its private arithmetic through _guarded.
    # The fit calls none of them: _working_weights and _loglik_sum work
    # on means already clamped and data already checked by build_model.

    def variance(self, mu):
        """Variance function rho(mu); strictly positive on the domain."""
        return _guarded(self._rho, (mu, self._check_mean_domain))

    def natural_param(self, mu):
        """Natural parameter theta(mu)."""
        return _guarded(self._theta, (mu, self._check_mean_domain))

    def loglik_term(self, y, theta):
        """Per-cell partial log likelihood y*theta - kappa(theta), where
        kappa'(theta) = mu and kappa''(theta) = rho: kappa(theta) is
        -loglik_term(0, theta)."""
        return _guarded(lambda y, t: y * t - self._kappa(t),
                        (y, self._check_support),
                        (theta, self._check_natural_domain))

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
        # log(mu/(mu+alpha)), without cancellation at large means; where
        # alpha/mu overflows, log1p(alpha/mu) is log(alpha) - log(mu)
        ratio = self.dispersion / mu
        return np.where(np.isinf(ratio), np.log(mu) - np.log(self.dispersion),
                        -np.log1p(ratio))

    def _kappa(self, theta):
        if self.kind == "gaussian":
            return 0.5 * theta * theta
        if self.kind == "poisson":
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

    def _loglik_sum(self, y, r, mu):
        """Sum of y*theta(mu) - kappa(theta(mu)) over all cells, with mu
        the clamped mean of the predictor r, arrays of one shape (read
        C-ordered: np.vdot copies any other); r may be overwritten, as
        the one temporary.  The sums over cells of y are dot products,
        so no product array is formed: the Gaussian sum is
        y.mu - mu.mu / 2.

        No log of an exp: for the Poisson theta is r, clipped to the
        mean clamps, and the sum is y.theta - sum(mu).  For the negative
        binomial theta is -t with t = log1p(alpha/mu), and kappa is
        alpha log1p(mu/alpha), so the sum -(y.t + sum(kappa)) adds
        positive terms, each to full relative precision, at large means
        and at large alpha alike.  A Bernoulli cell is log(mu) or
        log(1 - mu), by y, so it follows the clamped mean, not r; it is
        log|y - 1 + mu|, which rounds nothing for y in {0, 1}: y - 1 is
        exact, and mu - 1 is exactly -(1 - mu).
        """
        if self.kind == "gaussian":  # theta == mu, kappa = mu^2/2
            return float(np.vdot(y, mu) - 0.5 * np.vdot(mu, mu))
        if self.kind == "bernoulli":
            np.subtract(y, 1.0, out=r)
            r += mu
            np.abs(r, out=r)
            return float(np.sum(np.log(r, out=r)))
        if self.kind == "poisson":
            np.clip(r, LOG_MEAN_FLOOR, LOG_MEAN_CEIL, out=r)
            return float(np.vdot(y, r) - np.sum(mu))
        t = np.log1p(np.divide(self.dispersion, mu, out=r), out=r)
        yt = np.vdot(y, t)
        kappa = self.dispersion * np.sum(
            np.log1p(np.divide(mu, self.dispersion, out=r), out=r))
        return -float(yt + kappa)

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

    # Each check returns a public method's argument as a float array, or
    # raises for one that is not finite and real (exceptions._as_real) or
    # is outside the domain: DataError for data, as build_model does, else
    # DomainError.

    def _check_predictor(self, r) -> np.ndarray:
        return _as_real(r, "linear predictor", DomainError)

    def _check_support(self, y) -> np.ndarray:
        arr = _as_real(y, "data", DataError, finite=False)
        bad, reason = self._outside_support(arr)
        if bad.any():
            raise DataError(f"data outside the support: {reason}")
        return arr

    def _check_natural_domain(self, theta) -> np.ndarray:
        arr = _as_real(theta, "natural parameter", DomainError)
        if self.kind == "negative_binomial" and np.any(arr >= 0):
            raise DomainError(
                "negative binomial natural parameter must be negative")
        return arr

    def _check_mean_domain(self, mu) -> np.ndarray:
        arr = _as_real(mu, "mean", DomainError)
        if self.kind != "gaussian" and np.any(arr <= 0):
            raise DomainError(f"{self.kind} mean must be positive")
        if self.kind == "bernoulli" and np.any(arr >= 1):
            raise DomainError("bernoulli mean must be below 1")
        return arr


def gaussian() -> Family:
    return Family("gaussian")


def poisson() -> Family:
    return Family("poisson")


def bernoulli() -> Family:
    return Family("bernoulli")


def negative_binomial(dispersion: float) -> Family:
    return Family("negative_binomial", dispersion=dispersion)
