"""Independent reference implementations used by the test suite.

Everything here is deliberately written against a different codepath
than the functions it checks: finite differences instead of analytic
gradients, scalar python loops with math.* instead of vectorized numpy
kernels, IRLS instead of block scoring, a direct SVD instead of the
alternating optimizer, and a line-by-line MatrixMarket reader instead
of one ``np.loadtxt`` call.  Desk scale only; performance is a non-goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glmpca.exceptions import DataError
from glmpca.families import (MEAN_CEIL, MEAN_FLOOR, PROB_CEIL, PROB_FLOOR,
                             Family)
from glmpca.model import ModelState, score_pass


class OracleError(Exception):
    """A reference computation could not produce a trustworthy value."""


@dataclass(frozen=True)
class OracleReport:
    """Worst-case disagreement between two arrays."""

    max_abs_err: float
    max_rel_err: float
    location: tuple[int, ...]


def report(actual, expected) -> OracleReport:
    """Compare arrays; relative error uses denominator 1 + |expected| so
    near-zero entries degrade gracefully to an absolute comparison."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    abs_err = np.abs(actual - expected)
    rel_err = abs_err / (1.0 + np.abs(expected))
    loc = np.unravel_index(int(np.argmax(rel_err)), rel_err.shape)
    return OracleReport(float(abs_err.max()), float(rel_err.max()), loc)


# ----------------------------------------------------------------------
# finite differences


def finite_diff_gradient(state: ModelState, block: str, k: int,
                         eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the objective along one column.

    block is "U" or "V"; eps must lie in [1e-8, 1e-4].
    """
    if not 1e-8 <= eps <= 1e-4:
        raise OracleError(f"eps {eps} outside [1e-8, 1e-4]")
    if block not in ("U", "V"):
        raise OracleError(f"block must be 'U' or 'V', got {block!r}")
    mat = state.U if block == "U" else state.V
    grad = np.zeros(mat.shape[0])
    for i in range(mat.shape[0]):
        saved = mat[i, k]
        mat[i, k] = saved + eps
        q_plus = score_pass(state)[0]
        mat[i, k] = saved - eps
        q_minus = score_pass(state)[0]
        mat[i, k] = saved
        grad[i] = (q_plus - q_minus) / (2.0 * eps)
    return grad


# ----------------------------------------------------------------------
# scalar-loop reference formulas (no numpy kernels)


def _mean_of(fam: Family, r: float) -> float:
    if fam.link == "identity":
        return r
    if fam.link == "log":
        mu = math.exp(r) if r < 700 else math.inf
        return min(max(mu, MEAN_FLOOR), MEAN_CEIL)
    mu = 1.0 / (1.0 + math.exp(-r)) if r > -700 else 0.0
    return min(max(mu, PROB_FLOOR), PROB_CEIL)


def _dmean_of(fam: Family, r: float) -> float:
    if fam.link == "identity":
        return 1.0
    mu = _mean_of(fam, r)
    if fam.link == "log":
        return mu
    return mu * (1.0 - mu)


def _variance_of(fam: Family, mu: float) -> float:
    if fam.kind == "gaussian":
        return 1.0
    if fam.kind == "poisson":
        return mu
    if fam.kind == "bernoulli":
        return mu * (1.0 - mu)
    return mu + mu * mu / fam.dispersion


def _loglik_of(fam: Family, y: float, mu: float) -> float:
    if fam.kind == "gaussian":
        return y * mu - 0.5 * mu * mu
    if fam.kind == "poisson":
        return y * math.log(mu) - mu
    if fam.kind == "bernoulli":
        theta = math.log(mu) - math.log1p(-mu)
        kappa = theta + math.log1p(math.exp(-theta)) if theta > 0 \
            else math.log1p(math.exp(theta))
        return y * theta - kappa
    a = fam.dispersion
    theta = math.log(mu) - math.log(mu + a)
    return y * theta + a * (math.log(a) - math.log(mu + a))


def _predictor_entry(state: ModelState, j: int, i: int) -> float:
    total = state.delta[i]
    for k in range(state.index.n_total):
        total += state.V[j, k] * state.U[i, k]
    return total


def scalar_objective(state: ModelState) -> float:
    """Triple-loop evaluation of the penalized objective."""
    q = 0.0
    for j in range(state.n_feat):
        for i in range(state.n_obs):
            mu = _mean_of(state.family, _predictor_entry(state, j, i))
            q += _loglik_of(state.family, state.Y[j, i], mu)
    for k in state.index.latent_cols:
        for i in range(state.n_obs):
            q -= 0.5 * state.penalty * state.U[i, k] ** 2
        for j in range(state.n_feat):
            q -= 0.5 * state.penalty * state.V[j, k] ** 2
    return q


def _penalty_of(state: ModelState, k: int) -> float:
    """The ridge lambda on column k: only latent columns are penalized."""
    return state.penalty if k in state.index.latent_cols else 0.0


def scalar_gradient_u(state: ModelState, k: int) -> np.ndarray:
    """Scalar-loop gradient for U[:, k]."""
    fam = state.family
    grad = np.zeros(state.n_obs)
    for i in range(state.n_obs):
        total = 0.0
        for j in range(state.n_feat):
            r = _predictor_entry(state, j, i)
            mu = _mean_of(fam, r)
            total += ((state.Y[j, i] - mu) / _variance_of(fam, mu)
                      * _dmean_of(fam, r) * state.V[j, k])
        grad[i] = total - _penalty_of(state, k) * state.U[i, k]
    return grad


def scalar_fisher_u(state: ModelState, k: int) -> np.ndarray:
    """Scalar-loop Fisher information for U[:, k]."""
    fam = state.family
    info = np.zeros(state.n_obs)
    for i in range(state.n_obs):
        total = 0.0
        for j in range(state.n_feat):
            r = _predictor_entry(state, j, i)
            h = _dmean_of(fam, r)
            total += h * h * state.V[j, k] ** 2 / _variance_of(
                fam, _mean_of(fam, r))
        info[i] = total + _penalty_of(state, k)
    return info


def scalar_gradient_v(state: ModelState, k: int) -> np.ndarray:
    """Scalar-loop gradient for V[:, k]."""
    fam = state.family
    grad = np.zeros(state.n_feat)
    for j in range(state.n_feat):
        total = 0.0
        for i in range(state.n_obs):
            r = _predictor_entry(state, j, i)
            mu = _mean_of(fam, r)
            total += ((state.Y[j, i] - mu) / _variance_of(fam, mu)
                      * _dmean_of(fam, r) * state.U[i, k])
        grad[j] = total - _penalty_of(state, k) * state.V[j, k]
    return grad


def scalar_fisher_v(state: ModelState, k: int) -> np.ndarray:
    """Scalar-loop Fisher information for V[:, k]."""
    fam = state.family
    info = np.zeros(state.n_feat)
    for j in range(state.n_feat):
        total = 0.0
        for i in range(state.n_obs):
            r = _predictor_entry(state, j, i)
            h = _dmean_of(fam, r)
            total += h * h * state.U[i, k] ** 2 / _variance_of(
                fam, _mean_of(fam, r))
        info[j] = total + _penalty_of(state, k)
    return info


# ----------------------------------------------------------------------
# reference GLM and PCA


def irls_glm(y, X, family: Family, offset=None, max_iters: int = 200,
             tol: float = 1e-10) -> np.ndarray:
    """Maximum-likelihood GLM coefficients by iteratively reweighted
    least squares, to ``tol`` relative change.

    Independent of the block-scoring optimizer and of the Family
    kernels: means, their derivatives and variances come from the scalar
    formulas above.  Divergence (or not converging within max_iters)
    raises OracleError so callers can skip.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n <= p:
        raise OracleError("need more observations than coefficients")
    if np.linalg.matrix_rank(X) < p:
        raise OracleError("design matrix is rank deficient")
    offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    beta = np.zeros(p)
    for _ in range(max_iters):
        eta = X @ beta + offset
        mu = np.array([_mean_of(family, r) for r in eta])
        h = np.array([_dmean_of(family, r) for r in eta])
        w = h * h / np.array([_variance_of(family, m) for m in mu])
        z = eta - offset + (y - mu) / h
        try:
            beta_new = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * z))
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"IRLS system singular: {exc}") from exc
        if not np.all(np.isfinite(beta_new)):
            raise OracleError("IRLS diverged to non-finite coefficients")
        change = np.max(np.abs(beta_new - beta)) / (1.0 + np.max(np.abs(beta)))
        beta = beta_new
        if change < tol:
            return beta
    raise OracleError(f"IRLS did not converge in {max_iters} iterations")


def pca_reference(Y, n_components: int):
    """Exact truncated PCA of the row-centered data matrix.

    Returns (scores, loadings) with scores N x L ordered by singular
    value and loadings J x L orthonormal, so that
    loadings @ scores.T reconstructs the best rank-L approximation of
    the centered matrix.
    """
    Y = np.asarray(Y, dtype=float)
    n_feat, n_obs = Y.shape
    if n_components > min(n_feat, n_obs):
        raise OracleError("n_components exceeds min(J, N)")
    centered = Y - Y.mean(axis=1, keepdims=True)
    left, sing, right_t = np.linalg.svd(centered, full_matrices=False)
    loadings = left[:, :n_components]
    scores = right_t[:n_components].T * sing[:n_components]
    return scores, loadings


# ----------------------------------------------------------------------
# reference MatrixMarket reader


def _index(token: str) -> int:
    """An entry index: an integer, or a float whose value is whole."""
    try:
        return int(token)
    except ValueError:
        number = float(token)
        if not number.is_integer():
            raise
        return int(number)


def read_matrix_market_lines(path) -> np.ndarray:
    """The dense matrix of a MatrixMarket coordinate file, read one line
    at a time: the reader's loop before the entries were parsed by one
    ``np.loadtxt`` call, with the same error messages.

    Entries are added in file order, so duplicates sum as in the fast
    reader, and an index may be written in float form with a whole value
    (``2.0``, ``2e0``) as there.  Unlike it, this loop accepts what
    ``int`` and ``float`` accept (underscores, non-ASCII digits) and
    rejects a comment after an entry."""
    path = Path(path)
    rows = cols = None
    remaining = 0
    values = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno == 1:
                fields = line.lower().split()
                if (len(fields) < 4 or fields[0] != "%%matrixmarket"
                        or fields[1] != "matrix" or fields[2] != "coordinate"
                        or fields[3] not in ("real", "integer")
                        or (len(fields) > 4 and fields[4] != "general")):
                    raise DataError(
                        f"{path}:{lineno}: unsupported MatrixMarket banner "
                        f"{line!r} (need 'matrix coordinate real general')")
                continue
            if not line or line.startswith("%"):
                continue
            tokens = line.split()
            if values is None:
                if len(tokens) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 'rows cols nnz' size line")
                try:
                    rows, cols, remaining = (int(t) for t in tokens)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-integer size line {line!r}")
                if rows < 1 or cols < 1 or remaining < 0:
                    raise DataError(f"{path}:{lineno}: invalid sizes {line!r}")
                try:
                    values = np.zeros((rows, cols))
                except (ValueError, MemoryError):  # too big to address
                    raise DataError(
                        f"{path}:{lineno}: cannot hold a dense {rows} x "
                        f"{cols} matrix") from None
                continue
            if len(tokens) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 'row col value' entry")
            try:
                r, c = _index(tokens[0]), _index(tokens[1])
                v = float(tokens[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed entry {line!r}")
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise DataError(
                    f"{path}:{lineno}: entry ({r}, {c}) outside "
                    f"{rows} x {cols} matrix")
            values[r - 1, c - 1] += v
            remaining -= 1
    if values is None:
        raise DataError(f"{path}: missing size line")
    if remaining > 0:
        raise DataError(f"{path}: {remaining} entries missing at end of file")
    if remaining < 0:
        raise DataError(f"{path}: more entries than declared")
    return values
