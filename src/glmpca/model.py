"""Model state and its derivatives.

The data matrix Y is J x N with features as rows and observations as
columns.  Covariates and latent dimensions live in two augmented factor
matrices,

    U (N x K) with column blocks [X | Gamma | U_latent]
    V (J x K) with column blocks [A | Z    | V_latent]

where K = n_obs_cov + n_feat_cov + n_latent, so that the linear predictor
is R = V U' + 1 delta'.  The X and Z blocks are fixed; A, Gamma, and the
latent blocks are estimated.  The objective is the partial log likelihood
minus ridge penalties on the updateable columns.  The Fisher-scoring
system of one block, "U" or "V", is formed here and only here: its
gradient (the score vector, the right-hand side of the optimizer's block
step) and its per-row information matrices (the Gram matrices the step
solves).  The U versions are the V ones on transposed J x N arrays.
fisher_info is the diagonal of a one-column Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ConfigError, DataError
from .families import Family

INIT_SCALE = 0.1  # latent init sd is INIT_SCALE / sqrt(n_latent)


@dataclass(frozen=True)
class IndexSets:
    """Column layout of the augmented factor matrices.

    Columns 0..n_obs_cov-1 hold the observation covariates (X in U, the
    coefficient matrix A in V); the next n_feat_cov columns hold the
    feature covariates (coefficients Gamma in U, Z in V); the last
    n_latent columns are the latent block.
    """

    n_obs_cov: int
    n_feat_cov: int
    n_latent: int

    def __post_init__(self):
        if self.n_obs_cov < 0 or self.n_feat_cov < 0:
            raise ConfigError("covariate counts must be nonnegative")
        if self.n_latent < 1:
            raise ConfigError("need at least one latent dimension")

    @property
    def n_total(self) -> int:
        return self.n_obs_cov + self.n_feat_cov + self.n_latent

    @property
    def obs_cols(self) -> range:
        return range(0, self.n_obs_cov)

    @property
    def feat_cols(self) -> range:
        return range(self.n_obs_cov, self.n_obs_cov + self.n_feat_cov)

    @property
    def latent_cols(self) -> range:
        return range(self.n_obs_cov + self.n_feat_cov, self.n_total)

    @property
    def u_cols(self) -> list[int]:
        """Updateable columns of U (Gamma block, then latent)."""
        return list(self.feat_cols) + list(self.latent_cols)

    @property
    def v_cols(self) -> list[int]:
        """Updateable columns of V (A block, then latent)."""
        return list(self.obs_cols) + list(self.latent_cols)

    @property
    def obs_slice(self) -> slice:
        return slice(0, self.n_obs_cov)

    @property
    def feat_slice(self) -> slice:
        return slice(self.n_obs_cov, self.n_obs_cov + self.n_feat_cov)

    @property
    def latent_slice(self) -> slice:
        return slice(self.n_obs_cov + self.n_feat_cov, self.n_total)


class PredictorStats(NamedTuple):
    """The per-cell quantities Family.working_weights derives from the
    linear predictor; the optimizer builds them once per block step."""

    M: np.ndarray          # J x N means g^{-1}(R), clamped
    S: np.ndarray | float  # J x N score weights h/rho(M); 1 if canonical
    I: np.ndarray          # J x N information weights h^2/rho(M)


@dataclass
class ModelState:
    """Data plus all fitted quantities.  Single writer; reads may be shared."""

    Y: np.ndarray
    family: Family
    U: np.ndarray
    V: np.ndarray
    delta: np.ndarray
    lambda_u: np.ndarray
    lambda_v: np.ndarray
    index: IndexSets

    @property
    def n_obs(self) -> int:
        return self.U.shape[0]

    @property
    def n_feat(self) -> int:
        return self.V.shape[0]

    @property
    def X(self) -> np.ndarray:
        return self.U[:, self.index.obs_slice]

    @property
    def Z(self) -> np.ndarray:
        return self.V[:, self.index.feat_slice]

    @property
    def A(self) -> np.ndarray:
        return self.V[:, self.index.obs_slice]

    @property
    def Gamma(self) -> np.ndarray:
        return self.U[:, self.index.feat_slice]

    @property
    def U_latent(self) -> np.ndarray:
        return self.U[:, self.index.latent_slice]

    @property
    def V_latent(self) -> np.ndarray:
        return self.V[:, self.index.latent_slice]


# ----------------------------------------------------------------------
# validation helpers


def check_data_matrix(Y, family: Family) -> np.ndarray:
    """Validate a J x N data matrix against the family's support.

    Counts must be nonnegative integers, bernoulli data must be 0/1, and
    everything must be finite.  Errors name the first offending cell with
    1-based row/column indices.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DataError("data must be a 2-d matrix (features x observations)")
    n_feat, n_obs = Y.shape
    if n_feat < 1 or n_obs < 2:
        raise DataError(
            f"data must have at least 1 feature row and 2 observation "
            f"columns, got {n_feat} x {n_obs}"
        )
    bad, reason = family._outside_support(Y)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise DataError(f"invalid entry {float(Y[j, i])!r} at row {j + 1}, "
                        f"column {i + 1}: {reason}")
    return Y


def _as_design(mat, n_rows: int, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2 or mat.shape[0] != n_rows:
        raise ConfigError(
            f"{what} must be a matrix with {n_rows} rows, got shape {mat.shape}"
        )
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"{what} contains non-finite values")
    return mat


def _check_full_rank(mat: np.ndarray, what: str) -> None:
    if mat.shape[1] and np.linalg.matrix_rank(mat) < mat.shape[1]:
        raise ConfigError(f"{what} is rank deficient")


def _penalty_vector(value, n_latent: int, what: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n_latent, float(vec))
    if vec.shape != (n_latent,):
        raise ConfigError(
            f"{what} must be a scalar or a length-{n_latent} vector"
        )
    if not np.all(np.isfinite(vec)) or np.any(vec < 0):
        raise ConfigError(f"{what} must be nonnegative and finite")
    return vec


def resolve_offset(offset, Y: np.ndarray, family: Family) -> np.ndarray:
    """Resolve an offset policy or explicit vector to a length-N array.

    "none" gives zeros.  "auto" encodes relative column size: for log
    links it is log(colsum / mean colsum); for the identity link it is
    the column means.
    """
    n_obs = Y.shape[1]
    if isinstance(offset, str):
        if offset == "none":
            return np.zeros(n_obs)
        if offset == "auto":
            if family.link == "log":
                colsums = Y.sum(axis=0)
                if np.any(colsums <= 0):
                    i = int(np.argmax(colsums <= 0))
                    raise ConfigError(
                        f"auto offset undefined: column {i + 1} has "
                        "nonpositive total"
                    )
                return np.log(colsums / colsums.mean())
            if family.link == "identity":
                return Y.mean(axis=0)
            raise ConfigError(
                f"auto offset is not defined for the {family.link} link"
            )
        raise ConfigError(f"unknown offset policy {offset!r}")
    vec = np.asarray(offset, dtype=float)
    if vec.shape != (n_obs,):
        raise ConfigError(f"offset must have length {n_obs}, got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError("offset contains non-finite values")
    return vec.copy()


# ----------------------------------------------------------------------
# construction


def build_model(Y, *, n_latent: int, family: Family, obs_covariates=None,
                feat_covariates=None, intercept: bool = True,
                offset="none", penalty_u=1e-4, penalty_v=1e-4,
                seed: int = 0) -> ModelState:
    """Assemble a ModelState ready for fitting.

    Parameters
    ----------
    Y : array (J, N)
        Data, features as rows and observations as columns.
    n_latent : int
        Number of latent dimensions.
    family : Family
        Noise model.
    obs_covariates : array (N, K), optional
        Observation-level design matrix.  An all-ones intercept column is
        prepended when ``intercept`` is true (feature-specific intercepts,
        the analogue of row-centering in PCA).
    feat_covariates : array (J, K), optional
        Feature-level design matrix.
    offset : "none", "auto", or array (N,)
        Per-observation shift of the linear predictor.
    penalty_u, penalty_v : float or array (n_latent,)
        Ridge penalties on the latent columns of U and V.  Coefficient
        blocks are never penalized.
    seed : int
        Seeds the latent initialization.

    The latent blocks start at small seeded Gaussian noise with standard
    deviation 0.1/sqrt(n_latent) so that initial means stay near
    g⁻¹(offset); the coefficient blocks start at zero.
    """
    Y = check_data_matrix(Y, family)
    n_feat, n_obs = Y.shape

    blocks = []
    if intercept:
        blocks.append(np.ones((n_obs, 1)))
    if obs_covariates is not None:
        blocks.append(_as_design(obs_covariates, n_obs, "obs_covariates"))
    X = np.hstack(blocks) if blocks else np.empty((n_obs, 0))
    if feat_covariates is not None:
        Z = _as_design(feat_covariates, n_feat, "feat_covariates")
    else:
        Z = np.empty((n_feat, 0))
    _check_full_rank(X, "observation design matrix")
    _check_full_rank(Z, "feature design matrix")

    if not isinstance(n_latent, (int, np.integer)) or n_latent < 1:
        raise ConfigError("n_latent must be a positive integer")
    index = IndexSets(X.shape[1], Z.shape[1], int(n_latent))
    if index.n_total >= min(n_obs, n_feat):
        raise ConfigError(
            f"n_latent + covariate columns = {index.n_total} must be below "
            f"min(N, J) = {min(n_obs, n_feat)}"
        )

    rng = np.random.default_rng(seed)
    sd = INIT_SCALE / np.sqrt(index.n_latent)
    U = np.zeros((n_obs, index.n_total))
    V = np.zeros((n_feat, index.n_total))
    U[:, index.obs_slice] = X
    V[:, index.feat_slice] = Z
    U[:, index.latent_slice] = rng.normal(0.0, sd, (n_obs, index.n_latent))
    V[:, index.latent_slice] = rng.normal(0.0, sd, (n_feat, index.n_latent))

    lambda_u = np.zeros(index.n_total)
    lambda_v = np.zeros(index.n_total)
    lambda_u[index.latent_slice] = _penalty_vector(
        penalty_u, index.n_latent, "penalty_u")
    lambda_v[index.latent_slice] = _penalty_vector(
        penalty_v, index.n_latent, "penalty_v")

    delta = resolve_offset(offset, Y, family)
    return ModelState(Y=Y, family=family, U=U, V=V, delta=delta,
                      lambda_u=lambda_u, lambda_v=lambda_v, index=index)


# ----------------------------------------------------------------------
# predictor, objective, derivatives


def linear_predictor(state: ModelState) -> np.ndarray:
    """R = V U' + 1 delta', the J x N linear predictor."""
    R = state.V @ state.U.T
    R += state.delta[None, :]
    return R


def predictor_stats(state: ModelState) -> PredictorStats:
    """Means and working weights at the current linear predictor."""
    return PredictorStats(*state.family.working_weights(
        linear_predictor(state)))


def objective(state: ModelState) -> float:
    """Penalized partial log likelihood Q.

    Q = sum_ij [ y_ij theta_ij - kappa(theta_ij) ]
        - 1/2 sum over updateable U columns of lambda_u[k] * ||U[:, k]||^2
        - 1/2 sum over updateable V columns of lambda_v[k] * ||V[:, k]||^2

    R is built afresh from U, V and delta.  A non-finite value is
    returned as-is so the optimizer's damping logic can react to it.
    Y is validated by build_model and the means are clamped into the
    domain, so neither is checked again here.
    """
    fam = state.family
    M = fam.inverse_link(linear_predictor(state))
    q = float(np.sum(fam._loglik(state.Y, fam._theta(M))))
    idx = state.index
    u_cols = idx.u_cols
    v_cols = idx.v_cols
    q -= 0.5 * float(
        state.lambda_u[u_cols] @ np.sum(state.U[:, u_cols] ** 2, axis=0))
    q -= 0.5 * float(
        state.lambda_v[v_cols] @ np.sum(state.V[:, v_cols] ** 2, axis=0))
    return q


class Block(NamedTuple):
    """One factor matrix seen from its own side.

    The U step is the V step with U and V swapped and every J x N array
    read through its transpose, so each derivative is written once.
    """

    own: np.ndarray        # the block's factor matrix, U or V
    partner: np.ndarray    # the other factor matrix
    penalty: np.ndarray    # ridge penalties of the block's columns
    cols: list[int]        # updateable: Gamma or A, then the latent ones
    rows: Callable         # views a J x N array with one row per own row


def block_of(state: ModelState, block: str,
             cols: int | list[int] | None = None) -> Block:
    """The "U" or "V" side of ``state``; ``cols``, when given, must be one
    of its updateable columns or a list of them."""
    idx = state.index
    if block == "U":
        side = Block(state.U, state.V, state.lambda_u, idx.u_cols,
                     np.transpose)
    elif block == "V":
        side = Block(state.V, state.U, state.lambda_v, idx.v_cols,
                     np.asarray)
    else:
        raise ConfigError(f"block must be 'U' or 'V', got {block!r}")
    for k in ([] if cols is None else np.atleast_1d(cols)):
        if k not in side.cols:
            raise ConfigError(
                f"column {k} is not an updateable {block} column")
    return side


def gradient(state: ModelState, block: str, cols: int | list[int],
             stats: PredictorStats | None = None) -> np.ndarray:
    """dQ/dU[:, cols] or dQ/dV[:, cols] for updateable columns of
    ``block``: the right-hand side of the block step.

    With D the partner's columns ``cols`` and res = (Y - M) * S the score
    residual, row r is D' res_r - lambda own_r.  ``cols`` is one column
    (a length-N or length-J vector is returned) or a list of them (one
    column of the result per entry).  Where a mean is clamped, M is the
    clamp value, so the gradient there keeps the pull y - M although
    the objective is flat in R.
    """
    side = block_of(state, block, cols)
    if stats is None:
        stats = predictor_stats(state)
    resid = state.Y - stats.M
    if np.ndim(stats.S):  # S is the scalar 1 for canonical links
        resid *= stats.S
    return (side.rows(resid) @ side.partner[:, cols]
            - side.penalty[cols] * side.own[:, cols])


def fisher_gram(state: ModelState, block: str, cols: list[int],
                stats: PredictorStats, rows: slice = slice(None),
                chunk: int | None = None) -> np.ndarray:
    """The Fisher information of the own rows ``rows`` over the
    updateable columns ``cols`` of ``block``: one m x m matrix per row,

        D' diag(I_r) D + diag(lambda),

    stacked, with D the partner's columns ``cols`` and I_r the row's
    information weights.  Each row's D' diag(I_r) D is one row of
    ``I_r @ P``, with P the n x m² column products of D.  P is built
    ``chunk`` design rows at a time (all at once by default) and the
    partial GEMMs summed, so P never has more than ``chunk * m²`` cells.
    """
    side = block_of(state, block, cols)
    design = side.partner[:, cols]
    info = side.rows(stats.I)[rows]
    n, m = design.shape
    chunk = chunk or n
    gram = np.zeros((info.shape[0], m * m))
    for lo in range(0, n, chunk):
        d = design[lo:lo + chunk]
        gram += info[:, lo:lo + chunk] @ (
            d[:, :, None] * d[:, None, :]).reshape(-1, m * m)
    gram = gram.reshape(-1, m, m)
    gram[:, range(m), range(m)] += side.penalty[cols]
    return gram


def fisher_info(state: ModelState, block: str, k: int,
                stats: PredictorStats | None = None) -> np.ndarray:
    """Diagonal Fisher information for one updateable column of
    ``block``, the diagonal of its one-column Gram matrices.  Entries are
    strictly positive unless the column is unpenalized and its partner
    column is all zero; then they are all 0."""
    if stats is None:
        stats = predictor_stats(state)
    return fisher_gram(state, block, [k], stats)[:, 0, 0]
