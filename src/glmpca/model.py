"""Model state and its derivatives.

The data matrix Y is J x N with features as rows and observations as
columns.  Covariates and latent dimensions live in two augmented factor
matrices,

    U (N x K) with column blocks [X | Gamma | U_latent]
    V (J x K) with column blocks [A | Z    | V_latent]

where K = n_obs_cov + n_feat_cov + n_latent, so that the linear predictor
is R = V U' + 1 delta'.  The X and Z blocks are fixed; A, Gamma, and the
latent blocks are estimated.  The objective is the partial log likelihood
minus one ridge penalty on the latent columns of U and V; refresh()
returns it with the means and working weights of the same linear
predictor.  The Fisher-scoring system of one block, "U" or "V", is
formed here and only here: its gradient (the score vector, the
right-hand side of the optimizer's block step) and its per-row
information matrices (the Gram matrices the step solves), each over all
of the block's updateable columns.  The U versions are the V ones on
transposed J x N arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ConfigError, DataError, DomainError
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
    """The per-cell quantities Family._working_weights derives from the
    linear predictor; each block step scores with them, the U step with
    those of the refresh that scored its starting point."""

    M: np.ndarray          # J x N means g^{-1}(R), clamped
    S: np.ndarray | float  # J x N score weights h/rho(M); 1 if canonical
    I: np.ndarray          # J x N information weights h^2/rho(M)


@dataclass
class ModelState:
    """Data plus all fitted quantities.  Single writer; reads may be shared.
    ``penalty`` is the ridge lambda on U_latent and V_latent only."""

    Y: np.ndarray
    family: Family
    U: np.ndarray
    V: np.ndarray
    delta: np.ndarray
    penalty: float
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
            f"{what} must be a matrix with {n_rows} rows, "
            f"got shape {mat.shape}"
        )
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"{what} contains non-finite values")
    return mat


def _check_full_rank(mat: np.ndarray, what: str) -> None:
    if mat.shape[1] and np.linalg.matrix_rank(mat) < mat.shape[1]:
        raise ConfigError(f"{what} is rank deficient")


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
                offset="none", penalty: float = 1e-4,
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
    intercept : bool
        Prepend the all-ones observation covariate.
    offset : "none", "auto", or array (N,)
        Per-observation shift of the linear predictor.
    penalty : float
        One nonnegative ridge lambda, applied to the latent columns of U
        and of V only; coefficient blocks are never penalized.
    seed : int
        Seeds the latent initialization; a nonnegative integer.

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

    if (isinstance(n_latent, bool)
            or not isinstance(n_latent, (int, np.integer)) or n_latent < 1):
        raise ConfigError("n_latent must be a positive integer")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if (isinstance(penalty, bool)
            or not isinstance(penalty, (int, float, np.integer, np.floating))
            or not 0 <= penalty < np.inf):
        raise ConfigError(
            f"penalty must be a nonnegative finite scalar, got {penalty!r}")
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

    delta = resolve_offset(offset, Y, family)
    return ModelState(Y=Y, family=family, U=U, V=V, delta=delta,
                      penalty=float(penalty), index=index)


# ----------------------------------------------------------------------
# predictor, objective, derivatives


def linear_predictor(state: ModelState) -> np.ndarray:
    """R = V U' + 1 delta', the J x N linear predictor."""
    R = state.V @ state.U.T
    R += state.delta[None, :]
    return R


def finite_factors(state: ModelState) -> bool:
    """Whether U, V and delta are finite: O((J + N) K), no J x N scan."""
    return all(np.isfinite(a).all() for a in (state.U, state.V, state.delta))


def predictor_stats(state: ModelState) -> PredictorStats:
    """Means and working weights at R, for finite factors only."""
    return PredictorStats(*state.family._working_weights(
        linear_predictor(state)))


def refresh(state: ModelState) -> tuple[float, PredictorStats]:
    """Penalized partial log likelihood Q and the means and working
    weights, all from one linear predictor R built afresh from U, V and
    delta:

    Q = sum_ij [ y_ij theta_ij - kappa(theta_ij) ]
        - 1/2 lambda (||U_latent||^2 + ||V_latent||^2)

    The optimizer scores a point once: the stats of an accepted point
    feed the next U step.  Nothing is checked here: the factors must be
    finite (finite_factors), Y is validated by build_model and the means
    are clamped into the domain.  A non-finite Q is returned as-is so
    the optimizer's step halving can react to it.
    """
    fam = state.family
    R = linear_predictor(state)
    stats = PredictorStats(*fam._working_weights(R))
    q = fam._loglik_sum(state.Y, R, stats.M)  # R is overwritten
    for latent in (state.U_latent, state.V_latent):
        q -= 0.5 * state.penalty * float(np.sum(latent ** 2))
    return q, stats


def objective(state: ModelState) -> float:
    """Penalized partial log likelihood Q; see ``refresh``, which also
    returns the means and working weights of the same predictor.  Raises
    DomainError when U, V or delta holds a non-finite value."""
    if not finite_factors(state):
        raise DomainError("factors or offset contain non-finite values")
    return refresh(state)[0]


class Block(NamedTuple):
    """One factor matrix seen from its own side.

    The U step is the V step with U and V swapped and every J x N array
    read through its transpose, so each derivative is written once.  The
    latent columns, the only penalized ones, are the last n_latent of
    ``cols``.
    """

    own: np.ndarray        # the block's factor matrix, U or V
    partner: np.ndarray    # the other factor matrix
    cols: list[int]        # updateable: Gamma or A, then the latent ones
    rows: Callable         # views a J x N array with one row per own row


def block_of(state: ModelState, block: str) -> Block:
    """The "U" or "V" side of ``state``."""
    idx = state.index
    if block == "U":
        return Block(state.U, state.V, idx.u_cols, np.transpose)
    if block == "V":
        return Block(state.V, state.U, idx.v_cols, np.asarray)
    raise ConfigError(f"block must be 'U' or 'V', got {block!r}")


def gradient(state: ModelState, block: str,
             stats: PredictorStats | None = None) -> np.ndarray:
    """dQ/dU or dQ/dV over the updateable columns of ``block``: the
    right-hand side of the block step, one row per own row and one column
    per entry of the block's ``cols``.

    With D the partner's updateable columns and res = (Y - M) * S the
    score residual, row r is D' res_r, minus lambda own_r on the latent
    columns, the last n_latent of ``cols``.  Where a mean is
    clamped, M is the clamp value, so the gradient there keeps the pull
    y - M although the objective is flat in R.
    """
    side = block_of(state, block)
    if stats is None:
        stats = predictor_stats(state)
    resid = state.Y - stats.M
    if np.ndim(stats.S):  # S is the scalar 1 for canonical links
        resid *= stats.S
    grad = side.rows(resid) @ side.partner[:, side.cols]
    latent = state.index.latent_slice
    grad[:, -state.index.n_latent:] -= state.penalty * side.own[:, latent]
    return grad


def fisher_gram(state: ModelState, block: str, stats: PredictorStats,
                rows: slice = slice(None),
                chunk: int | None = None) -> np.ndarray:
    """The Fisher information of the own rows ``rows`` over the
    updateable columns of ``block``: one m x m matrix per row,

        D' diag(I_r) D + lambda on the latent diagonal,

    stacked, with D the partner's updateable columns and I_r the row's
    information weights.  Each row's D' diag(I_r) D is one row of
    ``I_r @ P``, with P the n x m² column products of D.  P is built
    ``chunk`` design rows at a time (all at once by default) and the
    partial GEMMs summed, so P never has more than ``chunk * m²`` cells.
    A diagonal entry is 0 only for an unpenalized column (a coefficient
    column, or any column when lambda is 0) whose partner column is all
    zero.
    """
    side = block_of(state, block)
    design = side.partner[:, side.cols]
    info = side.rows(stats.I)[rows]
    n, m = design.shape
    chunk = chunk or n
    gram = np.zeros((info.shape[0], m * m))
    for lo in range(0, n, chunk):
        d = design[lo:lo + chunk]
        gram += info[:, lo:lo + chunk] @ (
            d[:, :, None] * d[:, None, :]).reshape(-1, m * m)
    gram = gram.reshape(-1, m, m)
    latent = range(m - state.index.n_latent, m)
    gram[:, latent, latent] += state.penalty
    return gram
