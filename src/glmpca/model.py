"""Model state, its objective and the scoring pass.

The data matrix Y is J x N with features as rows and observations as
columns.  Covariates and latent dimensions live in two augmented factor
matrices,

    U (N x K) with column blocks [X | Gamma | U_latent]
    V (J x K) with column blocks [A | Z    | V_latent]

where K = n_obs_cov + n_feat_cov + n_latent, so that the linear predictor
is R = V U' + 1 delta'.  The X and Z blocks are fixed; A, Gamma, and the
latent blocks are estimated.  The objective is the partial log likelihood
minus one ridge penalty on the latent columns of U and V.

Everything the fit computes from Y comes from passes over its rows,
CHUNK_ROWS at a time.  The pass every sweep runs (score_pass) gives Q,
the Fisher-scoring system of the U block (its gradient and one
information matrix per row, summed over the chunks) and, when the pass
steps, the V step, which given U separates over the rows of Y.  The V
step is taken one group of consecutive chunks at a time: every chunk
of the group writes its rows of the group's V system, one stacked
solve steps them all, and then the group's chunks are scored.  A
group's V system fits in one chunk buffer.  One function builds a
chunk's system for either block (row_system) from the column products
of the partner's design (column_products), and one adds the ridge into
a stack of row systems, in place, and solves it (solve_rows).  So no
J x N array is made but one chunk's, and no chunk allocates one: a
pass allocates one stack of chunk buffers, and every chunk writes its
predictor, means, weights and log-likelihood temporary into it
(row_weights).  A chunk's predictor is one GEMM, [V | 1] [U | delta]',
with the offset as one more column of the product (linear_predictor).
What is fixed for a pass is set once per pass, not per chunk: the
updateable columns as views of U and V where they are contiguous, and
numpy's error state, which ignores every floating-point error in the
pass (an exp that overflows or underflows is clamped, and a non-finite
Q is the optimizer's to handle).

build_model starts the latent blocks at zero, a state marked as not
yet started, and the fit's first pass over that null point is a pass
of its own (sketch_pass): it scores the point and, in place of the U
system, builds a one-pass sketch of the Pearson residuals
E = (Y - M) S / sqrt(I) there against the fixed test matrix
sketch_matrix, with the spans of the designs X and Z projected out of
E's rows and columns, from which residual_start takes a weighted
rank-L SVD: the start that the fit's first sweep sets the latent
blocks to (optimizer.fit).  The projection leaves the covariate
effects to the coefficient blocks, as postprocessing does at the end
(postprocess.project_out_covariates), so the latent blocks do not start
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, _as_real, check_option
from .families import MEAN_FLOOR, PROB_CEIL, PROB_FLOOR, Family

CHUNK_ROWS = 128  # rows of Y per chunk of the checks and the scoring pass
OVERSAMPLE = 8    # the start's sketch has n_latent + OVERSAMPLE columns


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
        for name in ("n_obs_cov", "n_feat_cov", "n_latent"):
            object.__setattr__(self, name, check_option(
                getattr(self, name), name, integer=True,
                positive=name == "n_latent"))

    @property
    def n_total(self) -> int:
        return self.n_obs_cov + self.n_feat_cov + self.n_latent

    @property
    def u_cols(self) -> list[int]:
        """Updateable columns of U (Gamma block, then latent)."""
        return list(range(self.n_obs_cov, self.n_total))

    @property
    def v_cols(self) -> list[int]:
        """Updateable columns of V (A block, then latent)."""
        return (list(range(self.n_obs_cov))
                + list(range(self.n_obs_cov + self.n_feat_cov, self.n_total)))

    @property
    def obs_slice(self) -> slice:
        return slice(0, self.n_obs_cov)

    @property
    def feat_slice(self) -> slice:
        return slice(self.n_obs_cov, self.n_obs_cov + self.n_feat_cov)

    @property
    def latent_slice(self) -> slice:
        return slice(self.n_obs_cov + self.n_feat_cov, self.n_total)


@dataclass
class ModelState:
    """Data plus all fitted quantities.  Single writer; reads may be shared.
    ``penalty`` is the ridge lambda on U_latent and V_latent only.

    ``started`` is False only on a state build_model returns, whose
    latent blocks are zero: the first sweep of optimizer.fit sets them to
    the residual start and marks the state started.  Any other state,
    one built by hand included, is fit from its own blocks."""

    Y: np.ndarray
    family: Family
    U: np.ndarray
    V: np.ndarray
    delta: np.ndarray
    penalty: float
    index: IndexSets
    started: bool = True

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

    Entries must be real numbers, not complex and not strings; counts
    must be nonnegative integers, bernoulli data must be 0/1, and
    everything must be finite.  The rows are checked CHUNK_ROWS at a time,
    so no J x N temporary is made, and the first chunk holding a bad cell
    wins: the error names that chunk's first offending cell, with 1-based
    row/column indices, and its reason (a non-finite value when the
    chunk holds one).  Y is returned C-ordered, as every chunk of the
    fit reads whole rows of it; a C-ordered float array is not copied.
    """
    # no J x N finiteness mask: the support check, chunk by chunk, names
    # the first non-finite cell
    Y = np.ascontiguousarray(_as_real(Y, "data", DataError, finite=False))
    if Y.ndim != 2:
        raise DataError("data must be a 2-d matrix (features x observations)")
    n_feat, n_obs = Y.shape
    if n_feat < 1 or n_obs < 2:
        raise DataError(
            f"data must have at least 1 feature row and 2 observation "
            f"columns, got {n_feat} x {n_obs}"
        )
    for lo in range(0, n_feat, CHUNK_ROWS):
        bad, reason = family._outside_support(Y[lo:lo + CHUNK_ROWS])
        if bad.any():
            j, i = np.argwhere(bad)[0]
            j += lo
            raise DataError(f"invalid entry {float(Y[j, i])!r} at row "
                            f"{j + 1}, column {i + 1}: {reason}")
    return Y


def _as_design(mat, n_rows: int, what: str) -> np.ndarray:
    mat = _as_real(mat, what, ConfigError)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2 or mat.shape[0] != n_rows:
        raise ConfigError(
            f"{what} must be a matrix with {n_rows} rows, "
            f"got shape {mat.shape}"
        )
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
    vec = _as_real(offset, "offset", ConfigError)
    if vec.shape != (n_obs,):
        raise ConfigError(f"offset must have length {n_obs}, got {vec.shape}")
    return vec.copy()


def null_intercept(Y: np.ndarray, delta: np.ndarray,
                   family: Family) -> np.ndarray:
    """The intercept-only fit of each row of Y given the offset delta,
    in closed form from the row means (one matrix-vector product, with
    weights 1/N, so no sum of finite values overflows):

    - log link: log sum_i y_ij - log sum_i exp(delta_i), the second term
      a log-sum-exp, so no offset overflows.  The Poisson fit; the
      negative binomial takes it as a start.
    - logit: logit(mean_i y_ij), the fit when delta is constant.
    - identity: mean_i y_ij - mean_i delta_i.

    An all-zero row, and for the logit an all-one row, has no finite
    fit: its mean is clipped to MEAN_FLOOR, or into [PROB_FLOOR,
    PROB_CEIL].
    """
    weights = np.full(Y.shape[1], 1.0 / Y.shape[1])
    row_means = Y @ weights
    if family.link == "identity":
        return row_means - delta @ weights
    if family.link == "logit":
        p = np.clip(row_means, PROB_FLOOR, PROB_CEIL)
        return np.log(p) - np.log1p(-p)
    top = delta.max()
    with np.errstate(under="ignore"):  # an offset far below the top
        log_mean_exp = top + np.log(np.mean(np.exp(delta - top)))
    return np.log(np.maximum(row_means, MEAN_FLOOR)) - log_mean_exp


# ----------------------------------------------------------------------
# construction


def build_model(Y, *, n_latent: int, family: Family, obs_covariates=None,
                feat_covariates=None, intercept: bool = True,
                offset="none", penalty: float = 1e-4) -> ModelState:
    """Assemble a ModelState ready for fitting.

    Parameters
    ----------
    Y : array (J, N)
        Data, features as rows and observations as columns.
    n_latent : int
        Number of latent dimensions, at least 1.
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

    Each scalar option must be a finite number, not a bool, and an
    integer where one is asked for (exceptions.check_option); anything
    else raises ConfigError naming the option.

    With an intercept, its coefficients start at the intercept-only fit
    of each feature row given the offset (null_intercept), the start of
    GLM practice, so the first step does not overshoot; the other
    coefficients start at zero.  So do the latent blocks, and the state
    is marked as not yet started: the fit's first pass scores this null
    point and sketches its Pearson residuals, and its first sweep sets
    the latent blocks to their weighted rank-L SVD (residual_start).
    Nothing here is random, so the same input always fits the same way.
    """
    Y = check_data_matrix(Y, family)
    n_feat, n_obs = Y.shape

    X = np.ones((n_obs, 1 if intercept else 0))
    if obs_covariates is not None:
        X = np.hstack([X, _as_design(obs_covariates, n_obs, "obs_covariates")])
    Z = np.empty((n_feat, 0))
    if feat_covariates is not None:
        Z = _as_design(feat_covariates, n_feat, "feat_covariates")
    _check_full_rank(X, "observation design matrix")
    _check_full_rank(Z, "feature design matrix")

    index = IndexSets(X.shape[1], Z.shape[1], n_latent)
    penalty = check_option(penalty, "penalty")
    if index.n_total >= min(n_obs, n_feat):
        raise ConfigError(
            f"n_latent + covariate columns = {index.n_total} must be below "
            f"min(N, J) = {min(n_obs, n_feat)}"
        )

    U = np.zeros((n_obs, index.n_total))
    V = np.zeros((n_feat, index.n_total))
    U[:, index.obs_slice] = X
    V[:, index.feat_slice] = Z

    delta = resolve_offset(offset, Y, family)
    if intercept:
        V[:, 0] = null_intercept(Y, delta, family)
    return ModelState(Y=Y, family=family, U=U, V=V, delta=delta,
                      penalty=penalty, index=index, started=False)


# ----------------------------------------------------------------------
# the scoring pass


def linear_predictor(state: ModelState, rows: slice = slice(None),
                     out: np.ndarray | None = None) -> np.ndarray:
    """R = V U' + 1 delta', the J x N linear predictor, or its rows
    ``rows``; written into ``out`` when one is given.

    R is one GEMM, [V | 1] [U | delta]': the offset enters as one more
    column of the product, so no second pass over R adds it.  Both
    operands are formed at each call, O((n + N) K) copies beside the
    O(n N K) product, and [U | delta]' is formed C-ordered, where the
    product of U' as a transposed view runs slower."""
    V = state.V[rows]
    n, k = V.shape
    left = np.empty((n, k + 1))
    left[:, :k] = V
    left[:, k] = 1.0
    right = np.empty((k + 1, state.n_obs))
    right[:k] = state.U.T
    right[k] = state.delta
    return np.matmul(left, right, out=out)


def finite_factors(state: ModelState) -> bool:
    """Whether U, V and delta are finite: O((J + N) K), no J x N scan."""
    return all(np.isfinite(a).all() for a in (state.U, state.V, state.delta))


def row_weights(state: ModelState, rows: slice,
                buffers: np.ndarray | None = None):
    """R, M, (Y - M) S and I for the rows ``rows`` of Y: the linear
    predictor, its clamped means, the score residual and the information
    weights (Family._working_weights).  Nothing is checked: the factors
    must be finite (finite_factors), Y is validated by build_model and
    the means are clamped into the domain.

    ``buffers``, a 5 x n x N stack for the n rows, is the chunk's slice
    of its pass's one buffer stack (score_pass, sketch_pass): R, the one
    GEMM of linear_predictor, the residual, M, S and I are written into
    its five slices, so they are views of it (I is M for the Poisson,
    and S is the scalar 1 for canonical links).  Without it each is a
    new array.  An exp that overflows or underflows sets no error state
    of its own (Family._mean): each pass ignores every floating-point
    error once per pass, and any other caller runs under its own."""
    if buffers is None:
        buffers = (None,) * 5
    R = linear_predictor(state, rows, out=buffers[0])
    M, S, I = state.family._working_weights(R, out=buffers[2:])
    resid = np.subtract(state.Y[rows], M, out=buffers[1])
    if isinstance(S, np.ndarray):  # S is the scalar 1 for canonical links
        resid *= S
    return R, M, resid, I


def column_products(design: np.ndarray) -> np.ndarray:
    """The n x m² products D[:, a] D[:, b] of the columns of the n x m
    matrix D = ``design``, row by row."""
    n, m = design.shape
    return (design[:, :, None] * design[:, None, :]).reshape(n, m * m)


def row_system(resid: np.ndarray, info: np.ndarray, design: np.ndarray,
               products: np.ndarray, out=(None, None)
               ) -> tuple[np.ndarray, np.ndarray]:
    """The unpenalized Fisher-scoring system of a set of own rows, given
    the partner's updateable columns D = ``design`` (n x m) and their
    ``products``, column_products(D): the score ``resid @ D``, one row
    per own row, and the information matrices D' diag(info_r) D,
    stacked, each one row of ``info @ products``.  ``out`` holds an
    n x m and an n x m² array, or None each, into which the two
    products are written.

    The V step passes, for each chunk of rows of Y, (resid, I,
    U[:, v_cols]) with the products of that design, formed once per
    pass, and writes the chunk's system into its rows of the group's
    system arrays (score_pass).  The U side passes (resid.T, I.T,
    V_c[:, u_cols]) with the products of each chunk's design, and its
    system is the sum over the chunks.
    """
    m = design.shape[1]
    grad, gram = out
    return (np.matmul(resid, design, out=grad),
            np.matmul(info, products, out=gram).reshape(-1, m, m))


def solve_rows(grad: np.ndarray, gram: np.ndarray, own_latent: np.ndarray,
               penalty: float) -> tuple[np.ndarray, int]:
    """The joint Fisher-scoring step of each own row, for the system of
    ``row_system``: row r solves

        (G_r + lambda on the latent diagonal) step_r
            = g_r - lambda own_r on the latent columns,

    with lambda the ridge ``penalty`` and the latent columns the last
    n_latent, those of ``own_latent``.  The system is penalized in
    place: afterwards ``grad`` holds the right-hand side and ``gram``
    the penalized matrices, so no copy of either is made, and the
    caller's system is spent.  The ridge is written by index, so it
    reaches a ``gram`` that is a non-contiguous view as well.
    Only when the stacked solve raises LinAlgError (some matrix is
    singular) are the singular rows found, as those whose LU
    factorization has an exact zero pivot (np.linalg.slogdet's sign 0,
    the pivot that makes np.linalg.solve raise): the other rows are
    solved in one stacked call, and each singular row takes the diagonal
    step, leaving columns with a zero pivot (an unpenalized column whose
    partner column is all zero) unchanged.  Returns the steps and the
    number of those fallback rows.
    """
    m = grad.shape[1]
    first = m - own_latent.shape[1]  # the first latent column
    grad[:, first:] -= penalty * own_latent
    latent = np.arange(first, m)
    gram[:, latent, latent] += penalty  # the latent diagonal
    try:
        return np.linalg.solve(gram, grad[..., None])[..., 0], 0
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(gram)[0] == 0
    step = np.empty_like(grad)
    step[~singular] = np.linalg.solve(gram[~singular],
                                      grad[~singular, :, None])[..., 0]
    pivot = np.diagonal(gram[singular], axis1=1, axis2=2)
    step[singular] = np.divide(grad[singular], pivot,
                               out=np.zeros_like(pivot), where=pivot != 0)
    return step, int(np.count_nonzero(singular))


def score_pass(state: ModelState, v_scale: float | None = None):
    """One pass over the rows of Y, CHUNK_ROWS at a time: the penalized
    partial log likelihood

    Q = sum_ij [ y_ij theta_ij - kappa(theta_ij) ]
        - 1/2 lambda (||U_latent||^2 + ||V_latent||^2)

    and the unpenalized U system (row_system), both at the point the
    pass ends on.  The pass runs one group of consecutive chunks at a
    time, max(1, N // (m (m + 1))) chunks, m = len(v_cols), with or
    without a step; without one, a group's chunks are scored in order,
    as every chunk is.  With ``v_scale``, the pass takes the V step,
    scaled by ``v_scale``, in place, one group at a time: given U, the
    V step separates over the rows of Y, and every chunk's V system has
    the one design U[:, v_cols], whose column products are formed once
    per pass.  Each chunk of a group writes its V system into its rows
    of the group's system arrays, one solve_rows call steps the group's
    rows of V, and then the group's chunks are scored at their new V
    rows.  So a group's V system takes no more memory than one chunk
    buffer, and it is freed before the group is scored.  A chunk's R
    is built once without a step and twice with one, and no J x N
    array is made.  The pass allocates
    one stack of five chunk buffers, which each chunk's row_weights and
    log likelihood write into, so no chunk allocates an array of its
    size; the returned system shares no memory with it.  The updateable
    columns are set once per pass: U's are the slice n_obs_cov:n_total,
    and V's are the slice 0:n_total without feature covariates, else one
    index array; so a chunk's U design is a view of V, and so is the V
    update without feature covariates.  The error state is set once per
    pass too: the pass ignores every floating-point error.

    Returns (Q, (U gradient N x m, U Gram stack N x m x m), V fallback
    rows).  Nothing is checked, as in row_weights: a non-finite Q is
    returned as-is so the optimizer's step halving can react to it.
    """
    idx = state.index
    n_feat, n_obs = state.n_feat, state.n_obs
    q, fallbacks = 0.0, 0
    u_cols = slice(idx.n_obs_cov, idx.n_total)
    v_cols = np.array(idx.v_cols) if idx.n_feat_cov else slice(idx.n_total)
    m, m_v = len(idx.u_cols), len(idx.v_cols)
    u_grad = np.zeros((n_obs, m))
    u_gram = np.zeros((n_obs, m, m))
    stack = np.empty((5, min(CHUNK_ROWS, n_feat), n_obs))
    group_rows = CHUNK_ROWS * max(1, n_obs // (m_v * (m_v + 1)))
    if v_scale is not None:  # U, so the V design, is fixed in the pass
        v_design = state.U[:, v_cols]
        v_products = column_products(v_design)
    # an exp that overflows or underflows is clamped, and a non-finite
    # Q is the optimizer's to handle
    with np.errstate(all="ignore"):
        for top in range(0, n_feat, group_rows):
            group = slice(top, min(top + group_rows, n_feat))
            chunks = [slice(lo, lo + CHUNK_ROWS)
                      for lo in range(top, group.stop, CHUNK_ROWS)]
            if v_scale is not None:
                v_grad = np.empty((group.stop - top, m_v))
                v_gram = np.empty((group.stop - top, m_v * m_v))
                for rows in chunks:
                    _, _, resid, info = row_weights(
                        state, rows, stack[:, :n_feat - rows.start])
                    part = slice(rows.start - top, rows.stop - top)
                    row_system(resid, info, v_design, v_products,
                               out=(v_grad[part], v_gram[part]))
                step, n = solve_rows(
                    v_grad, v_gram.reshape(-1, m_v, m_v),
                    state.V[group, idx.latent_slice], state.penalty)
                state.V[group, v_cols] += v_scale * step
                fallbacks += n
                del v_grad, v_gram, step  # not held while the group scores
            for rows in chunks:
                buffers = stack[:, :n_feat - rows.start]
                R, M, resid, info = row_weights(state, rows, buffers)
                u_design = state.V[rows, u_cols]
                grad, gram = row_system(resid.T, info.T, u_design,
                                        column_products(u_design))
                u_grad += grad
                u_gram += gram
                q += state.family._loglik_sum(state.Y[rows], R, M)  # spends R
        q = _penalized(state, q)
    return q, (u_grad, u_gram), fallbacks


def sketch_pass(state: ModelState):
    """One pass over the rows of Y, CHUNK_ROWS at a time, at a null
    point: Q, as score_pass gives it, and the sketch residual_start
    takes, of the Pearson residuals E = resid / sqrt(I) (row_weights)
    with the covariate spans projected out, against the start's test
    matrix omega = sketch_matrix(N, k), k = n_latent + OVERSAMPLE:

        E_perp = (I - P_z) E (I - P_x),

    P_x and P_z the orthogonal projections onto the columns of the
    designs X (intercept included) and Z, with orthonormal bases Q_x and
    Q_z from their QRs.  Those directions of E belong to the effects X A'
    and Z Gamma' that the coefficient blocks own; a start on them would
    leave the sweeps to move the latent blocks back off them.  Before the
    pass omega becomes (I - P_x) omega.  Each chunk's E, written into
    the buffer S no longer needs, writes the chunk's rows of
    T = E omega (J x k) and adds E' T into an N x k array and E' Q_z
    into an N x n_feat_cov one; the pass keeps the row means and the
    column sums of I.  After it, with zt = Q_z' T, T becomes
    T - Q_z zt = E_perp omega and E' T becomes
    (I - P_x)(E' T - (E' Q_z) zt) = E_perp' (E_perp omega).  So the
    projection costs O((J + N) (k + n_obs_cov + n_feat_cov)) beside the
    pass.  The projection has one path for every design: an empty
    design, of which no QR is taken, is its own zero-column basis, every
    product over its zero columns is all +0.0, and subtracting it leaves
    each value as it was, so without X and Z the sketch is that of E
    itself, bit for bit.  The pass takes no step and builds no
    row system; like score_pass, it allocates one stack of five chunk
    buffers and ignores every floating-point error.

    Returns (Q, (T, E' T, row means of I, column sums of I)).  Nothing
    is checked: a non-finite Q, or a sketch that is not all finite,
    from which the optimizer takes no start, is returned as-is.
    """
    n_feat, n_obs, q = state.n_feat, state.n_obs, 0.0
    omega = sketch_matrix(n_obs, state.index.n_latent + OVERSAMPLE)
    # orthonormal bases of the designs X and Z; an empty design, with no
    # columns to factor, is its own
    x_basis, z_basis = (np.linalg.qr(design)[0] if design.shape[1]
                        else design for design in (state.X, state.Z))
    omega = omega - x_basis @ (x_basis.T @ omega)
    e_z = np.zeros((n_obs, z_basis.shape[1]))
    t = np.empty((n_feat, omega.shape[1]))
    co_sketch = np.zeros((n_obs, omega.shape[1]))
    row_means = np.empty(n_feat)
    col_sums = np.zeros(n_obs)
    # the sums of I as matrix-vector products, faster than reductions
    mean_weights = np.full(n_obs, 1.0 / n_obs)
    ones = np.ones(min(CHUNK_ROWS, n_feat))
    stack = np.empty((5, min(CHUNK_ROWS, n_feat), n_obs))
    with np.errstate(all="ignore"):
        for lo in range(0, n_feat, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            buffers = stack[:, :n_feat - lo]
            R, M, resid, info = row_weights(state, rows, buffers)
            pearson = np.sqrt(info, out=buffers[3])
            np.divide(resid, pearson, out=pearson)
            co_sketch += pearson.T @ np.matmul(pearson, omega, out=t[rows])
            e_z += pearson.T @ z_basis[rows]
            np.matmul(info, mean_weights, out=row_means[rows])
            col_sums += ones[:len(info)] @ info
            q += state.family._loglik_sum(state.Y[rows], R, M)  # spends R
        q = _penalized(state, q)
        z_sketch = z_basis.T @ t
        t -= z_basis @ z_sketch
        co_sketch -= e_z @ z_sketch
        co_sketch -= x_basis @ (x_basis.T @ co_sketch)
    return q, (t, co_sketch, row_means, col_sums)


def _penalized(state: ModelState, q: float) -> float:
    """The partial log likelihood ``q`` less the ridge term of the
    state's latent blocks, U's part subtracted first, then V's."""
    if state.penalty:  # 0 * inf would make Q NaN for huge latent factors
        for latent in (state.U_latent, state.V_latent):
            q -= 0.5 * state.penalty * float(np.sum(latent ** 2))
    return q


def sketch_matrix(n_rows: int, n_cols: int) -> np.ndarray:
    """The start's fixed n_rows x n_cols test matrix: entry (i, c) is
    output number i n_cols + c + 1 of the splitmix64 generator run from
    state 0 (Steele, Lea & Flood 2014), its top 53 bits taken as a
    uniform number in [0, 1), less 1/2.  It is made by exact uint64
    arithmetic, so it is the same on every machine, and it needs no
    random-number module."""
    z = np.arange(1, n_rows * n_cols + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)  # wraps modulo 2**64
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return (z * 2.0 ** -53 - 0.5).reshape(n_rows, n_cols)


def negligible(sing: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Which singular values ``sing`` of an n_rows x n_cols matrix are
    rounding: s <= s_max * max(n_rows, n_cols) * eps, as in matrix_rank."""
    eps = np.finfo(float).eps
    return sing <= sing.max(initial=0.0) * max(n_rows, n_cols) * eps


def residual_start(sketch, n_latent: int):
    """The latent blocks' start, (U_latent N x L, V_latent J x L), from
    the sketch sketch_pass builds at the null point (Townes et al. 2019,
    by a one-pass randomized range finder: Halko, Martinsson & Tropp
    2011).

    The information is fitted by I ~ a b', a the row means and b the
    column means over the overall mean (exact when I has rank 1, as at
    the Poisson null), so E = resid / sqrt(I) ~ sqrt(a b') (resid / I):
    a Fisher-scoring step on every cell of the predictor, weighted so
    that its rank-L SVD P diag(s) W' gives the weighted rank-L step
    diag(1/sqrt(a)) P diag(s) W' diag(1/sqrt(b)), split evenly into
    V_latent = P sqrt(s) / sqrt(a) and U_latent = W sqrt(s) / sqrt(b).

    E is the sketch's: the Pearson residuals with the spans of X and Z
    projected out (sketch_pass), so the start satisfies
    X' diag(sqrt(b)) U_latent = 0 and Z' diag(sqrt(a)) V_latent = 0 to
    rounding, and it holds no part of the covariate effects.

    With T = E omega = Q_T R_T, the basis Q_T nearly spans E's leading
    left singular vectors, and B = Q_T' E has the transpose
    (E' T) R_T⁻¹, so one pass over Y suffices; P comes from Q_T and the
    SVD of the k x N matrix B.
    Q_T and R_T are taken from the SVD of T, not a QR: T has rank below
    k whenever J < k or the residual's rank is, and then only T's
    nonzero directions are kept.  Both cuts are negligible's, for the
    J x N matrix E: a direction of T it calls rounding is dropped, and
    a singular value of B it calls rounding, like every one past the
    residual's rank, gives an all-zero latent pair, a fixed point of the
    sweep.
    """
    t, co_sketch, a, col_sums = sketch
    n_feat, n_obs = len(t), len(co_sketch)
    q_t, s_t, r_rot = np.linalg.svd(t, full_matrices=False)
    keep = ~negligible(s_t, n_feat, n_obs)
    # B' = (E' T) R_T⁻¹, with T = q_t diag(s_t) r_rot on the kept part
    b_t = co_sketch @ (r_rot[keep].T / s_t[keep])
    w, sing, p_rot = np.linalg.svd(b_t, full_matrices=False)
    rank = min(n_latent, len(sing))
    sing = sing[:rank] * ~negligible(sing[:rank], n_feat, n_obs)
    b = col_sums / np.mean(col_sums)
    u_latent = np.zeros((n_obs, n_latent))
    v_latent = np.zeros((n_feat, n_latent))
    u_latent[:, :rank] = w[:, :rank] * np.sqrt(sing) / np.sqrt(b)[:, None]
    v_latent[:, :rank] = ((q_t[:, keep] @ p_rot.T[:, :rank]) * np.sqrt(sing)
                          / np.sqrt(a)[:, None])
    return u_latent, v_latent
