"""Diagonal-approximation Fisher scoring.

One sweep walks the updateable columns of block "U" in ascending order,
then those of block "V", and finally re-evaluates the objective.  The
per-column step, written once for both blocks, is

    column += gradient / fisher_information

which ignores mixed second derivatives; that makes each step cheap but
not guaranteed to increase Q, so sweeps that lower Q (or produce
non-finite values) are retried from the sweep's starting point with all
steps halved, up to ``max_halvings`` times.

Every update sees the effect of the previous one without rebuilding the
linear predictor: the sweep builds R once, a step on column k changes R
by the rank-1 term partner[:, k] (x) step, added to the held R in place,
and the means and working weights are recomputed from that R in one
pass before the next column.  R is rebuilt in full only after a
full-scoring step or a reinitialized partner column.  The objective
builds its own R, so rounding cannot accumulate from sweep to sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (ConfigError, DegenerateColumnError, DomainError,
                         FitError, GlmPcaError)
from .model import (INIT_SCALE, ModelState, PredictorStats, block_of,
                    fisher_info, gradient, linear_predictor, objective,
                    predictor_stats, score_residual)
from .postprocess import postprocess

ASCENT_SLACK = 1e-12  # accepted drop per sweep: ASCENT_SLACK * (1 + |Q|)


@dataclass(frozen=True)
class FitConfig:
    """Optimization hyperparameters."""

    max_iters: int = 1000
    tol: float = 1e-6
    damping: bool = True
    max_halvings: int = 10
    full_scoring_coef: bool = False
    trace_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be at least 1")
        if self.max_halvings < 0:
            raise ConfigError("max_halvings must be nonnegative")


@dataclass
class FitResult:
    """Post-processed fit: orthonormal loadings, norm-ordered factors,
    coefficients, and the (non-decreasing) objective trace."""

    factors: np.ndarray       # N x L
    loadings: np.ndarray      # J x L
    coef_A: np.ndarray        # J x K_o observation-covariate coefficients
    coef_Gamma: np.ndarray    # N x K_f feature-covariate coefficients
    offset: np.ndarray        # length N
    trace: list[tuple[int, float]]
    converged: bool
    stop_reason: str          # "tol", "stalled" or "max_iters"
    iterations_run: int
    final_q: float
    warnings: list[str] = field(default_factory=list)
    postprocessed: bool = True


# ----------------------------------------------------------------------
# column updates


def update_column(state: ModelState, block: str, k: int,
                  stats: PredictorStats, scale: float = 1.0) -> ModelState:
    """One Fisher-scoring step on column k of block "U" or "V", in place.

    ``stats`` must reflect the current state.  The step's rank-1 term is
    added to ``stats.R`` in place, so R stays current; M, S and I do not
    (``predictor_stats(state, stats.R)`` refreshes them).  ``scale``
    multiplies the step for damping.
    """
    step = scale * (gradient(state, block, k, stats)
                    / fisher_info(state, block, k, stats))
    side = block_of(state, block)
    side.own[:, k] += step
    # written in R's own J x N layout for both blocks
    R = stats.R
    if block == "U":
        R += np.outer(side.partner[:, k], step)
    else:
        R += np.outer(step, side.partner[:, k])
    return state


def full_scoring(state: ModelState, block: str,
                 stats: PredictorStats | None = None,
                 scale: float = 1.0) -> int:
    """Full (non-diagonal) Fisher scoring step for the coefficient block
    of ``block``: Gamma in U, A in V.

    Each row r of the block solves its own weighted least-squares system
    D' diag(I_r) D step_r = D' res_r against the fixed design D of the
    partner (Z for Gamma, X for A).  All rows are solved at once: one
    GEMM against the n x K² column products of D gives every K x K Gram
    matrix, one GEMM gives every right-hand side, and one stacked solve
    gives every step.  Only when that solve raises LinAlgError (some
    Gram matrix is singular) are the rows solved one by one, and each
    singular row falls back to the diagonal update.  Returns the number
    of fallback rows.
    """
    side = block_of(state, block)
    design = np.array(side.partner[:, side.coef])
    n, K = design.shape
    if K == 0:
        return 0
    if stats is None:
        stats = predictor_stats(state)
    products = (design[:, :, None] * design[:, None, :]).reshape(n, K * K)
    gram = (side.rows(stats.I) @ products).reshape(-1, K, K)
    rhs = side.rows(score_residual(state, stats)) @ design
    fallbacks = 0
    try:
        step = np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(rhs)
        for r in range(rhs.shape[0]):
            try:
                step[r] = np.linalg.solve(gram[r], rhs[r])
            except np.linalg.LinAlgError:
                step[r] = rhs[r] / np.diag(gram[r])
                fallbacks += 1
    side.own[:, side.coef] += scale * step
    return fallbacks


# ----------------------------------------------------------------------
# the fit loop


def _reinit_column(state: ModelState, matrix: np.ndarray, k: int) -> None:
    sd = INIT_SCALE / np.sqrt(state.index.n_latent)
    matrix[:, k] = state.rng.normal(0.0, sd, matrix.shape[0])


def _sweep(state: ModelState, cfg: FitConfig, scale: float,
           reinit_done: set, notes: Counter) -> None:
    """One full pass over the updateable columns, U then V, steps scaled
    by ``scale``.  Degenerate latent columns get their all-zero partner
    column reinitialized once, then are skipped."""
    latent = list(state.index.latent_cols)
    R = linear_predictor(state)
    for block in ("U", "V"):
        side = block_of(state, block)
        cols = side.cols
        if cfg.full_scoring_coef:
            # an empty coefficient block leaves only latent columns anyway
            cols = latent
            if side.coef.stop > side.coef.start:
                fb = full_scoring(state, block, predictor_stats(state, R),
                                  scale)
                R = linear_predictor(state)
                if fb:
                    coef = "Gamma" if block == "U" else "A"
                    notes["full scoring fell back to diagonal for "
                          f"{coef} rows"] += fb
        for k in cols:
            stats = predictor_stats(state, R)
            try:
                update_column(state, block, k, stats, scale)
            except DegenerateColumnError:
                if k in latent and (block, k) not in reinit_done:
                    reinit_done.add((block, k))
                    _reinit_column(state, side.partner, k)
                    R = linear_predictor(state)
                    notes[f"degenerate column {k}: partner reinitialized"] += 1
                else:
                    notes[f"degenerate column {k}: update skipped"] += 1


def fit(state: ModelState, config: FitConfig | None = None) -> FitResult:
    """Run Fisher-scoring sweeps to convergence, then post-process.

    ``state`` is modified in place.  Convergence is declared when the
    relative objective change |Q_t - Q_{t-1}| / (|Q_{t-1}| + 1) drops
    below ``config.tol`` (``stop_reason="tol"``).  Two other stops yield
    ``converged=False``, not an error: hitting ``max_iters`` first
    (``"max_iters"``), and a sweep that still lowers Q after
    ``max_halvings`` step halvings, which is undone before the fit stops
    (``"stalled"``).  With damping enabled the recorded trace is
    non-decreasing.

    Raises FitError when the objective is non-finite even after all
    damping retries (or at the starting point).
    """
    cfg = config or FitConfig()
    if state.rng is None:
        state.rng = np.random.default_rng(0)
    notes: Counter = Counter()
    reinit_done: set = set()
    trace: list[tuple[int, float]] = []

    try:
        q_prev = objective(state)
    except (DomainError, FloatingPointError) as exc:
        raise FitError(f"objective undefined at the starting point: {exc}",
                       trace) from exc
    if not np.isfinite(q_prev):
        raise FitError("objective non-finite at the starting point", trace)

    stop_reason = "max_iters"
    iterations = 0
    for t in range(1, cfg.max_iters + 1):
        u_snap = state.U.copy()
        v_snap = state.V.copy()
        attempts = cfg.max_halvings + 1 if cfg.damping else 1
        q_new = np.nan
        accepted = False
        for attempt in range(attempts):
            if attempt:
                state.U[...] = u_snap
                state.V[...] = v_snap
            scale = 0.5 ** attempt
            try:
                # overflow here is expected and handled: a non-finite Q
                # triggers a damped retry or a FitError below
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    _sweep(state, cfg, scale, reinit_done, notes)
                    q_new = objective(state)
            except (DomainError, FloatingPointError):
                q_new = np.nan
            if not cfg.damping:
                accepted = np.isfinite(q_new)
                break
            if np.isfinite(q_new) and (
                    q_new >= q_prev - ASCENT_SLACK * (1.0 + abs(q_prev))):
                accepted = True
                if attempt:
                    notes["sweep step-halvings applied"] += attempt
                break

        iterations = t
        if not accepted:
            if not np.isfinite(q_new):
                detail = (f"after {cfg.max_halvings} step halvings"
                          if cfg.damping else "with damping off")
                raise FitError(
                    f"objective non-finite at iteration {t} {detail}", trace)
            # finite but still lower after all halvings: keep the current
            # point and stop: no damped step raised Q, yet Q has not
            # settled to tol, so the fit is stalled, not converged
            state.U[...] = u_snap
            state.V[...] = v_snap
            notes["sweep rejected after max halvings; stopped early"] += 1
            stop_reason = "stalled"
            break

        rel_change = abs(q_new - q_prev) / (abs(q_prev) + 1.0)
        q_prev = q_new
        if t % cfg.trace_every == 0:
            trace.append((t, q_new))
        if rel_change < cfg.tol:
            stop_reason = "tol"
            break
    # the last sweep always ends the trace, whatever trace_every says
    if not trace or trace[-1][0] != iterations:
        trace.append((iterations, q_prev))

    warnings = [f"{msg} (x{n})" if n > 1 else msg
                for msg, n in sorted(notes.items())]
    postprocessed = True
    try:
        u_hat, v_hat = postprocess(state)
    except GlmPcaError as exc:
        warnings.append(f"postprocessing skipped: {exc}")
        postprocessed = False
        u_hat = state.U_latent.copy()
        v_hat = state.V_latent.copy()
    zero_dims = int(np.sum(np.linalg.norm(u_hat, axis=0) == 0))
    if postprocessed and zero_dims:
        warnings.append(
            f"{zero_dims} latent dimension(s) have zero norm "
            "(rank-deficient loadings)")

    return FitResult(
        factors=u_hat,
        loadings=v_hat,
        coef_A=np.array(state.A),
        coef_Gamma=np.array(state.Gamma),
        offset=state.delta.copy(),
        trace=trace,
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        iterations_run=iterations,
        final_q=q_prev,
        warnings=warnings,
        postprocessed=postprocessed,
    )
