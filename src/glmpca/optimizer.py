"""Joint row-block Fisher scoring.

A sweep takes one step on block "U", then one on block "V".  Each step
builds the linear predictor R, the means and the working weights once
from the current state, then updates all of the block's updateable
columns together: given the partner block, the penalized log likelihood
separates over the block's rows, and each row takes the full Fisher
scoring (Newton with expected curvature) step for its own coordinates,
mixed second derivatives between its columns included.  The paper's
diagonal step, one column at a time, has the same fixed points; the
joint step reaches them in fewer sweeps.  The scoring system itself,
gradient and information matrices, is formed in model.py; this module
solves it, runs the sweeps and decides when to stop.

Each failure has one remedy.  A singular row system (an unpenalized
column whose partner column is all zero) takes the diagonal step, which
leaves that column unchanged.  A step is not guaranteed to increase Q,
so a sweep that lowers Q (or produces non-finite values) is retried
from the sweep's starting point with both steps halved, up to
``max_halvings`` times.  The objective builds its own R, so rounding
cannot accumulate from sweep to sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DomainError, FitError, GlmPcaError
from .model import (ModelState, PredictorStats, block_of, fisher_gram,
                    gradient, objective, predictor_stats)
from .postprocess import postprocess

ASCENT_SLACK = 1e-12  # accepted drop per sweep: ASCENT_SLACK * (1 + |Q|)


@dataclass(frozen=True)
class FitConfig:
    """Optimization hyperparameters.

    ``full_scoring_coef`` is accepted and has no effect: every block step
    already applies full Fisher scoring to the coefficient columns.
    """

    max_iters: int = 1000
    tol: float = 1e-6
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
# the block step


def full_scoring(state: ModelState, block: str,
                 stats: PredictorStats | None = None, scale: float = 1.0,
                 cols: list[int] | None = None) -> int:
    """Joint Fisher-scoring step on the updateable columns of ``block``,
    in place: Gamma and U_latent in U, A and V_latent in V.

    Each own row r solves G_r step_r = g_r, with g the block's gradient
    over ``cols`` (by default all updateable columns) and G_r the row's
    Fisher information matrix over them (model.gradient and
    model.fisher_gram); the rows are independent given the partner.
    The Gram stack is built and solved in row chunks, so it never holds
    more cells than one J x N array.  Only when a chunk's solve raises
    LinAlgError (some Gram matrix is singular) are its rows solved one by
    one, and each singular row takes the diagonal step, leaving columns
    with a zero pivot unchanged.  ``scale`` multiplies the step for
    step halving.  Returns the number of fallback rows.
    """
    side = block_of(state, block)
    cols = side.cols if cols is None else cols
    if not cols:
        return 0
    if stats is None:
        stats = predictor_stats(state)
    m = len(cols)
    rhs = gradient(state, block, cols, stats)
    chunk = max(1, stats.I.size // (m * m))
    step = np.empty_like(rhs)
    fallbacks = 0
    for lo in range(0, rhs.shape[0], chunk):
        rows = slice(lo, lo + chunk)
        gram = fisher_gram(state, block, cols, stats, rows, chunk)
        try:
            step[rows] = np.linalg.solve(gram, rhs[rows, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for r, (g_r, b_r) in enumerate(zip(gram, rhs[rows]), lo):
                try:
                    step[r] = np.linalg.solve(g_r, b_r)
                except np.linalg.LinAlgError:
                    pivot = np.diagonal(g_r)
                    step[r] = np.divide(b_r, pivot, out=np.zeros(m),
                                        where=pivot != 0)
                    fallbacks += 1
    side.own[:, cols] += scale * step
    return fallbacks


# ----------------------------------------------------------------------
# the fit loop


def _sweep(state: ModelState, scale: float, notes: Counter) -> None:
    """One joint block step for U, then one for V, over all updateable
    columns, steps scaled by ``scale``; each builds R afresh from the
    current state."""
    for block in ("U", "V"):
        fallbacks = full_scoring(state, block, predictor_stats(state), scale)
        if fallbacks:
            notes[f"block step fell back to diagonal for {block} rows"] += \
                fallbacks


def fit(state: ModelState, config: FitConfig | None = None) -> FitResult:
    """Run Fisher-scoring sweeps to convergence, then post-process.

    ``state`` is modified in place.  Convergence is declared when the
    relative objective change |Q_t - Q_{t-1}| / (|Q_{t-1}| + 1) drops
    below ``config.tol`` (``stop_reason="tol"``).  Two other stops yield
    ``converged=False``, not an error: hitting ``max_iters`` first
    (``"max_iters"``), and a sweep that still lowers Q after
    ``max_halvings`` step halvings, which is undone before the fit stops
    (``"stalled"``).  So the recorded trace is non-decreasing.

    Raises FitError when the objective is non-finite even after all
    step halvings (or at the starting point).
    """
    cfg = config or FitConfig()
    notes: Counter = Counter()
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
        q_new = np.nan
        accepted = False
        for attempt in range(cfg.max_halvings + 1):
            if attempt:
                state.U[...] = u_snap
                state.V[...] = v_snap
            scale = 0.5 ** attempt
            try:
                # overflow here is expected and handled: a non-finite Q
                # triggers a halved retry or a FitError below
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    _sweep(state, scale, notes)
                    q_new = objective(state)
            except (DomainError, FloatingPointError):
                q_new = np.nan
            if np.isfinite(q_new) and (
                    q_new >= q_prev - ASCENT_SLACK * (1.0 + abs(q_prev))):
                accepted = True
                if attempt:
                    notes["sweep step-halvings applied"] += attempt
                break

        iterations = t
        if not accepted:
            if not np.isfinite(q_new):
                raise FitError(
                    f"objective non-finite at iteration {t} after "
                    f"{cfg.max_halvings} step halvings", trace)
            # finite but still lower after all halvings: keep the current
            # point and stop: no halved step raised Q, yet Q has not
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
