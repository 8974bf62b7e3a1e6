"""Joint row-block Fisher scoring.

A sweep takes one step on block "U", then one on block "V".  Each step
updates all of the block's updateable columns together: given the
partner block, the penalized log likelihood separates over the block's
rows, and each row takes the full Fisher scoring (Newton with expected
curvature) step for its own coordinates, mixed second derivatives
between its columns included.  The paper's diagonal step, one column at
a time, has the same fixed points; the joint step reaches them in fewer
sweeps.  The scoring systems are formed in model.py and solved by
model.solve_rows: each V system inside the scoring pass, and the U
system here, once per sweep.  This module runs the sweeps and decides
when to stop.

Each point is scored once, by one pass over row chunks of Y
(model.score_pass), which returns Q and the U system of the point.  A
sweep solves the U system of its starting point once, in place, and
holds only the N x m step; each attempt adds that step, scaled, to U,
then runs the pass with the V step, which ends on the new point's Q and
U system.  The pass solves the V step one group of chunks at a time,
in one stacked solve per group, and scores each group after its step.
So an accepted sweep builds each chunk's R twice, and between sweeps
the fit holds O(N m²) numbers besides U, V and Y.  Every R is built
from U, V and delta, so rounding cannot accumulate from sweep to sweep.

A state build_model returns is not yet started: its latent blocks are
zero.  Its first pass, the same one call as any state's, builds no U
system; it sketches the Pearson residuals of that null point against
the model's own test matrix (model.score_pass with ``sketch``), and
model.residual_start turns the sketch into a start for both latent
blocks.  Sweep 1 takes that start as its steps on the two latent
blocks in place of a U step, then runs the pass with the V step; the
coefficient blocks keep their values until the pass.  The start is
deterministic, so the same input gives the same fit.

Each failure has one remedy.  A singular row system (an unpenalized
column whose partner column is all zero) takes the diagonal step, which
leaves that column unchanged (model.solve_rows); its rows are counted
in the fit's warnings only when their sweep is accepted.  A step is not
guaranteed to increase Q, so a sweep is retried from its starting point
with its held steps halved, the V step's scale with them, when it gives
non-finite factors or a Q that is non-finite or lower, up to
MAX_HALVINGS times; that budget is fixed, not a FitConfig setting.  A
halving scales sweep 1's start as it scales a U step.  A start that no
halving makes acceptable is dropped: sweep 1 is tried again, with the
same halvings, as the V step alone, and the latent blocks stay at zero.
So is a start that cannot be taken, from a sketch that is not all
finite (counts near the largest double overflow it), whose SVD may
never return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .exceptions import FitError, check_option
from .model import (ModelState, finite_factors, residual_start, score_pass,
                    solve_rows)
from .postprocess import postprocess

ASCENT_SLACK = 1e-12  # accepted drop per sweep: ASCENT_SLACK * (1 + |Q|)
MAX_HALVINGS = 10     # step halvings per sweep before the fit stalls


@dataclass(frozen=True)
class FitConfig:
    """Optimization hyperparameters: the sweep cap ``max_iters``, a
    positive integer, and the tolerance ``tol``, a positive finite
    number.  Neither may be a bool (exceptions.check_option); anything
    else raises ConfigError naming the option.

    ``full_scoring_coef`` is accepted and has no effect: every block step
    already applies full Fisher scoring to the coefficient columns.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    full_scoring_coef: bool = False

    def __post_init__(self):
        for name, integer in (("max_iters", True), ("tol", False)):
            object.__setattr__(self, name, check_option(
                getattr(self, name), name, integer=integer, positive=True))


@dataclass
class FitResult:
    """Post-processed fit: orthonormal loadings, orthogonal factors in
    decreasing norm, coefficients, and the non-decreasing Q trace.

    Every fit that returns is post-processed, whatever the rank of its
    designs.  A dimension the latent product does not use has an
    all-zero factor column, counted in ``warnings``, and a loading
    orthogonal to Z and to the other loadings."""

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


# ----------------------------------------------------------------------
# the fit loop


def _sweep(state: ModelState, scale: float, steps):
    """One sweep attempt at step scale ``scale``: each held (factor
    matrix, columns, step) of ``steps`` adds ``scale`` times its step to
    those columns, then the scoring pass takes the V step, scaled alike,
    group by group of chunks.  Returns model.score_pass's (Q, U system,
    V fallback rows) at the new point."""
    for own, cols, step in steps:
        own[:, cols] += scale * step
    return score_pass(state, scale)


def fit(state: ModelState, config: FitConfig | None = None) -> FitResult:
    """Run Fisher-scoring sweeps to convergence, then post-process.

    ``state`` is modified in place.  Convergence is declared when the
    relative objective change |Q_t - Q_{t-1}| / (|Q_{t-1}| + 1) drops
    below ``config.tol`` (``stop_reason="tol"``).  Two other stops yield
    ``converged=False``, not an error: hitting ``max_iters`` first
    (``"max_iters"``), and a sweep that still lowers Q after
    MAX_HALVINGS step halvings (the module constant, read when fit
    runs), which is undone before the fit stops (``"stalled"``).  So the
    recorded trace is non-decreasing.

    A state build_model returns starts at the weighted SVD of its null
    model's residuals, set by sweep 1 unless that sweep drops it (see
    the module docstring), and is marked started once that sweep is
    accepted, with or without the start, so a second fit of the
    same state goes on from where the first ended.

    ``warnings`` names, in this order and each only if it occurred: a
    dropped start, the U rows and the V rows that fell back to the
    diagonal step, a stalled stop, the step halvings, and the latent
    dimensions of zero norm.
    Rows and halvings are tallied over accepted sweeps only.

    Raises FitError when the starting point has non-finite factors or Q,
    and when Q is non-finite even after all step halvings.
    """
    cfg = config or FitConfig()
    trace: list[tuple[int, float]] = []
    if not finite_factors(state):
        raise FitError("objective undefined at the starting point: U, V "
                       "or delta holds a non-finite value", trace)

    stop_reason = "max_iters"
    u_rows = v_rows = halvings = dropped = 0  # tallies over accepted sweeps
    # no floating-point error escapes, whatever the caller's np.seterr: a
    # non-finite point is retried with a halved step or ends in a FitError
    with np.errstate(all="ignore"):
        # the null point's first pass sketches in place of the U system
        q_prev, u_system, _ = score_pass(state, sketch=not state.started)
        if not np.isfinite(q_prev):
            raise FitError("objective non-finite at the starting point",
                           trace)
        # sweep 1 adds the start to the zero latent blocks, and is tried
        # again without it when every halving of it is rejected; a sketch
        # that is not all finite gives no start
        if not state.started:
            tries = [[]]
            if all(np.isfinite(part).all() for part in u_system):
                latent = state.index.latent_slice
                tries.insert(0, list(zip(
                    (state.U, state.V), (latent, latent),
                    residual_start(u_system, state.index.n_latent))))
            step_rows = 0
        for t in range(1, cfg.max_iters + 1):
            if state.started:  # the U step, solved once: a retry halves it
                step, step_rows = solve_rows(*u_system, state.U_latent,
                                             state.penalty)
                tries = [[(state.U, state.index.u_cols, step)]]
            u_snap = state.U.copy()
            v_snap = state.V.copy()
            for steps, attempt in product(tries, range(MAX_HALVINGS + 1)):
                u_system = None  # solved or rejected: not held in the pass
                q_new, u_system, new_v_rows = _sweep(
                    state, 0.5 ** attempt, steps)
                if not finite_factors(state):
                    q_new = np.nan
                if np.isfinite(q_new) and (
                        q_new >= q_prev - ASCENT_SLACK * (1.0 + abs(q_prev))):
                    u_rows += step_rows
                    v_rows += new_v_rows
                    halvings += attempt
                    dropped += not steps
                    state.started = True
                    break
                # undo the rejected attempt; its held steps are kept
                state.U[...] = u_snap
                state.V[...] = v_snap
            else:
                if not np.isfinite(q_new):
                    raise FitError(
                        f"objective non-finite at iteration {t} after "
                        f"{MAX_HALVINGS} step halvings", trace)
                # finite but still lower after all halvings, and undone:
                # Q has not settled to tol, so the fit is stalled
                trace.append((t, q_prev))
                stop_reason = "stalled"
                break

            rel_change = abs(q_new - q_prev) / (abs(q_prev) + 1.0)
            q_prev = q_new
            trace.append((t, q_new))
            if rel_change < cfg.tol:
                stop_reason = "tol"
                break

    warnings = [f"{msg} (x{n})" if n > 1 else msg for msg, n in (
        ("residual start dropped", dropped),
        ("block step fell back to diagonal for U rows", u_rows),
        ("block step fell back to diagonal for V rows", v_rows),
        ("sweep rejected after max halvings; stopped early",
         int(stop_reason == "stalled")),
        ("sweep step-halvings applied", halvings)) if n]
    u_hat, v_hat = postprocess(state)
    zero_dims = int(np.sum(np.linalg.norm(u_hat, axis=0) == 0))
    if zero_dims:
        warnings.append(
            f"{zero_dims} latent dimension(s) have zero norm "
            "(rank-deficient latent product)")

    return FitResult(
        factors=u_hat,
        loadings=v_hat,
        coef_A=np.array(state.A),
        coef_Gamma=np.array(state.Gamma),
        offset=state.delta.copy(),
        trace=trace,
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        iterations_run=t,
        final_q=q_prev,
        warnings=warnings,
    )
