"""Shared instance builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest

import glmpca as g
from glmpca import model, optimizer
from glmpca.optimizer import _sweep

DATA_DIR = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ALL_FAMILIES = [g.gaussian(), g.poisson(), g.bernoulli(),
                g.negative_binomial(2.0)]
FAMILY_IDS = [f.kind for f in ALL_FAMILIES]


def sample_response(rng, family, mean):
    """Draw data from the family at the given mean matrix."""
    if family.kind == "gaussian":
        return rng.normal(mean, 1.0)
    if family.kind == "poisson":
        return rng.poisson(mean).astype(float)
    if family.kind == "bernoulli":
        return rng.binomial(1, mean).astype(float)
    a = family.dispersion
    return rng.negative_binomial(a, a / (a + mean)).astype(float)


def random_state(family, seed, n_feat=6, n_obs=9, n_latent=2,
                 with_feat_cov=True, penalty=1e-4, scale=0.3):
    """A generic fitted-shape state: intercept, optional feature covariate,
    random coefficient/latent blocks, and data sampled at the implied mean.
    Its blocks are set by hand, so fit() goes on from them: it is marked
    started, not left for the residual start."""
    rng = np.random.default_rng(seed)
    k_f = 1 if with_feat_cov else 0
    Z = rng.normal(size=(n_feat, k_f)) if k_f else None
    coef_a = rng.normal(0.0, scale, (n_feat, 1))
    gamma = rng.normal(0.0, scale, (n_obs, k_f))
    u_lat = rng.normal(0.0, scale, (n_obs, n_latent))
    v_lat = rng.normal(0.0, scale, (n_feat, n_latent))
    delta = rng.normal(0.0, 0.1, n_obs)
    R = coef_a @ np.ones((1, n_obs)) + v_lat @ u_lat.T + delta[None, :]
    if k_f:
        R = R + Z @ gamma.T
    Y = sample_response(rng, family, family._mean(R))
    state = g.build_model(Y, n_latent=n_latent, family=family,
                          feat_covariates=Z, intercept=True, offset=delta,
                          penalty=penalty)
    idx = state.index
    state.V[:, idx.obs_slice] = coef_a
    if k_f:
        state.U[:, idx.feat_slice] = gamma
    state.U[:, idx.latent_slice] = u_lat
    state.V[:, idx.latent_slice] = v_lat
    state.started = True
    return state


def noise_start(state, seed=0):
    """Set the latent blocks of ``state`` to Gaussian noise with standard
    deviation 0.1/sqrt(L), U's drawn first from ``seed``, and mark the
    state started: a small hand-set start that fit() goes on from."""
    rng = np.random.default_rng(seed)
    sd = 0.1 / np.sqrt(state.index.n_latent)
    state.U_latent[...] = rng.normal(0.0, sd, state.U_latent.shape)
    state.V_latent[...] = rng.normal(0.0, sd, state.V_latent.shape)
    state.started = True
    return state


def latent_cols(state):
    """The indices of the latent columns of U and V."""
    return range(state.index.n_total)[state.index.latent_slice]


def column_penalty(state, cols):
    """The ridge lambda of each column in ``cols``: the state's penalty
    on a latent column, 0 on a coefficient column."""
    latent = latent_cols(state)
    return np.array([state.penalty if k in latent else 0.0 for k in cols])


def means(state):
    """The clamped J x N means at the current state."""
    return model.row_weights(state, slice(None))[1]


def own_block(state, block):
    """The factor matrix of ``block`` and its updateable columns."""
    if block == "U":
        return state.U, state.index.u_cols
    return state.V, state.index.v_cols


def block_system(state, block):
    """The unpenalized Fisher-scoring system the fit builds for
    ``block`` at the current state: the scoring pass's sum over chunks
    for U, row_system over all rows of Y for V (the V step's chunks are
    independent row blocks of it)."""
    if block == "U":
        return model.score_pass(state)[1]
    _, _, resid, info = model.row_weights(state, slice(None))
    design = state.U[:, state.index.v_cols]
    return model.row_system(resid, info, design,
                            model.column_products(design))


def gradient(state, block):
    """dQ/dU or dQ/dV over the updateable columns of ``block``: the fit's
    gradient minus the ridge of each latent column."""
    own, cols = own_block(state, block)
    return (block_system(state, block)[0]
            - column_penalty(state, cols) * own[:, cols])


def gram_diagonal(state, block):
    """The per-column Fisher information of ``block``, the diagonals of
    its Gram stack plus the ridge: one row per own row, one column per
    updateable column."""
    gram = block_system(state, block)[1]
    return (np.diagonal(gram, axis1=1, axis2=2)
            + column_penalty(state, own_block(state, block)[1]))


def u_steps(state, system):
    """The fit's held U step for the U system ``system`` of the current
    state, solved once as fit() solves it: _sweep's steps, and the
    number of U rows that fell back to the diagonal step."""
    step, rows = model.solve_rows(*system, state.U_latent, state.penalty)
    return [(state.U, state.index.u_cols, step)], rows


def block_step(state, block, scale=1.0):
    """One joint Fisher-scoring step on ``block`` alone, by the fit's own
    code: the V step is the scoring pass with a step, the U step a sweep
    whose V step is undone.  Returns the number of fallback rows."""
    if block == "V":
        return model.score_pass(state, scale)[2]
    v_before = state.V.copy()
    steps, u_rows = u_steps(state, model.score_pass(state)[1])
    _sweep(state, scale, steps)
    state.V[...] = v_before
    return u_rows


def advance(state, n_sweeps=10):
    """Run scoring sweeps so postprocessing sees a fitted state.  As in
    fit(), each sweep solves its U step once, and a sweep that lowers Q
    is retried with the steps halved, up to optimizer.MAX_HALVINGS
    times: on these small instances some full-length block steps, taken
    before any step halving, overshoot to |U| ~ 1e9."""
    for _ in range(n_sweeps):
        q0, system, _ = model.score_pass(state)
        u0, v0 = state.U.copy(), state.V.copy()
        with np.errstate(all="ignore"):
            steps = u_steps(state, system)[0]
            for attempt in range(optimizer.MAX_HALVINGS + 1):
                state.U[...], state.V[...] = u0, v0
                q = _sweep(state, 0.5 ** attempt, steps)[0]
                if model.finite_factors(state) and q >= q0:
                    break
            else:
                state.U[...], state.V[...] = u0, v0
    return state


def acceptance_grid(family, n_instances=20):
    """Seeded random instances within the acceptance-criteria size box
    (J <= 8, N <= 12, L <= 3, one obs covariate, one feat covariate)."""
    instances = []
    for i in range(n_instances):
        seed = 1000 * FAMILY_IDS.index(family.kind) + i
        rng = np.random.default_rng(seed)
        n_feat = int(rng.integers(6, 9))
        n_obs = int(rng.integers(8, 13))
        n_latent = int(rng.integers(1, 4))
        instances.append(random_state(family, seed, n_feat=n_feat,
                                      n_obs=n_obs, n_latent=n_latent))
    return instances


@pytest.fixture
def poisson_state():
    return random_state(g.poisson(), seed=7)
