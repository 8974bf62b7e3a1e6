"""Shared instance builders for the test suite."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import glmpca as g
from glmpca.optimizer import _sweep

DATA_DIR = Path(__file__).parent / "data"

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
    random coefficient/latent blocks, and data sampled at the implied mean."""
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
    Y = sample_response(rng, family, family.inverse_link(R))
    state = g.build_model(Y, n_latent=n_latent, family=family,
                          feat_covariates=Z, intercept=True, offset=delta,
                          penalty_u=penalty, penalty_v=penalty, seed=seed)
    idx = state.index
    state.V[:, idx.obs_slice] = coef_a
    if k_f:
        state.U[:, idx.feat_slice] = gamma
    state.U[:, idx.latent_slice] = u_lat
    state.V[:, idx.latent_slice] = v_lat
    return state


def advance(state, n_sweeps=10):
    """Run scoring sweeps so postprocessing sees a fitted state.  As in
    fit(), a sweep that lowers Q is retried with halved steps: on these
    small instances some undamped block steps overshoot to |U| ~ 1e9."""
    for _ in range(n_sweeps):
        q0, u0, v0 = g.objective(state), state.U.copy(), state.V.copy()
        for attempt in range(11):
            state.U[...], state.V[...] = u0, v0
            with np.errstate(all="ignore"):
                _sweep(state, 0.5 ** attempt, Counter())
                if g.objective(state) >= q0:
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
