"""Golden objective traces and the public names.

``tests/data/golden_traces.json`` holds the objective Q after every sweep
of a few small seeded fits: one per family, one with observation and
feature covariates, and one well-posed Poisson fit with a real rank-3
signal.  A refactor of the numerics must reproduce these traces to 1e-12
relative error, or explain the difference and re-record them with

    PYTHONPATH=src python tests/test_golden_trace.py --record
"""

import json
import sys

import numpy as np
import pytest

import glmpca as g

from conftest import DATA_DIR, sample_response

GOLDEN = DATA_DIR / "golden_traces.json"
RTOL = 1e-12
CASES = ("gaussian", "poisson", "bernoulli", "negative_binomial",
         "covariates_full_scoring", "poisson_well_posed")
# final Q of the well-posed case under the per-column diagonal scoring
# that the joint block step replaced (commit 73d3a4b: 79 sweeps to
# tol=1e-8; the block step takes 10)
DIAGONAL_FINAL_Q = 11561.235123392828


def well_posed_fit():
    """120 x 100 Poisson counts from a rank-3 log-mean, fit with L=3."""
    rng = np.random.default_rng(5)
    R = (rng.normal(1.0, 0.5, (120, 1))
         + rng.normal(0.0, 0.5, (120, 3)) @ rng.normal(0.0, 0.5, (3, 100)))
    Y = rng.poisson(np.exp(R)).astype(float)
    state = g.build_model(Y, n_latent=3, family=g.poisson(), offset="auto",
                          seed=3)
    return g.fit(state, g.FitConfig(max_iters=3000, tol=1e-8))


def golden_fit(name):
    """Build and fit the named case; every input is drawn from one seed.
    The 30 x 20 cases are not well posed: in all but the Gaussian one Q
    keeps climbing as |R| grows and means reach their clamps, so 150
    sweeps at tol=1e-5 fix a point on that path, not an optimum."""
    if name == "poisson_well_posed":
        return well_posed_fit()
    family = {"gaussian": g.gaussian(), "poisson": g.poisson(),
              "bernoulli": g.bernoulli(),
              "negative_binomial": g.negative_binomial(2.0),
              "covariates_full_scoring": g.bernoulli()}[name]
    covariates = name == "covariates_full_scoring"
    rng = np.random.default_rng(CASES.index(name))
    n_feat, n_obs, n_latent = 30, 20, 2
    X = rng.normal(size=(n_obs, 2)) if covariates else None
    Z = rng.normal(size=(n_feat, 2)) if covariates else None
    R = (rng.normal(0.0, 0.5, (n_feat, 1))
         + rng.normal(0.0, 0.6, (n_feat, n_latent))
         @ rng.normal(0.0, 0.6, (n_latent, n_obs)))
    if covariates:
        R = R + rng.normal(0.0, 0.3, (n_feat, 2)) @ X.T \
            + Z @ rng.normal(0.0, 0.3, (n_obs, 2)).T
    Y = sample_response(rng, family, family.inverse_link(R))
    state = g.build_model(Y, n_latent=n_latent, family=family,
                          obs_covariates=X, feat_covariates=Z,
                          offset="auto" if family.link == "log" else "none",
                          seed=3)
    return g.fit(state, g.FitConfig(max_iters=150, tol=1e-5))


@pytest.mark.parametrize("name", CASES)
def test_objective_trace_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    result = golden_fit(name)
    assert result.iterations_run == golden["iterations_run"]
    assert result.converged == golden["converged"]
    assert [t for t, _ in result.trace] == [t for t, _ in golden["trace"]]
    np.testing.assert_allclose([q for _, q in result.trace],
                               [q for _, q in golden["trace"]],
                               rtol=RTOL, atol=0)


def test_well_posed_fit_reaches_at_least_the_diagonal_optimum():
    result = well_posed_fit()
    assert result.converged
    assert result.final_q >= DIAGONAL_FINAL_Q


def test_every_exported_name_resolves():
    missing = [name for name in g.__all__ if not hasattr(g, name)]
    assert missing == []


def test_scoring_helpers_importable_outside_all():
    for name in ("check_data_matrix", "row_system", "score_pass",
                 "solve_rows"):
        assert name not in g.__all__ and callable(getattr(g, name))


def record() -> None:
    table = {}
    for name in CASES:
        result = golden_fit(name)
        table[name] = {"iterations_run": result.iterations_run,
                       "converged": result.converged,
                       "trace": [list(point) for point in result.trace]}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_trace.py --record")
    record()
