"""Golden objective traces and the public names.

``tests/data/golden_traces.json`` holds the objective Q after every sweep
of a few small fits of seeded data: one per family, one with observation
and feature covariates, and one well-posed Poisson fit with a real rank-3
signal.  A refactor of the numerics must reproduce these traces to 1e-12
relative error, or explain the difference and re-record them with

    PYTHONPATH=src python tests/test_golden_trace.py --record

which prints, for each case, its sweeps before and after and the largest
relative change of its trace.
"""

import json
import sys

import numpy as np
import pytest

import glmpca as g
from glmpca import model

from conftest import DATA_DIR, sample_response

GOLDEN = DATA_DIR / "golden_traces.json"
RTOL = 1e-12
CASES = ("gaussian", "poisson", "bernoulli", "negative_binomial",
         "covariates_full_scoring", "poisson_well_posed")
# final Q of the well-posed case under the per-column diagonal scoring
# that the joint block step replaced (commit 73d3a4b: 79 sweeps to
# tol=1e-8; the block step took 10 from small random latent blocks)
DIAGONAL_FINAL_Q = 11561.235123392828
# sweeps the block step took on the well-posed case from random blocks
RANDOM_START_SWEEPS = 10


def well_posed_fit():
    """120 x 100 Poisson counts from a rank-3 log-mean, fit with L=3."""
    rng = np.random.default_rng(5)
    R = (rng.normal(1.0, 0.5, (120, 1))
         + rng.normal(0.0, 0.5, (120, 3)) @ rng.normal(0.0, 0.5, (3, 100)))
    Y = rng.poisson(np.exp(R)).astype(float)
    state = g.build_model(Y, n_latent=3, family=g.poisson(), offset="auto")
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
    Y = sample_response(rng, family, family._mean(R))
    state = g.build_model(Y, n_latent=n_latent, family=family,
                          obs_covariates=X, feat_covariates=Z,
                          offset="auto" if family.link == "log" else "none")
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


def test_residual_start_needs_no_more_sweeps_than_a_random_one():
    assert well_posed_fit().iterations_run <= RANDOM_START_SWEEPS


def test_every_exported_name_resolves():
    missing = [name for name in g.__all__ if not hasattr(g, name)]
    assert missing == []


def test_scoring_helpers_importable_outside_all():
    # check_data_matrix, which the benchmark calls, is importable from the
    # package outside __all__; the scoring internals only from glmpca.model
    assert "check_data_matrix" not in g.__all__
    assert callable(g.check_data_matrix)
    for name in ("linear_predictor", "row_system", "score_pass",
                 "solve_rows"):
        assert not hasattr(g, name) and callable(getattr(model, name))


def record() -> None:
    """Re-record every case, printing the size of each change; the
    trace change is taken over the sweeps both traces hold."""
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table = {}
    for name in CASES:
        result = golden_fit(name)
        table[name] = {"iterations_run": result.iterations_run,
                       "converged": result.converged,
                       "trace": [list(point) for point in result.trace]}
        if name not in old:
            print(f"{name}: new case, {result.iterations_run} sweeps")
            continue
        before = np.array([q for _, q in old[name]["trace"]])
        after = np.array([q for _, q in result.trace])
        n = min(len(before), len(after))
        change = np.max(np.abs(after[:n] - before[:n]) / np.abs(before[:n]),
                        initial=0.0)
        print(f"{name}: iterations_run {old[name]['iterations_run']} -> "
              f"{result.iterations_run}, largest relative change of the "
              f"trace {change:.3g}")
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_golden_trace.py --record")
    record()
