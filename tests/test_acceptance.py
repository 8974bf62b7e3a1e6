"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance and runtime cap is asserted here.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import glmpca as g
import oracle
from glmpca.cli import run_cli
from glmpca.model import ModelState, IndexSets, linear_predictor

from conftest import (ALL_FAMILIES, DATA_DIR, acceptance_grid, advance,
                      column_penalty, gradient, gram_diagonal, means,
                      random_state, sample_response)

FIXTURE = DATA_DIR / "counts_10x20.mtx"


@contextmanager
def criterion(name, seconds=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if seconds is not None and elapsed > seconds:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {seconds}s budget")
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


def test_c1_gradient_correctness():
    with criterion("C1 gradient correctness", seconds=30):
        for family in ALL_FAMILIES:
            for state in acceptance_grid(family):
                for block, cols in (("U", state.index.u_cols),
                                    ("V", state.index.v_cols)):
                    analytic = gradient(state, block)
                    fd = np.column_stack(
                        [oracle.finite_diff_gradient(state, block, k)
                         for k in cols])
                    assert oracle.report(fd, analytic).max_rel_err <= 1e-4


def test_c2_monotone_ascent():
    with criterion("C2 monotone ascent", seconds=60):
        for family in ALL_FAMILIES:
            for state in acceptance_grid(family):
                result = g.fit(state, g.FitConfig(max_iters=60, tol=1e-9))
                qs = [q for _, q in result.trace]
                for prev, cur in zip(qs, qs[1:]):
                    assert cur >= prev - 1e-12 * (1.0 + abs(prev))


def test_c3_pca_equivalence():
    with criterion("C3 PCA equivalence", seconds=10):
        rng = np.random.default_rng(42)
        Y = rng.standard_normal((20, 40))
        state = g.build_model(Y, n_latent=3, family=g.gaussian(),
                              penalty=0.0)
        result = g.fit(state, g.FitConfig(max_iters=20000, tol=1e-12))
        assert result.converged
        scores, loadings = oracle.pca_reference(Y, 3)
        reference = loadings @ scores.T
        recon = result.loadings @ result.factors.T
        rel = np.linalg.norm(recon - reference) / np.linalg.norm(reference)
        assert rel <= 1e-4
        np.testing.assert_allclose(result.loadings.T @ result.loadings,
                                   np.eye(3), rtol=0, atol=1e-10)
        norms = np.linalg.norm(result.factors, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)


def test_c4_glm_reduction():
    with criterion("C4 GLM reduction", seconds=5):
        for family in (g.gaussian(), g.poisson(), g.bernoulli()):
            rng = np.random.default_rng(7)
            n_obs, n_coef = 60, 3
            X = np.column_stack([np.ones(n_obs), rng.normal(size=n_obs),
                                 rng.normal(size=n_obs)])
            beta = rng.normal(0.0, 0.4, n_coef)
            y = sample_response(rng, family, family._mean(X @ beta))
            # J = 1 with the latent block held at zero: positive latent
            # penalties make zero a fixed point, so only A is estimated
            k = n_coef + 1
            U = np.zeros((n_obs, k))
            U[:, :n_coef] = X
            state = ModelState(Y=y[None, :], family=family, U=U,
                               V=np.zeros((1, k)), delta=np.zeros(n_obs),
                               penalty=1e-4, index=IndexSets(n_coef, 0, 1))
            result = g.fit(state, g.FitConfig(max_iters=500, tol=1e-14))
            reference = oracle.irls_glm(y, X, family)
            assert np.abs(result.coef_A[0] - reference).max() <= 1e-6


def test_c5_postprocessing_invariance():
    with criterion("C5 postprocessing invariance", seconds=30):
        for family in ALL_FAMILIES:
            for seed in range(5):
                state = advance(random_state(family, seed=700 + seed), 6)
                m_before = means(state)
                u_hat, v_hat = g.postprocess(state)
                r_after = (state.A @ state.X.T + state.Z @ state.Gamma.T
                           + v_hat @ u_hat.T + state.delta[None, :])
                m_after = oracle.cellwise(state.family, r_after)[0]
                assert np.abs(m_after - m_before).max() <= 1e-8
                x_scale = np.linalg.norm(state.X) * np.linalg.norm(u_hat)
                z_scale = np.linalg.norm(state.Z) * np.linalg.norm(v_hat)
                assert np.abs(state.X.T @ u_hat).max() <= 1e-8 * max(x_scale, 1.0)
                assert np.abs(state.Z.T @ v_hat).max() <= 1e-8 * max(z_scale, 1.0)
                # X contains the all-ones column, so factors are centered
                assert np.abs(u_hat.mean(axis=0)).max() <= 1e-10


def test_c6_canonical_link_simplification():
    with criterion("C6 canonical-link simplification", seconds=10):
        for family in (g.poisson(), g.bernoulli()):
            for seed in range(10):
                state = random_state(family, seed=900 + seed)
                M = means(state)
                # the variance at the current means
                rho = oracle.cellwise(family, linear_predictor(state))[2]
                u = state.index.u_cols
                lam = column_penalty(state, u)
                simple_grad = ((state.Y - M).T @ state.V[:, u]
                               - lam * state.U[:, u])
                simple_info = rho.T @ state.V[:, u] ** 2 + lam
                np.testing.assert_allclose(
                    gradient(state, "U"), simple_grad,
                    rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    gram_diagonal(state, "U"), simple_info,
                    rtol=1e-12, atol=1e-12)
                v = state.index.v_cols
                lam = column_penalty(state, v)
                simple_grad = ((state.Y - M) @ state.U[:, v]
                               - lam * state.V[:, v])
                simple_info = rho @ state.U[:, v] ** 2 + lam
                np.testing.assert_allclose(
                    gradient(state, "V"), simple_grad,
                    rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    gram_diagonal(state, "V"), simple_info,
                    rtol=1e-12, atol=1e-12)


def test_c7_synthetic_recovery():
    with criterion("C7 synthetic recovery", seconds=10):
        # the 0.95 floor was verified against this exact generator and
        # seed before freezing (measured |corr| = 0.979)
        rng = np.random.default_rng(27)
        truth = rng.normal(0.0, 1.0, 50)
        v_true = rng.normal(0.0, 0.8, 20)
        a_true = rng.normal(1.2, 0.3, 20)
        d_true = rng.normal(0.0, 0.3, 50)
        log_mean = (a_true[:, None] + np.outer(v_true, truth)
                    + d_true[None, :])
        Y = rng.poisson(np.exp(log_mean)).astype(float)
        state = g.build_model(Y, n_latent=1, family=g.poisson(),
                              offset="auto")
        result = g.fit(state, g.FitConfig(max_iters=400, tol=1e-6))
        corr = np.corrcoef(result.factors[:, 0], truth)[0, 1]
        assert abs(corr) >= 0.95


def test_c8_cli_round_trip(tmp_path, capsys):
    with criterion("C8 CLI round trip", seconds=30):
        csvs = ("factors.csv", "loadings.csv", "coef_A.csv", "offset.csv",
                "trace.csv")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run_cli(["fit", "--input", str(FIXTURE),
                            "--family", "poisson", "--dims", "2",
                            "--output-dir", str(out)])
            assert code == 0
            outs.append(out)
        for name in csvs:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()
        meta = json.loads((outs[0] / "meta.json").read_text())
        assert meta["converged"] is True

        # exit 1: configuration error (missing --dispersion)
        code = run_cli(["fit", "--input", str(FIXTURE),
                        "--family", "negative_binomial", "--dims", "2",
                        "--output-dir", str(tmp_path / "err")])
        assert code == 1
        assert "--dispersion" in capsys.readouterr().err

        # exit 2: iteration cap reached, outputs still written
        out2 = tmp_path / "cap"
        code = run_cli(["fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "2", "--max-iters", "1",
                        "--tol", "1e-12",
                        "--output-dir", str(out2)])
        assert code == 2
        for name in csvs + ("meta.json",):
            assert (out2 / name).exists()
