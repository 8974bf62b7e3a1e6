"""Seeded inputs, timed jobs and correctness checks for each workload.

Nothing here imports glmpca at module level: the runner first checks
that the package source is present, then passes the imported package in.

Each workload has one generating model (factors, effects, covariates)
drawn from a fixed structure seed; ``--seed`` draws the observed data.
Diagonal Fisher scoring needs anywhere from about 20 to a few hundred
sweeps to reach tol=1e-6 depending on the factor structure and the
initialization, so letting the seed redraw those would make
time-to-tolerance swing several-fold between seeds.  With the structure
and build_model's default initialization fixed, the sweep count moves by
a few percent between data draws.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

TOL = 1e-6
# A fit may end below the stored reference Q by at most this share of
# |Q| + 1: one hundred sweeps that each gained just under `tol`.
Q_SHORTFALL = 100 * TOL
# Same slack the optimizer allows itself per accepted sweep.
ASCENT_SLACK = 1e-12
# Outputs must reproduce the pre-postprocessing linear predictor to this
# share of its largest entry.
R_INVARIANCE = 1e-8

CLI_MAX_ITERS = 3
CLI_DISPERSION = 5.0
CLI_DIMS = 2
CLI_OUTPUTS = ("factors.csv", "loadings.csv", "coef_A.csv", "offset.csv",
               "trace.csv", "meta.json")

POISSON_RANK = 4
BERNOULLI_RANK = 3

# Shapes per scale.  "tiny" is used only by the self-test.
POISSON = {"full": dict(n_feat=400, n_obs=200, instances=40),
           "tiny": dict(n_feat=40, n_obs=24, instances=12)}
BERNOULLI = {"full": dict(n_feat=480, n_obs=240, instances=40),
             "tiny": dict(n_feat=200, n_obs=100, instances=12)}
NB_MTX = {"full": dict(n_feat=1200, n_obs=200),
          "tiny": dict(n_feat=60, n_obs=30)}

WORKLOAD_IDS = {"fit-poisson": 1, "fit-bernoulli-cov": 2, "cli-nb-mtx": 3}
# Seed of each workload's generating model (factors, effects, covariates).
# It is fixed; --seed draws the observed data from that model.
STRUCTURE_SEED = 0


def structure_rng(workload: str, scale: str) -> np.random.Generator:
    return np.random.default_rng(
        [STRUCTURE_SEED, WORKLOAD_IDS[workload], scale == "tiny"])


def data_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


# ----------------------------------------------------------------------
# generators


def _low_rank(rng, n_feat: int, n_obs: int, rank: int, scale: float):
    """V U' with orthonormal V, orthonormal zero-mean U and all singular
    values equal to scale * sqrt(J * N), so entries are of size ~scale."""
    qv, _ = np.linalg.qr(rng.normal(size=(n_feat, rank)))
    qu = rng.normal(size=(n_obs, rank))
    qu -= qu.mean(axis=0)
    qu, _ = np.linalg.qr(qu)
    return (qv * (scale * math.sqrt(n_feat * n_obs))) @ qu.T


def poisson_model(scale: str) -> np.ndarray:
    """Means with feature effects, size factors and a rank-4 signal."""
    p = POISSON[scale]
    rng = structure_rng("fit-poisson", scale)
    J, N = p["n_feat"], p["n_obs"]
    return np.exp(_low_rank(rng, J, N, POISSON_RANK, 0.3)
                  + rng.normal(1.5, 0.3, J)[:, None]
                  + rng.normal(0.0, 0.3, N)[None, :])


def bernoulli_model(scale: str) -> dict:
    """Probabilities with 2 observation and 2 feature covariates, rank 3."""
    p = BERNOULLI[scale]
    rng = structure_rng("fit-bernoulli-cov", scale)
    J, N = p["n_feat"], p["n_obs"]
    X = rng.normal(size=(N, 2))
    Z = rng.normal(size=(J, 2))
    R = (_low_rank(rng, J, N, BERNOULLI_RANK, 0.5)
         + rng.normal(0.0, 0.5, (J, 2)) @ X.T
         + Z @ rng.normal(0.0, 0.5, (N, 2)).T
         + rng.normal(0.0, 0.5, J)[:, None])
    return {"P": 1.0 / (1.0 + np.exp(-R)), "X": X, "Z": Z}


def nb_model(scale: str) -> np.ndarray:
    """Negative-binomial means, rank 2."""
    p = NB_MTX[scale]
    rng = structure_rng("cli-nb-mtx", scale)
    J, N = p["n_feat"], p["n_obs"]
    return np.exp(_low_rank(rng, J, N, CLI_DIMS, 0.3)
                  + rng.normal(1.0, 0.5, J)[:, None]
                  + rng.normal(0.0, 0.3, N)[None, :])


def write_mtx(Y: np.ndarray, path: Path) -> int:
    """Write the nonzeros of Y as a MatrixMarket integer file; returns nnz."""
    rows, cols = np.nonzero(Y)
    vals = Y[rows, cols].astype(np.int64)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{Y.shape[0]} {Y.shape[1]} {rows.size}\n")
        fh.write("".join(f"{r} {c} {v}\n" for r, c, v in zip(
            (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())))
    return int(rows.size)


def generate(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    """Draw one run's data from the workload's fixed model and write it
    under ``workdir``, one file per data set; returns a description."""
    if workload == "fit-poisson":
        mu = poisson_model(scale)
        n = POISSON[scale]["instances"]
        for i in range(n):
            Y = data_rng(seed, workload, i).poisson(mu).astype(float)
            np.save(workdir / f"Y-{i}.npy", Y)
        return {"instances": n, "shape": list(mu.shape)}
    if workload == "fit-bernoulli-cov":
        model = bernoulli_model(scale)
        prob = model["P"]
        n = BERNOULLI[scale]["instances"]
        for i in range(n):
            Y = (data_rng(seed, workload, i).random(prob.shape) < prob)
            np.save(workdir / f"Y-{i}.npy", Y.astype(float))
        np.save(workdir / "X.npy", model["X"])
        np.save(workdir / "Z.npy", model["Z"])
        return {"instances": n, "shape": list(prob.shape)}
    if workload == "cli-nb-mtx":
        mu = nb_model(scale)
        a = CLI_DISPERSION
        Y = data_rng(seed, workload, 0).negative_binomial(a, a / (a + mu))
        path = workdir / "counts.mtx"
        nnz = write_mtx(Y, path)
        return {"instances": 1, "shape": list(mu.shape), "nnz": nnz,
                "mtx": str(path), "mtx_bytes": path.stat().st_size}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# library jobs


@dataclass
class JobOutcome:
    wall_s: float
    setup_s: float
    fit_s: float
    final_q: float
    sweeps: int
    failures: list[str] = field(default_factory=list)

    def scaled(self, factor: float) -> "JobOutcome":
        """The same outcome with its times multiplied by ``factor``."""
        return replace(self, wall_s=self.wall_s * factor,
                       setup_s=self.setup_s * factor,
                       fit_s=self.fit_s * factor)


def load_instance(workdir: Path, index: int) -> dict:
    """One data set; loaded per job so that only one is held in memory."""
    inst = {"Y": np.load(workdir / f"Y-{index}.npy")}
    for name in ("X", "Z"):
        if (workdir / f"{name}.npy").is_file():
            inst[name] = np.load(workdir / f"{name}.npy")
    return inst


def fit_job(g, workload: str, inst: dict, ref_q: float | None) -> JobOutcome:
    """One whole library job, build_model + fit, timed and then checked."""
    Y = inst["Y"]
    if workload == "fit-poisson":
        t0 = time.perf_counter()
        state = g.build_model(Y, n_latent=POISSON_RANK, family=g.poisson(),
                              offset="auto")
        t1 = time.perf_counter()
        result = g.fit(state, g.FitConfig(tol=TOL))
        t2 = time.perf_counter()
        X = np.ones((Y.shape[1], 1))
        Z = np.empty((Y.shape[0], 0))
    else:
        t0 = time.perf_counter()
        state = g.build_model(Y, n_latent=BERNOULLI_RANK, family=g.bernoulli(),
                              obs_covariates=inst["X"],
                              feat_covariates=inst["Z"])
        t1 = time.perf_counter()
        result = g.fit(state, g.FitConfig(tol=TOL, full_scoring_coef=True))
        t2 = time.perf_counter()
        X = np.hstack([np.ones((Y.shape[1], 1)), inst["X"]])
        Z = inst["Z"]
    failures = check_fit(state, result, X, Z, ref_q)
    return JobOutcome(t2 - t0, t1 - t0, t2 - t1, float(result.final_q),
                      int(result.iterations_run), failures)


def check_trace(qs: list[float]) -> list[str]:
    if not qs or not all(math.isfinite(q) for q in qs):
        return ["objective trace empty or non-finite"]
    for a, b in zip(qs, qs[1:]):
        if b < a - ASCENT_SLACK * (1.0 + abs(a)):
            return [f"objective decreased from {a!r} to {b!r}"]
    return []


def check_reference(q: float, ref_q: float | None) -> list[str]:
    if ref_q is None:
        return []
    if not q >= ref_q - Q_SHORTFALL * (1.0 + abs(ref_q)):
        return [f"final Q {q!r} below reference {ref_q!r}"]
    return []


def check_fit(state, result, X, Z, ref_q) -> list[str]:
    """Convergence, ascent, reference Q and postprocessing invariance."""
    failures = []
    if not result.converged:
        failures.append(f"not converged after {result.iterations_run} sweeps")
    qs = [q for _, q in result.trace]
    failures += check_trace(qs)
    if qs and qs[-1] != result.final_q:
        failures.append("final_q differs from the last trace entry")
    failures += check_reference(float(result.final_q), ref_q)
    # postprocessing must leave the linear predictor unchanged; state
    # holds the projected (not yet rotated) blocks after fit()
    r_state = state.V @ state.U.T + state.delta[None, :]
    r_out = (result.coef_A @ X.T + Z @ result.coef_Gamma.T
             + result.loadings @ result.factors.T + result.offset[None, :])
    err = float(np.max(np.abs(r_out - r_state)))
    if not err <= R_INVARIANCE * (1.0 + float(np.max(np.abs(r_state)))):
        failures.append(f"outputs change the linear predictor by {err:.3g}")
    gram = result.loadings.T @ result.loadings
    if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8):
        failures.append("loadings are not orthonormal")
    return failures


# ----------------------------------------------------------------------
# CLI jobs


def cli_argv(mtx: Path, out_dir: Path) -> list[str]:
    return ["fit", "--input", str(mtx), "--family", "negative_binomial",
            "--dispersion", str(CLI_DISPERSION), "--offset", "auto",
            "--dims", str(CLI_DIMS), "--max-iters", str(CLI_MAX_ITERS),
            "--output-dir", str(out_dir)]


def cli_in_process(g, mtx: Path):
    """What the CLI does before and during its fit, in this process:
    read_matrix + check_data_matrix + build_model, then fit with the
    CLI's sweep budget.  Returns (setup seconds, fit seconds, result)."""
    family = g.negative_binomial(CLI_DISPERSION)
    t0 = time.perf_counter()
    loaded = g.read_matrix(mtx)
    Y = g.check_data_matrix(loaded.values, family)
    state = g.build_model(Y, n_latent=CLI_DIMS, family=family, offset="auto")
    t1 = time.perf_counter()
    result = g.fit(state, g.FitConfig(max_iters=CLI_MAX_ITERS, tol=TOL))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, result


def check_capped_fit(result, ref_q) -> list[str]:
    """The in-process fit must stop at the sweep cap, unconverged."""
    qs = [q for _, q in result.trace]
    failures = check_trace(qs) + check_reference(qs[-1] if qs else math.nan,
                                                 ref_q)
    if result.iterations_run != CLI_MAX_ITERS or result.converged:
        failures.append("in-process fit did not stop at the sweep cap")
    return failures


def run_cli_process(mtx: Path, out_dir: Path, env: dict,
                    timeout: float = 150.0) -> tuple[float, int]:
    """Spawn ``python -m glmpca fit``; returns (seconds, exit code).
    The child is always reaped before returning."""
    cmd = [sys.executable, "-m", "glmpca", *cli_argv(mtx, out_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    # wait(timeout=...) polls with sleeps of up to 50 ms, which would
    # quantize the measured time; block instead and let a timer kill
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code == -signal.SIGKILL:
        raise TimeoutError(f"CLI job exceeded {timeout} s")
    return elapsed, code


def check_cli_outputs(code: int, out_dir: Path, ref_q) -> list[str]:
    """Exit code 2, every file written, 3 sweeps, Q not below reference."""
    failures = []
    if code != 2:
        failures.append(f"exit code {code}, expected 2")
    missing = [n for n in CLI_OUTPUTS if not (out_dir / n).is_file()]
    if missing:
        return failures + [f"missing outputs {missing}"]
    meta = json.loads((out_dir / "meta.json").read_text())
    if meta.get("iterations_run") != CLI_MAX_ITERS:
        failures.append(f"iterations_run {meta.get('iterations_run')}, "
                        f"expected {CLI_MAX_ITERS}")
    if meta.get("converged") is not False:
        failures.append("meta.json reports convergence within 3 sweeps")
    lines = (out_dir / "trace.csv").read_text().split()
    qs = [float(line.split(",")[1]) for line in lines[1:]]
    failures += check_trace(qs)
    failures += check_reference(qs[-1] if qs else math.nan, ref_q)
    return failures


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env
