#!/usr/bin/env python3
"""glmpca benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload fit-poisson --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --baseline --seeds 1-10
    python3 perfbench/run.py --make-reference --seeds 0-29

The runner draws the run's inputs from ``--seed`` (not timed), then
starts a fresh worker process (this file with ``--worker``) that imports
glmpca from ``src/``, runs the workload, checks every operation and
reports.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones from a traced run with
``--trace 1``.  End-to-end times are scaled to a reference machine speed
by the gauge in gauge.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_REFERENCE = HERE / "reference.json"

WORKLOADS = ("fit-poisson", "fit-bernoulli-cov", "cli-nb-mtx")
# BLAS threads for every process the benchmark starts: at most nproc, and
# one keeps timings steadier on a shared two-core machine.
BLAS_THREADS = 1
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
MIN_CLI_JOBS = 25          # so the CLI tail percentile is at least p60
CLI_JOBS_PER_SETUP = 2     # CLI jobs per in-process read + check + build
CLI_TRACE_REPS = 3         # jobs per variant in a traced CLI run
WORKER_TIMEOUT_S = 170.0
FAMILY_METHODS = ("inverse_link", "dinverse_link", "variance",
                  "natural_param", "loglik_term")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def require_source() -> None:
    """Exit non-zero unless the package source is in this checkout."""
    if not (SRC / "glmpca" / "__init__.py").is_file():
        sys.stderr.write(f"error: {SRC / 'glmpca'} not found; run the "
                         "benchmark from a full checkout of the repository\n")
        raise SystemExit(1)


def import_glmpca():
    sys.path.insert(0, str(SRC))
    import glmpca
    if Path(glmpca.__file__).resolve().parent != (SRC / "glmpca").resolve():
        raise SystemExit(f"error: imported glmpca from {glmpca.__file__}, "
                         f"not from {SRC}")
    return glmpca


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its
    value (nearest rank).  Needs more than TAIL_BEYOND values."""
    rank = len(values) - TAIL_BEYOND
    return 100.0 * rank / len(values), sorted(values)[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:10]}


def crash() -> list[str]:
    """An exception from the program counts as a failed operation."""
    return [traceback.format_exc(limit=3)]


# ----------------------------------------------------------------------
# references


def load_reference(path: Path, workload: str, seed: int, scale: str):
    """Stored final Q for this workload, seed and scale, or None."""
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    if table["scale"] != scale:
        return None
    return table["workloads"].get(workload, {}).get(str(seed))


def make_reference(seeds: list[int], workloads, scale: str,
                   path: Path) -> None:
    """Fit every instance of the given seeds untimed and store its Q."""
    import workloads as wl
    g = import_glmpca()
    table = (json.loads(path.read_text()) if path.is_file() else
             {"scale": scale, "tol": wl.TOL, "workloads": {}})
    for workload in workloads:
        for seed in seeds:
            workdir = OUT / f"ref-{workload}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                info = wl.generate(workload, seed, scale, workdir)
                if workload == "cli-nb-mtx":
                    result = wl.cli_in_process(g, Path(info["mtx"]))[2]
                    value = float(result.trace[-1][1])
                else:
                    value = [wl.fit_job(g, workload,
                                        wl.load_instance(workdir, i),
                                        None).final_q
                             for i in range(info["instances"])]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table["workloads"].setdefault(workload, {})[str(seed)] = value
            print(f"{workload} seed {seed}: {value}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# worker: library workloads


def run_job(g, wl, args, index, ref_q):
    """Load one data set (untimed), then fit and check it."""
    try:
        inst = wl.load_instance(args.workdir, index)
        return wl.fit_job(g, args.workload, inst, ref_q)
    except Exception:
        nan = float("nan")
        return wl.JobOutcome(nan, nan, nan, nan, 0, crash())


def library_worker(g, wl, args, refs) -> dict:
    n = json.loads((args.workdir / "info.json").read_text())["instances"]
    if refs is None or len(refs) != n:
        refs = [None] * n
    if args.trace:
        return library_traced(g, wl, args, refs)
    # whole passes over the suite while another pass still fits in
    # --seconds; each instance is one sample, the median of its passes
    from gauge import Gauge
    gauge = Gauge("numeric")
    passes, raw = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        scaled = []
        for i, ref in enumerate(refs):
            outcome = run_job(g, wl, args, i, ref)
            raw.append(outcome.wall_s)
            scaled.append(outcome.scaled(gauge.factor()))
        passes.append(scaled)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    tally = Tally()
    for outcome in (o for p in passes for o in p):
        tally.record(outcome.failures)
    walls = [statistics.median(p[i].wall_s for p in passes) for i in range(n)]
    fits = [statistics.median(p[i].fit_s for p in passes) for i in range(n)]
    pct, wall_tail = tail(walls)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "wall_s_tail": metric(wall_tail, "s"),
        "fit_s": metric(statistics.median(fits), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(
            o.setup_s for p in passes for o in p), "s"),
    }
    details = {"passes": len(passes), "instances": n,
               "tail_percentile": pct,
               "sweeps": [o.sweeps for o in passes[0]],
               "reference": refs[0] is not None,
               **gauge_details(gauge, raw)}
    return {**tally.summary(), "metrics": metrics, "details": details}


def gauge_details(gauge, raw_walls) -> dict:
    """The unscaled job times and the gauge readings behind the scaling."""
    return {"raw_wall_s_median": statistics.median(raw_walls),
            "gauge_reading_s_median": statistics.median(gauge.readings),
            "gauge_reference_s": gauge.reference_s}


def library_traced(g, wl, args, refs) -> dict:
    """Each instance runs untraced, then traced, so the tracing overhead
    is a paired difference that slow spells of the machine do not skew."""
    from tracing import Tracer
    tracer = Tracer()
    tally = Tally()
    plain, traced = [], []
    for i, ref in enumerate(refs):
        plain.append(run_job(g, wl, args, i, ref))
        tracer.install()
        try:
            traced.append(run_job(g, wl, args, i, ref))
        finally:
            tracer.uninstall()
    for outcome in plain + traced:
        tally.record(outcome.failures)
    J, N = json.loads((args.workdir / "info.json").read_text())["shape"]
    info = {"cells": J * N, "sweeps": sum(o.sweeps for o in traced),
            "wall_plain": [o.wall_s for o in plain],
            "wall_traced": [o.wall_s for o in traced],
            "nnz": 0, "bytes_read": 0, "process_wall": None}
    return traced_result(tracer, info, tally, args)


# ----------------------------------------------------------------------
# worker: CLI workload


def cli_worker(g, wl, args, ref_q) -> dict:
    mtx = args.workdir / "counts.mtx"
    out_dir = args.workdir / "out"
    env = wl.child_env(ROOT, BLAS_THREADS)
    tally = Tally()

    def checked(run) -> float:
        """Run one CLI job into a fresh output directory and check it."""
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            seconds, code = run()
            problems = wl.check_cli_outputs(code, out_dir, ref_q)
        except Exception:
            seconds, problems = float("nan"), crash()
        tally.record(problems)
        return seconds

    def spawn():
        return wl.run_cli_process(mtx, out_dir, env)

    if args.trace:
        return cli_traced(g, wl, args, checked, spawn, out_dir, tally)

    from gauge import Gauge
    setup, fits, walls, raw = [], [], [], []
    gauge = Gauge("parse")
    # in-process set-up reps are interleaved with the CLI jobs so that
    # both sample the whole run rather than its first seconds
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(walls) < MIN_CLI_JOBS):
        raw.append(checked(spawn))
        walls.append(raw[-1] * gauge.factor())
        if len(walls) % CLI_JOBS_PER_SETUP == 1:
            try:
                setup_s, fit_s, result = wl.cli_in_process(g, mtx)
                problems = wl.check_capped_fit(result, ref_q)
                f = gauge.factor()
                setup.append(setup_s * f)
                fits.append(fit_s * f)
            except Exception:
                problems = crash()
            tally.record(problems)
    pct, wall_tail = tail(walls)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "wall_s_tail": metric(wall_tail, "s"),
        "fit_s": metric(statistics.median(fits), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    details = {"cli_jobs": len(walls), "setup_reps": len(setup),
               "tail_percentile": pct, "reference": ref_q is not None,
               "page_cache": "warm; caches are not dropped",
               **gauge_details(gauge, raw)}
    return {**tally.summary(), "metrics": metrics, "details": details}


def cli_traced(g, wl, args, checked, spawn, out_dir, tally) -> dict:
    """Child processes first, then pairs of in-process run_cli calls,
    untraced and traced."""
    from tracing import Tracer
    cli = importlib.import_module("glmpca.cli")
    argv = wl.cli_argv(args.workdir / "counts.mtx", out_dir)

    def in_process():
        t0 = time.perf_counter()
        code = cli.run_cli(argv)
        return time.perf_counter() - t0, code

    process = [checked(spawn) for _ in range(CLI_TRACE_REPS)]
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(CLI_TRACE_REPS):
        plain.append(checked(in_process))
        tracer.install()
        try:
            traced.append(checked(in_process))
        finally:
            tracer.uninstall()
    inputs = json.loads((args.workdir / "info.json").read_text())
    J, N = inputs["shape"]
    reads = tracer.rollup().get("io.read_matrix", {}).get("calls", 0)
    info = {"cells": J * N, "sweeps": wl.CLI_MAX_ITERS * len(traced),
            "wall_plain": plain, "wall_traced": traced,
            "nnz": inputs["nnz"] * reads,
            "bytes_read": inputs["mtx_bytes"] * reads,
            "process_wall": statistics.median(process)}
    return traced_result(tracer, info, tally, args)


# ----------------------------------------------------------------------
# per-layer metrics


def traced_result(tracer, info: dict, tally: Tally, args) -> dict:
    """Per-layer metrics: totals over the traced jobs."""
    roll = tracer.rollup()

    def get(name, key="s"):
        return roll.get(name, {}).get(key, 0)

    def both(a, b, key="s"):
        return get(a, key) + get(b, key)

    sweeps = info["sweeps"]
    attempts = get("optimizer._sweep", "calls")
    refreshes = get("model.predictor_stats", "calls")
    read_s = get("io.read_matrix")
    written = sum(Path(p).stat().st_size
                  for paths in tracer.returns.get("io.write_result", [])
                  for p in paths if Path(p).exists())
    fallbacks = sum(tracer.returns.get("optimizer.full_scoring_A", [])
                    + tracer.returns.get("optimizer.full_scoring_Gamma", []))
    plain, traced = info["wall_plain"], info["wall_traced"]
    m = {f"families.{n}.s": metric(get(f"families.{n}"), "s")
         for n in FAMILY_METHODS}
    m["families.calls"] = metric(
        sum(get(f"families.{n}", "calls") for n in FAMILY_METHODS), "count")
    m["model.predictor_stats.calls"] = metric(refreshes, "count")
    m["model.predictor_stats.s"] = metric(get("model.predictor_stats"), "s")
    m["model.predictor_stats.self_s"] = metric(
        get("model.predictor_stats", "self_s"), "s")
    m["model.predictor_stats.calls_per_sweep"] = metric(
        refreshes / sweeps if sweeps else 0.0, "1/sweep")
    # R, M, W and H: four J x N float64 arrays per refresh
    m["model.predictor_stats.mb_computed"] = metric(
        refreshes * 4 * info["cells"] * 8 / 1e6, "MB")
    m["model.objective.calls"] = metric(get("model.objective", "calls"),
                                        "count")
    m["model.objective.s"] = metric(get("model.objective"), "s")
    m["model.gradient.s"] = metric(
        both("model.gradient_u", "model.gradient_v"), "s")
    m["model.fisher_info.s"] = metric(
        both("model.fisher_info_u", "model.fisher_info_v"), "s")
    m["model.build_model.s"] = metric(get("model.build_model"), "s")
    m["optimizer.sweeps"] = metric(sweeps, "count")
    m["optimizer.sweep_attempts"] = metric(attempts, "count")
    m["optimizer.accept_ratio"] = metric(
        sweeps / attempts if attempts else 0.0, "ratio")
    m["optimizer.sweep_s"] = metric(get("optimizer._sweep"), "s")
    m["optimizer.update_column.s"] = metric(
        both("optimizer.update_u_column", "optimizer.update_v_column"), "s")
    m["optimizer.full_scoring.calls"] = metric(
        both("optimizer.full_scoring_A", "optimizer.full_scoring_Gamma",
             "calls"), "count")
    m["optimizer.full_scoring.s"] = metric(
        both("optimizer.full_scoring_A", "optimizer.full_scoring_Gamma"), "s")
    m["optimizer.full_scoring.fallback_rows"] = metric(fallbacks, "count")
    m["optimizer.fit.self_s"] = metric(get("optimizer.fit", "self_s"), "s")
    m["postprocess.project_out_covariates.s"] = metric(
        get("postprocess.project_out_covariates"), "s")
    m["postprocess.rotate.s"] = metric(
        both("postprocess.orthogonalize", "postprocess.order_dims"), "s")
    m["io.read_matrix.s"] = metric(read_s, "s")
    m["io.read_matrix.nnz"] = metric(info["nnz"], "count")
    m["io.read_matrix.nnz_per_s"] = metric(
        info["nnz"] / read_s if read_s else 0.0, "1/s")
    m["io.write_result.s"] = metric(get("io.write_result"), "s")
    m["io.bytes_read"] = metric(info["bytes_read"], "B")
    m["io.bytes_written"] = metric(written, "B")
    m["cli.run_cli.self_s"] = metric(get("cli.run_cli", "self_s"), "s")
    m["cli.process_overhead_s"] = metric(
        info["process_wall"] - statistics.median(traced)
        if info["process_wall"] is not None else 0.0, "s")
    m["trace.wall_s_untraced"] = metric(statistics.median(plain), "s")
    m["trace.wall_s_traced"] = metric(statistics.median(traced), "s")
    m["trace.overhead_s"] = metric(
        statistics.median(t - p for p, t in zip(plain, traced)), "s")
    m["trace.spans"] = metric(len(tracer.spans), "count")

    total_self = sum(r["self_s"] for r in roll.values()) or 1.0
    rollup = sorted(({"name": k, **v, "self_share": v["self_s"] / total_self}
                     for k, v in roll.items()), key=lambda r: -r["self_s"])
    dump = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
    tracer.dump(dump)
    return {**tally.summary(), "metrics": m,
            "details": {"rollup": rollup, "span_dump": dump.name}}


def pin_cpu() -> int | None:
    """Keep the worker, and the CLI children it starts, on one CPU, so
    that the speed gauge reads the CPU the jobs ran on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def worker_main(args) -> None:
    import workloads as wl
    cpu = pin_cpu()
    g = import_glmpca()
    ref = load_reference(args.reference, args.workload, args.seed,
                         args.scale)
    if args.workload == "cli-nb-mtx":
        out = cli_worker(g, wl, args, ref)
    else:
        out = library_worker(g, wl, args, ref)
    out["details"]["cpu"] = cpu
    print(json.dumps(out))


# ----------------------------------------------------------------------
# runner


def environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "glmpca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_commit": commit,
            "source_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def run_main(args) -> None:
    import workloads as wl
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        t0 = time.perf_counter()
        info = wl.generate(args.workload, args.seed, args.scale, workdir)
        info["generate_s"] = time.perf_counter() - t0
        (workdir / "info.json").write_text(json.dumps(info))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--reference", str(args.reference),
               "--workdir", str(workdir)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT),
                                env=wl.child_env(ROOT, BLAS_THREADS))
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("error: worker timed out")
        if proc.returncode != 0:
            raise SystemExit(f"error: worker exited with {proc.returncode}")
        out = json.loads(stdout.decode().strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "inputs": info,
              "environment": environment(), **out}
    name = f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# inputs {json.dumps(info)}")
    details = {k: v for k, v in out["details"].items() if k != "rollup"}
    print(f"# details {json.dumps(details)}")
    for failure in out["failures"]:
        print(f"# FAILED {failure.strip().splitlines()[-1]}")
    for key, m in out["metrics"].items():
        print(f"{key:44s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print("# self-time rollup: name, calls, inclusive s, self s, share")
        for r in out["details"]["rollup"]:
            print(f"#   {r['name']:36s} {r['calls']:>8d} {r['s']:>10.4f} "
                  f"{r['self_s']:>10.4f} {100 * r['self_share']:6.1f}%")
    print(json.dumps({"correct": out["failed"] == 0 and out["attempted"] > 0,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="instance sizes; tiny is for the self-test")
    p.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                   help="stored final-Q references (JSON)")
    p.add_argument("--make-reference", action="store_true",
                   help="fit the instances of --seeds and store their Q")
    p.add_argument("--seeds", help="seed range for --make-reference "
                   "(default 0-29) or --baseline (default 1-10)")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--baseline", action="store_true",
                   help="run every workload over --seeds and summarize")
    p.add_argument("--out", type=Path, default=OUT / "baseline.json",
                   help="where --baseline writes its JSON")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    require_source()
    pin_threads()
    sys.path.insert(0, str(HERE))
    if args.worker:
        worker_main(args)
    elif args.selftest:
        import selftest
        raise SystemExit(selftest.main())
    elif args.baseline:
        import baseline
        raise SystemExit(baseline.main(parse_seeds(args.seeds or "1-10"),
                                       args.out))
    elif args.make_reference:
        make_reference(parse_seeds(args.seeds or "0-29"),
                       [args.workload] if args.workload else WORKLOADS,
                       args.scale, args.reference)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        run_main(args)


if __name__ == "__main__":
    main()
