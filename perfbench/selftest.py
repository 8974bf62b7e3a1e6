"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/run.py --selftest

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer ones, each with its unit; that a run against a deliberately
wrong reference Q is reported as failed operations; and that the runner
exits non-zero without a result when the package source is missing.
Everything it writes stays under .bench_out/selftest and is removed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "selftest"
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ("fit-poisson", "fit-bernoulli-cov", "cli-nb-mtx")
TIMEOUT_S = 170


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, spec_metrics) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        problems.append(f"metrics missing {missing}, extra {extra}, "
                        f"wrong unit {wrong}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v.get("value"), (int, float))
           or v["value"] != v["value"]]
    if bad:
        problems.append(f"non-numeric values {bad}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reference = WORK / "reference.json"
    ok = True

    def report(name, problems):
        nonlocal ok
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {name}"
              + "".join(f"\n    {p}" for p in problems), flush=True)

    try:
        proc = run(["--make-reference", "--seeds", "0", "--scale", "tiny",
                    "--reference", str(reference)])
        report("tiny references", [proc.stderr[-400:]] if proc.returncode
               else [])
        common = ["--seed", "0", "--seconds", "1", "--scale", "tiny",
                  "--reference", str(reference)]
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = run(["--workload", workload, "--trace", str(trace)]
                           + common)
                if proc.returncode:
                    report(f"{workload} trace={trace}",
                           [f"exit {proc.returncode}: {proc.stderr[-400:]}"])
                    continue
                result = last_json(proc)
                problems = check_result(result, spec[key])
                if not (result["correct"] and result["failed"] == 0):
                    problems.append(f"not correct: {proc.stdout[-600:]}")
                report(f"{workload} trace={trace} emits every metric",
                       problems)

        # a wrong reference Q, well above what the fit reaches, must show
        # up as failed operations
        table = json.loads(reference.read_text())
        for workload, seeds in table["workloads"].items():
            for seed, q in seeds.items():
                seeds[seed] = ([v + 1.0 + abs(v) for v in q]
                               if isinstance(q, list) else q + 1.0 + abs(q))
        wrong = WORK / "wrong-reference.json"
        wrong.write_text(json.dumps(table))
        for workload in WORKLOADS:
            proc = run(["--workload", workload, "--trace", "0", "--seed", "0",
                        "--seconds", "1", "--scale", "tiny",
                        "--reference", str(wrong)])
            problems = []
            if proc.returncode:
                problems.append(f"exit {proc.returncode}")
            else:
                result = last_json(proc)
                if result["correct"] or result["failed"] < 1:
                    problems.append(f"wrong reference not caught: {result}")
            report(f"{workload} wrong reference counted as failure", problems)

        # without src/ the runner must fail before printing a result
        bare = WORK / "bare"
        (bare / HERE.name).mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / HERE.name / path.name)
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "fit-poisson", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
        problems = []
        if proc.returncode == 0:
            problems.append("exit code 0 without src/")
        if proc.stdout.strip():
            problems.append(f"printed {proc.stdout[-200:]!r}")
        report("missing source exits non-zero without a result", problems)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
