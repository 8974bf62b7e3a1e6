"""Run every workload over a range of seeds and summarize the spread.

    python3 perfbench/run.py --baseline --seeds 1-10 [--out PATH]

Each (workload, seed) is one untraced benchmark run in its own process,
and each workload gets one traced run on the first seed.  Prints, per
workload and end-to-end metric, the median over the seeds and the
interquartile range as a share of the median, which is the spread the
bounds in BENCHMARK.json are judged against.  Writes every run's result
and the summary as JSON to ``--out``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        return {"error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan")}


def main(seeds: list[int], out: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": seeds, "seconds": spec["run_seconds"], "runs": {},
              "summary": {}, "traced": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        report["runs"][w] = runs
        good = [r for r in runs if "error" not in r]
        ok = ok and len(good) == len(runs) and all(r["correct"] for r in good)
        print(f"{w}: {len(good)}/{len(runs)} runs, "
              f"{sum(r['attempted'] for r in good)} operations, "
              f"{sum(r['failed'] for r in good)} failed", flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in good]
            if len(values) >= 2:
                summary[name] = spread(values)
                unit = good[0]["metrics"][name]["unit"]
                s = summary[name]
                flag = "" if s["iqr_share"] <= bounds[name] / 3 else \
                    (" (above a third of the bound)"
                     if s["iqr_share"] <= bounds[name] else " (ABOVE BOUND)")
                if name != "setup_s" and s["iqr_share"] > bounds[name]:
                    ok = False
                print(f"  {name:14s} median {s['median']:.6g} {unit:3s} "
                      f"IQR/median {s['iqr_share']:.3f} "
                      f"bound {bounds[name]}{flag}", flush=True)
        report["summary"][w] = summary
        report["traced"][w] = run_once(w, seeds[0], spec["run_seconds"], 1)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1
