"""Run workloads over several seeds and print every metric with its spread.

    python3 perfbench/suite.py                       # all workloads, seed 0
    python3 perfbench/suite.py --seeds 0 1 2 3 4 5 6 7 8 9 --workloads search

Each (workload, seed) runs ``perfbench/run.py`` untraced in its own process,
one after another. For each metric the summary gives the median over seeds,
the distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, and the metric's bound from
``BENCHMARK.json``; a spread above a third of its bound is flagged. It also
pools every item's time over the runs and reports the highest percentile
with at least ten samples beyond it, with the sample count. Exits 1 if any
output check failed or a run did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
RUN_TIMEOUT_S = 600


def pooled_tail(times: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) of the highest sample that still has at
    least ten samples above it, or None with fewer than eleven samples."""
    xs = sorted(times)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of the values; q1 = q3 = median with one value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def run_one(workload: str, seed: int, seconds: float) -> dict | None:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}, no output\n{proc.stderr}")
        return None
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    record = BENCH / "out" / f"{workload}-seed{seed}-trace0.json"
    result["samples"] = [s["seconds"] for s in json.loads(record.read_text())["samples"]]
    if proc.returncode:
        print(proc.stderr)
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in bench["workloads"]]
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)

    ok = True
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_one(w, seed, args.seconds)
            if r is None:
                ok = False
                continue
            ok &= r["correct"] and r["returncode"] == 0
            runs.append(r)
            vals = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} {vals}", flush=True)
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {w}: {len(runs)} runs, fail_ratio = {failed / attempted:.4g} "
              f"({failed}/{attempted} items)")
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3 = spread(vals)
            share = (q3 - q1) / med if med else 0.0
            flag = "" if share <= bounds[name] / 3 else "  WIDE"
            print(f"   {name:32s} {med:12.6g} {m['unit']:6s} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={share:.2%} bound={bounds[name]:.0%}{flag}")
        tail = pooled_tail([t for r in runs for t in r["samples"]])
        if tail is not None:
            value, pct, n = tail
            print(f"   pooled verdict tail: {value:.6g} s at p{pct:.1f} "
                  f"of {n} item samples (10 beyond)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
