"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy. The run makes
its inputs from ``--seed``, repeats full passes over the workload's items
while the next pass still fits in ``--seconds`` (at least one pass), checks
every output outside the timed region, writes a result file under
``perfbench/out/`` and prints one JSON object as its last line. With
``--trace 0`` the object holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics from spans around calls into each module.

Exit codes: 0 all outputs correct, 1 some output wrong or an item raised,
2 the program source is missing or the arguments are bad.
"""

import sys
import time

_T0 = time.perf_counter()
_AT_START = frozenset(sys.modules)  # what the interpreter loaded by itself

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("corpus", "kneser63", "search", "compare")
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def end_to_end(setup_times, pass_walls, samples) -> dict[str, float]:
    # Each item counts once, at its median over the run's passes, so that
    # the statistics do not shift with the number of passes that fit.
    by_item: dict[str, list[float]] = {}
    for _, item_id, dt in samples:
        by_item.setdefault(item_id, []).append(dt)
    item_medians = [statistics.median(v) for v in by_item.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(pass_walls),
        "verdict_p50_s": statistics.median(item_medians),
        # a run holds too few items for a percentile with ten samples beyond
        # it; its tail is the slowest item (suite.py pools runs for the
        # percentile)
        "verdict_tail_s": max(item_medians),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_pass(items, p: int, tracer=None):
    """Time every item once, then check its output outside the timed region.

    Returns the pass's summed item time, (pass, item id, seconds) samples and
    the failures; an item that raises is a failure, not an abort.
    """
    gc.collect()
    wall = 0.0
    samples = []
    failures = []
    for item in items:
        t = time.perf_counter()
        try:
            out = tracer.item(f"{p}/{item.id}", item.run) if tracer else item.run()
        except Exception:
            dt = time.perf_counter() - t
            reason = traceback.format_exc()
        else:
            dt = time.perf_counter() - t
            reason = item.check(out)
        wall += dt
        samples.append((p, item.id, dt))
        if reason is not None:
            failures.append({"pass": p, "item": item.id, "reason": reason})
    return wall, samples, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectral_switch" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # one process, no extra threads: BLAS pools stay at one thread
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    before_numpy = set(sys.modules)
    t = time.perf_counter()
    import numpy  # noqa: F401  (a dependency: imported once, timed apart)

    numpy_import_s = time.perf_counter() - t

    # Set-up is a fresh import of the program plus making the inputs, done
    # several times; setup_s reports the median. Before each repeat every
    # module is dropped that neither the interpreter's start nor the numpy
    # import loaded (this file's own imports too), so each sample pays for
    # the program's whole import closure, standard library modules included.
    preloaded = _AT_START | (set(sys.modules) - before_numpy)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m not in preloaded]:
            del sys.modules[name]
        gc.collect()  # free the previous repeat's modules and inputs
        t = time.perf_counter()
        importlib.import_module("spectral_switch.cli")  # what a command-line run imports
        workloads = importlib.import_module("workloads")
        items = workloads.WORKLOADS[args.workload](args.seed)
        setup_times.append(time.perf_counter() - t)
    import spectral_switch
    import tracing

    if SRC not in Path(spectral_switch.__file__).resolve().parents:
        print(f"perfbench: imported {spectral_switch.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    cost_per_span = tracing.span_cost() if tracer else 0.0
    samples: list[tuple[int, str, float]] = []
    failures: list[dict] = []
    pass_walls: list[float] = []
    with tracer or contextlib.nullcontext():
        t_begin = time.perf_counter()
        start_s = t_begin - _T0
        while True:
            wall, pass_samples, pass_failures = run_pass(items, len(pass_walls), tracer)
            pass_walls.append(wall)
            samples += pass_samples
            failures += pass_failures
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / len(pass_walls) > args.seconds:
                break

    attempted = len(samples)
    failed = len(failures)
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, len(pass_walls), cost_per_span)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = end_to_end(setup_times, pass_walls, samples)
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "start_s": start_s,
        "numpy_import_s": numpy_import_s,
        "setup_times": setup_times,
        "pass_walls": pass_walls,
        "samples": [{"pass": p, "item": i, "seconds": dt} for p, i, dt in samples],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if tracer:
        record["span_cost_s"] = cost_per_span
        record["items"] = tracing.item_breakdown(tracer.spans)
        record["spans"] = [s.to_json_dict() for s in tracer.spans]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    print(f"{args.workload} passes = {len(pass_walls)}, items = {attempted}, "
          f"fail_ratio = {failed / attempted:.6g}; record in {out_file.relative_to(ROOT)}")
    for f in failures[:5]:
        print(f"FAILED {f['item']} (pass {f['pass']}): {f['reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
