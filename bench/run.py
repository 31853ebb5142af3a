"""prefvote benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit --seed 1 --seconds 25 --trace 0

The benchmark builds nothing: it puts the checkout's ``src`` on the path,
generates its inputs from ``--seed`` under ``.bench_work/``, runs the
workload's operation until ``--seconds`` have passed, checks every
output, and prints the metrics.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same operations with the span recorder
installed and prints the per-layer metrics.  See README.md in this
directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("fit", "simulate", "simulate-jobs", "audit")

#: The end-to-end metric (and workload) each per-layer group should move.
EXPECTED = {
    "cli": "simulate-jobs op_s and items_per_s (useful_work_ratio shows oversubscription)",
    "fileio": "fit op_s and items_per_s; fileio.parse_profile_s: audit items_per_s only",
    "learning": "fit op_s and items_per_s, simulate op_s (step2); not audit",
    "experiments": "simulate op_s and items_per_s, simulate-jobs op_s and items_per_s",
    "pipeline": "simulate items_per_s and setup_s, a small share of simulate op_s (step3)",
    "processes": "audit op_s",
    "profiles": "audit op_s and items_per_s",
    "scc": "audit op_s and items_per_s",
}


ALIASES = (
    "pipeline_s",
    "fit_voters_per_s",
    "fit_nonconverged_frac",
    "step2_run_s",
    "step3_run_s",
    "population_instance_s",
    "simulate_jobs_s",
    "audit_dense_s",
    "audit_sparse_per_s",
    "failed_frac",
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def timed_loop(seconds: float, min_cycles: int, cycle) -> int:
    """Call ``cycle(k)`` for k = 0, 1, ... until ``seconds`` are used.

    Stops early rather than overrun: another cycle starts only if the
    median cycle so far still fits in the remaining time.
    """
    from workloads import OpFailed

    start = time.perf_counter()
    durations = []
    k = 0
    while True:
        began = time.perf_counter()
        try:
            cycle(k)
        except OpFailed:
            pass
        durations.append(time.perf_counter() - began)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_cycles and elapsed + statistics.median(durations) > seconds:
            return k


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def machine_info(run) -> dict:
    import numpy
    import scipy

    return {
        "nproc": run.nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "child": run.child_info,
    }


def cli_metrics(run) -> dict[str, float]:
    out = {}
    for sub in ("fit", "summarize", "decide", "simulate", "axioms"):
        stats = run.cli_stats.get(sub)
        calls = stats["calls"] if stats else 0
        for key in ("wall_s", "cpu_s", "nivcsw"):
            out[f"cli.{sub}.{key}"] = stats[key] / calls if calls else 0.0
    stats = run.cli_stats.get("simulate")
    out["cli.simulate.useful_work_ratio"] = (
        stats["cpu_s"] / (stats["wall_s"] * run.nproc) if stats else 0.0
    )
    return out


def bench(args, sizes, work: str):
    from tracing import LAYERS, Tracer, layer_metrics
    from workloads import WORKLOADS, Run, median

    run = Run(ROOT, work, args.seed, sizes)
    workload = WORKLOADS[args.workload](run)
    setup_s = median([workload.setup_once() for _ in range(sizes.setup_reps)])
    tracer = Tracer()
    untraced, traced = [], []

    def cycle(k: int) -> None:
        if not args.trace:
            workload.cycle(k, workload.samples)
            return
        if workload.children:
            workload.cycle(k, workload.samples)
            began = time.perf_counter()
            workload.inproc(k, defaultdict(list))
        else:
            began = time.perf_counter()
            workload.cycle(k, workload.samples)
        untraced.append(time.perf_counter() - began)
        with tracer.installed():
            began = time.perf_counter()
            workload.inproc(k, defaultdict(list))
            traced.append(time.perf_counter() - began)

    cycles = timed_loop(args.seconds, sizes.min_cycles, cycle)
    workload.finish()

    print(f"machine: {json.dumps(machine_info(run), sort_keys=True)}")
    print(f"workload: {args.workload} seed {args.seed}, {cycles} cycles, {run.attempted} checks")
    print(f"output_sha256: {run.hexdigest()}")
    for key, values in workload.samples.items():
        print(f"  {key} samples: {' '.join(f'{v:.4g}' for v in values)}")
    for name, value in workload.aliases().items():
        print(f"  {name} = {value:.6g}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, len(traced), sum(traced))
        metrics.update(cli_metrics(run))
        metrics["trace.traced_op_s"] = median(traced)
        metrics["trace.untraced_op_s"] = median(untraced)
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
        aliases = dict.fromkeys(ALIASES, 0.0)
        aliases.update(workload.aliases(), failed_frac=run.failed / max(run.attempted, 1))
        metrics.update({f"workload.{name}": value for name, value in aliases.items()})
        print(f"layer self time per operation ({len(traced)} traced operations):")
        for layer in LAYERS:
            print(f"  {layer:<12} {metrics[layer + '.self_s']:10.6f} s   moves: {EXPECTED[layer]}")
        print(f"  {'uncovered':<12} {metrics['trace.uncovered_s']:10.6f} s")
        print(
            f"  {'overhead':<12} {metrics['trace.overhead_s']:10.6f} s "
            f"(traced {metrics['trace.traced_op_s']:.6f} s - untraced {metrics['trace.untraced_op_s']:.6f} s)"
        )
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s": median(workload.samples["op"]),
            "items_per_s": median(workload.samples["items"]),
            "peak_rss_mb": peak_rss_mb(),
        }
    return metrics, run


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "prefvote", "cli.py")):
        print(f"error: no prefvote source tree under {ROOT}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from workloads import FULL

    spec = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[group]}
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        metrics, run = bench(args, sizes or FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mismatch = sorted(set(units) ^ set(metrics))
    if mismatch:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {mismatch}")
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
