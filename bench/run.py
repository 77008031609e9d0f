"""accrgeo benchmark runner.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The runner writes the seeded inputs under
``.bench_work/inputs/``, then starts fresh single-threaded worker processes
one at a time (``bench/worker.py``). Each imports ``accrgeo.cli`` from
``src/`` and calls ``accrgeo.cli.main(argv)`` in a closed loop with one
client for its share of the seconds. Every op's output is checked.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones:

    setup_s      median time of ``import accrgeo.cli`` in a fresh worker
    first_op_ms  median latency of each worker's first command
    op_p50_ms    median latency of a command in a warm worker
    peak_rss_mb  median of the workers' ru_maxrss

Times are given at a nominal host speed. The shared machines this runs on
have slow and fast phases that last from seconds to minutes and change
every measured time by up to 1.9x, far beyond any useful regression
bound. Each worker therefore times a fixed pure-Python reference loop
(``worker.reference_ms``) between its ops, and the runner scales each
time by NOMINAL_REF_MS over the mean of the references read just before
and just after it. The raw medians and the reference times are printed
and logged next to the scaled ones.

``op_p90_ms`` (only where at least ten warm samples lie beyond it) and
``op_fail_ratio`` are printed above that line with their sample counts.

With ``--trace 1`` each worker traces its first (cold) op, then switches
tracing off and on between blocks of ops, so traced and untraced ops meet
the same host load. The metrics are self times (raw, not scaled) and call
counts per warm traced op (see ``tracing.py``), ``cli.output_bytes`` per
warm traced op, and the tracing overhead as scaled traced against
untraced warm ``op_p50_ms``. The cold first op is kept apart: ``cold.*``
gives its layer self times and bundle-cache misses, averaged over workers.
Each traced worker writes its spans to ``.bench_work/spans/<workload>/``
when it ends; only the latest traced run of a workload is kept.

``--workload all`` runs every workload in turn. Every run prints and appends
to ``.bench_work/runs.jsonl`` its provenance (commit, Python and numpy
versions, nproc, load average, seed, the reference-loop times and the raw
medians) and its metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
#: fresh workers per untraced run; their medians give setup_s, first_op_ms and peak_rss_mb
WORKERS = 10
#: workers per traced run; longer slices leave traced and untraced warm ops in each
TRACE_WORKERS = 4
#: seconds a worker may exceed its slice before it is killed
WORKER_GRACE_S = 60.0
#: warm samples needed beyond the 90th percentile before it is reported
TAIL_SAMPLES = 10
#: failure reasons printed per workload; ``failed`` counts every failure
MAX_REASONS = 10
#: reference-loop time that defines the nominal host speed of reported times
NOMINAL_REF_MS = 10.0

END_TO_END_UNITS = {"setup_s": "s", "first_op_ms": "ms", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: per traced op, summed from the spans; ``<layer>.self_ms`` covers every span of the layer
SPAN_METRICS = (
    "geometry.LieAlgebra.self_ms",
    "geometry.levi_civita.self_ms",
    "geometry.riemann.self_ms",
    "geometry.ricci.self_ms",
    "geometry.fundamental_tensor.self_ms",
    "geometry.classify_sasaki_like.self_ms",
    "geometry.curvature_package.calls",
    "geometry.self_ms",
    "tensors.Tensor.calls",
    "tensors.Tensor.self_ms",
    "tensors.invert_metric.self_ms",
    "tensors.max_abs.calls",
    "tensors.self_ms",
    "solitons.TheoremReport.add.calls",
    "solitons.TheoremReport.add.self_ms",
    "solitons.einstein_like_fit.calls",
    "solitons.einstein_like_fit.self_ms",
    "solitons.solve_vertical_soliton.calls",
    "solitons.verify_conformal_theorem.self_ms",
    "solitons.lie_derivative_metric.self_ms",
    "solitons.self_ms",
    "scenarios.run_example2_report.calls",
    "scenarios.run_example2_report.self_ms",
    "scenarios.run_example1_report.self_ms",
    "scenarios.example1_curve.self_ms",
    "scenarios.build_example2.calls",
    "scenarios.self_ms",
    "structure.validate_structure.self_ms",
    "structure.metric_signature.self_ms",
    "structure.self_ms",
    "definitions.self_ms",
    "cli.self_ms",
)
#: layer totals of each worker's cold first op, reported as ``cold.<name>``
COLD_METRICS = (
    "geometry.self_ms",
    "tensors.self_ms",
    "solitons.self_ms",
    "scenarios.build_example2.calls",
    "scenarios.self_ms",
    "structure.self_ms",
    "definitions.self_ms",
    "cli.self_ms",
)
#: the rest of the traced run's metrics
TRACE_UNITS = {
    "cli.output_bytes": "bytes",
    # 1 - build_example2 calls (bundle-cache misses) / run_example2_report calls;
    # 0 where the base is 0
    "scenarios.bundle_hit_ratio": "ratio",
    "trace.ops": "count",
    "trace.spans_per_op": "count",
    "trace.op_p50_ms": "ms",
    "trace.untraced_op_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict:
    spans = [*SPAN_METRICS, *(f"cold.{name}" for name in COLD_METRICS)]
    units = {name: "count" if name.endswith(".calls") else "ms" for name in spans}
    return {**units, **TRACE_UNITS}


class RunError(Exception):
    """The run cannot produce a result (no program, a worker died)."""


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git_dir, ref)):
            with open(os.path.join(git_dir, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv, timeout_s: float) -> None:
    """Run one child to completion; it is killed and reaped if it overruns."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{argv[1]} ran over {timeout_s:.0f} s and was killed") from None
    if proc.returncode != 0:
        tail = (err or out).decode(errors="replace").strip().splitlines()[-3:]
        raise RunError(f"{argv[1]} exited {proc.returncode}: {' | '.join(tail)}")


def run_worker(job: dict, tag: str) -> dict:
    job_path = os.path.join(WORK, "workers", f"{tag}.job.json")
    result_path = os.path.join(WORK, "workers", f"{tag}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    if os.path.exists(result_path):
        os.remove(result_path)
    worker = os.path.join(HERE, "worker.py")
    run_process([sys.executable, worker, job_path, result_path], job["slice_s"] + WORKER_GRACE_S)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(job_path)
    os.remove(result_path)
    return result


def prepare(workload: str, seed: int) -> list:
    """Check the program is present, write the seeded inputs, warm the bytecode."""
    if not os.path.isfile(os.path.join(ROOT, "src", "accrgeo", "cli.py")):
        raise RunError(f"no accrgeo sources under {os.path.join(ROOT, 'src')}; run from the repository root")
    inputs = os.path.join(WORK, "inputs", workload)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    ops = WORKLOADS[workload].make_ops(seed, os.path.relpath(inputs, ROOT))
    # the first import in a checkout compiles bytecode; no measured worker pays it
    run_process([sys.executable, "-c", "import accrgeo.cli"], WORKER_GRACE_S)
    return ops


def run_workers(workload: str, ops, count: int, seconds: float, tag: str, spans_dir=None) -> list:
    """count fresh workers one after another, each with an equal slice of seconds."""
    block = WORKLOADS[workload].block
    results = []
    for w in range(count):
        job = {
            "ops": ops,
            "first_op": w * block % len(ops),
            "slice_s": seconds / count,
            "trace": spans_dir is not None,
            "trace_block": block,
            "spans_path": spans_dir and os.path.join(spans_dir, f"{tag}-w{w}.npz"),
        }
        result = run_worker(job, f"{tag}-w{w}")
        result["factors"] = host_factors(len(result["latencies_ms"]), result["refs"])
        results.append(result)
    return results


def host_factors(n_ops: int, refs) -> list:
    """Per op, NOMINAL_REF_MS over the mean of the references read just before and after it.

    refs holds (index of the op just before the reading, ms) in order; the
    worker reads one after its first and after its last op.
    """
    factors, before, k = [], None, 0
    for i in range(n_ops):
        while refs[k][0] < i:
            before = refs[k][1]
            k += 1
        after = refs[k][1]
        reference = after if before is None else (before + after) / 2.0
        factors.append(NOMINAL_REF_MS / reference)
    return factors


def warm_latencies(results, traced=False, raw=False) -> list:
    """Scaled (or raw) latencies after each worker's first op, of traced or untraced ops."""
    return [
        ms * (1.0 if raw else factor)
        for r in results
        for ms, factor, was_traced in zip(r["latencies_ms"][1:], r["factors"][1:], r["traced"][1:])
        if was_traced == traced
    ]


def percentile_90(samples):
    """Nearest-rank 90th percentile, or None with fewer than TAIL_SAMPLES beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def end_to_end(results) -> dict:
    """name -> (value, unit, sample count); the import scales like the first op"""
    values = {
        "setup_s": [r["setup_s"] * r["factors"][0] for r in results],
        "first_op_ms": [r["latencies_ms"][0] * r["factors"][0] for r in results],
        "op_p50_ms": warm_latencies(results),
        "peak_rss_mb": [r["maxrss_mb"] for r in results],
    }
    return {
        name: (statistics.median(samples), END_TO_END_UNITS[name], len(samples))
        for name, samples in values.items()
    }


def per_layer(results) -> dict:
    """name -> (value, unit); per warm traced op, and ``cold.*`` per worker's first op"""
    ops = sum(sum(r["traced"][1:]) for r in results)
    totals, cold = {}, {}
    for result in results:
        for key, value in result["layers"].items():
            totals[key] = totals.get(key, 0) + value
        for key, value in result["cold_layers"].items():
            cold[key] = cold.get(key, 0) + value
    reports = totals.get("scenarios.run_example2_report.calls", 0)
    misses = totals.get("scenarios.build_example2.calls", 0)
    traced_p50 = statistics.median(warm_latencies(results, traced=True))
    untraced_p50 = statistics.median(warm_latencies(results))
    out_bytes = sum(b for r in results for b, t in zip(r["out_bytes"][1:], r["traced"][1:]) if t)
    values = {name: totals.get(name, 0) / ops for name in SPAN_METRICS}
    values.update({f"cold.{name}": cold.get(name, 0) / len(results) for name in COLD_METRICS})
    values.update(
        {
            "cli.output_bytes": out_bytes / ops,
            "scenarios.bundle_hit_ratio": 1.0 - misses / reports if reports else 0.0,
            "trace.ops": ops,
            "trace.spans_per_op": sum(r["spans"] for r in results) / ops,
            "trace.op_p50_ms": traced_p50,
            "trace.untraced_op_p50_ms": untraced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
        }
    )
    units = per_layer_units()
    return {name: (value, units[name]) for name, value in values.items()}


def provenance(seed: int, workload: str, results) -> dict:
    cpu = sum(r["cpu_s"] for r in results)
    wall = sum(r["wall_s"] for r in results)
    references = [ms for r in results for _, ms in r["refs"]]
    raw_warm = warm_latencies(results, raw=True)
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "reference_ms": {
            "nominal": NOMINAL_REF_MS,
            "median": statistics.median(references),
            "min": min(references),
            "max": max(references),
            "count": len(references),
        },
        "raw": {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "first_op_ms": statistics.median(r["latencies_ms"][0] for r in results),
            "op_p50_ms": statistics.median(raw_warm),
        },
        "worker_cpu_per_wall": cpu / wall,
        "workers": len(results),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = prepare(workload, seed)
    tag = f"{workload}-{seed}"
    tail = None
    if trace:
        spans_dir = os.path.join(WORK, "spans", workload)
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        results = run_workers(workload, ops, TRACE_WORKERS, seconds, f"{tag}-trace", spans_dir)
        metrics = per_layer(results)
    else:
        results = run_workers(workload, ops, WORKERS, seconds, tag)
        metrics = end_to_end(results)
        warm = warm_latencies(results)
        tail = (percentile_90(warm), len(warm))
    return {
        "workload": workload,
        "provenance": provenance(seed, workload, results),
        "attempted": sum(len(r["latencies_ms"]) for r in results),
        "failed": sum(r["failed"] for r in results),
        "reasons": [reason for r in results for reason in r["reasons"]],
        "metrics": metrics,
        "op_p90_ms": tail,
    }


def report_lines(run: dict) -> list:
    label = f"{run['workload']:>15}"
    lines = [f"provenance {json.dumps(run['provenance'])}"]
    for name, (value, unit, *count) in run["metrics"].items():
        samples = f" (n={count[0]})" if count else ""
        lines.append(f"{label}  {name:<40} {value:>14.6g} {unit}{samples}")
    if run["op_p90_ms"] is not None:
        p90, n_warm = run["op_p90_ms"]
        shown = f"{p90:>14.6g} ms" if p90 is not None else f"not reported, < {TAIL_SAMPLES} samples beyond it"
        lines.append(f"{label}  {'op_p90_ms':<40} {shown} (n={n_warm})")
    ratio = run["failed"] / run["attempted"]
    lines.append(f"{label}  {'op_fail_ratio':<40} {ratio:>14.6g} ({run['failed']}/{run['attempted']} ops)")
    lines += [f"{label}  failed: {reason}" for reason in run["reasons"][:MAX_REASONS]]
    return lines


def result_line(runs) -> dict:
    """The last stdout line; with several workloads, names get a workload prefix."""
    failed = sum(r["failed"] for r in runs)
    prefix = len(runs) > 1
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {"value": entry[0], "unit": entry[1]}
            for r in runs
            for name, entry in r["metrics"].items()
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="accrgeo CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(WORK, "workers"), exist_ok=True)
    runs = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(run)), flush=True)
            runs.append(run)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(WORK, "runs.jsonl"), "a", encoding="utf-8") as handle:
        for run in runs:
            handle.write(json.dumps({**run, "trace": args.trace}) + "\n")
    print(json.dumps(result_line(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
