"""One fresh worker process: import accrgeo.cli, run a slice of ops, report.

Usage: python3 worker.py JOB_JSON RESULT_JSON

The job names the ops (argv plus output check), the first op to run, the
wall-clock slice in seconds and whether to trace. The worker times the
import first, before anything else can load numpy, then calls
``accrgeo.cli.main(argv)`` in a closed loop with stdout and stderr
captured, and stops before the next op would overrun the slice (it always
runs enough ops to have a warm one of each kind it reports). Output checks
and the host-speed references (``reference_ms``) run outside the timed
region. A tracing worker traces its first op and then switches
tracing off and on every ``trace_block`` ops, so traced and untraced ops
share the same process and the same host load.

The result holds the layer totals of the
warm traced ops (``layers``) and of the cold first op (``cold_layers``)
apart, so that one-off costs are not spread over the warm ops.

A tracing worker writes its spans to ``spans_path`` (numpy .npz): span
``names``, and per span ``name_id``, ``parent`` (-1 for a root), ``start``
and ``end`` (``time.perf_counter`` seconds), plus ``op_first_span``, the
index of the first span of each traced op.
"""

import sys
import time

_t0 = time.perf_counter()
import accrgeo.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import check_output  # noqa: E402

#: failure reasons kept per worker; the count is always exact
MAX_REASONS = 5
#: seconds between host-speed references; the first follows the first op
REF_INTERVAL_S = 0.2


def reference_ms() -> float:
    """Fixed pure-Python work whose time tracks the host's current speed.

    An interpreter loop plus object allocation, with the collector paused
    so that its own work does not vary. On a shared host its time moves
    with the time of the CLI ops run next to it on the same core, which
    lets the runner factor slow and fast phases of the machine out of the
    reported times.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    gc.disable()
    try:
        # small batches, so the reference barely raises the worker's peak RSS
        for _batch in range(5):
            pairs = [(i, i * 0.5, str(i)) for i in range(3_000)]
            del pairs
    finally:
        gc.enable()
    return (time.perf_counter() - start) * 1e3


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = accrgeo.cli.main(argv)
        crash = None
    except SystemExit as exc:
        code, crash = exc.code, None
    except Exception:  # a traceback out of the CLI is a failed op, not a dead worker
        code, crash = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), crash


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    recorder = bindings = None
    if job["trace"]:
        recorder = tracing.SpanRecorder()
        bindings = tracing.install(recorder)

    ops = job["ops"]
    # a warm op of each kind that the run reports: untraced, and when tracing also traced
    min_ops = 3 if bindings is not None else 2
    latencies, traced, out_bytes, op_first_span = [], [], [], []
    refs, last_ref = [], -float("inf")  # refs: (index of the op just before, ms)
    failed, reasons = 0, []
    cpu0 = time.process_time()
    begin = time.perf_counter()
    deadline = begin + job["slice_s"]
    index = job["first_op"]
    while True:
        op = ops[index % len(ops)]
        index += 1
        if bindings is not None:
            bindings.set(len(latencies) // job["trace_block"] % 2 == 0)
            if bindings.enabled:
                op_first_span.append(len(recorder))
        traced.append(bindings is not None and bindings.enabled)
        elapsed, code, stdout, stderr, crash = run_op(op["argv"])
        latencies.append(elapsed * 1e3)
        out_bytes.append(len(stdout.encode()))
        if crash:
            problems = [f"traceback: {crash}"]
        else:
            try:
                problems = check_output(op["check"], code, stdout)
            except Exception as exc:  # an output the check cannot read is a wrong output
                problems = [f"output check raised {exc!r}"]
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        if problems:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"{' '.join(op['argv'])}: {'; '.join(problems)}")
        done = len(latencies) >= min_ops and time.perf_counter() + elapsed > deadline
        if done or time.perf_counter() - last_ref >= REF_INTERVAL_S:
            refs.append((len(latencies) - 1, reference_ms()))
            last_ref = time.perf_counter()
        if done:
            break

    result = {
        "setup_s": SETUP_S,
        "numpy": np.__version__,
        "latencies_ms": latencies,
        "refs": refs,
        "traced": traced,
        "out_bytes": out_bytes,
        "failed": failed,
        "reasons": reasons,
        "wall_s": time.perf_counter() - begin,
        "cpu_s": time.process_time() - cpu0,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        spans = recorder.arrays()
        self_s = tracing.self_times(spans["parent"], spans["start"], spans["end"])
        # the cold first op ends where the second traced op begins
        cold_end = op_first_span[1]
        result["spans"] = len(recorder) - cold_end
        result["layers"] = tracing.layer_totals(
            recorder.names, spans["name_id"][cold_end:], self_s[cold_end:]
        )
        result["cold_layers"] = tracing.layer_totals(
            recorder.names, spans["name_id"][:cold_end], self_s[:cold_end]
        )
        np.savez(
            job["spans_path"],
            names=np.array(recorder.names),
            op_first_span=np.array(op_first_span, dtype=np.int64),
            **spans,
        )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
