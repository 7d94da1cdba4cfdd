"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload trial --seed 1 --seconds 30 --trace 0

It puts ``src/`` on the import path (the package need not be installed),
times set-up, runs whole rounds of the workload's operations until
``--seconds`` have passed, checks every output, and prints one JSON object
as its last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` the first half of the time runs untraced
and the second half traced, and the metrics are the per-layer ones, per
traced operation.  Run outputs and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import dosebounds; print(time.perf_counter() - t)"
)

Record = namedtuple("Record", "op output error wall cpu traced")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds(root):
    """Time to import the package in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def run_rounds(call, ops, seconds, records, traced):
    """Whole rounds of ``ops`` until ``seconds`` have passed; returns the time taken."""
    start = time.perf_counter()
    while True:
        for op in ops:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                output, error = call(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            records.append(Record(op, output, error, wall, cpu, traced))
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start


def end_to_end(records, elapsed, setup_s, peak_rss_mb):
    return {
        "setup_s": setup_s,
        "throughput": len(records) / elapsed,
        "latency_s.p50": statistics.median(r.wall for r in records),
        "cpu_s.p50": statistics.median(r.cpu for r in records),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, records, workload, names):
    traced = [r for r in records if r.traced]
    n = len(traced)
    values = dict.fromkeys(names, 0.0)
    for label, seconds in tracer.self_s.items():
        if label + ".s" in values:
            values[label + ".s"] = seconds / n
    for label, count in tracer.counts.items():
        if label in values:
            values[label] = count / n
    wall = sum(r.wall for r in traced)
    values["trace.op_wall.s"] = wall / n
    values["trace.self_time_share"] = sum(
        seconds for label, seconds in tracer.self_s.items() if label + ".s" in names
    ) / wall
    untraced = [r for r in records if not r.traced]
    ratio_num = ratio_den = 0.0
    for op in dict.fromkeys(r.op for r in traced):
        ratio_num += statistics.median(r.wall for r in traced if r.op == op)
        ratio_den += statistics.median(r.wall for r in untraced if r.op == op)
    values["trace.overhead_share"] = ratio_num / ratio_den - 1.0
    if hasattr(workload, "gamma_cols_used"):
        values["benchmark.gamma_cols_used_share"] = workload.gamma_cols_used(
            [r.output for r in traced if r.error is None]
        )
    return values


def write_spans(path, tracer, first_ops):
    spans = [
        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
        for i, (name, start, end, parent, op) in enumerate(tracer.spans)
        if op in first_ops
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans}, handle)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dosebounds", "__init__.py")):
        print("perfbench: src/dosebounds not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    # One worker thread: BLAS must not fan out behind the single client.  Set
    # before numpy is first imported, and inherited by the import probe.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = os.path.join(root, OUT_DIR, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    setups = []
    # the CLI reports the files it wrote on stdout, where the result goes
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare(out_dir)
            setups.append(time.perf_counter() - start)
        setups = [s + import_seconds(root) for s in setups]
        ops = workload.round_ops(args.seed)
        records = []
        if args.trace:
            run_rounds(workload.run, ops, args.seconds / 2, records, False)
            tracer = tracing.Tracer()
            root_span = tracer.span(workload.root_span, workload.run)

            def traced_call(op):
                tracer.op = len(records)
                return root_span(op)

            with tracer:
                elapsed = run_rounds(traced_call, ops, args.seconds / 2, records, True)
        else:
            elapsed = run_rounds(workload.run, ops, args.seconds, records, False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, faults = workload.check([(r.op, r.output) for r in records if r.error is None])

    errors = sorted({r.error for r in records if r.error is not None})
    failed = sum(1 for r in records if r.error is not None or r.op in faults)
    for line in errors[:5] + [f"known fault: {op}" for op in sorted(faults)] + problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        section = spec["per_layer"]
        names = [m["name"] for m in section]
        values = per_layer(tracer, records, workload, names)
        first = next(i for i, r in enumerate(records) if r.traced)
        write_spans(
            os.path.join(out_dir, f"spans-seed{args.seed}.json"), tracer, range(first, first + len(ops))
        )
    else:
        section = spec["end_to_end"]
        values = end_to_end(records, elapsed, statistics.median(setups), peak_rss_mb)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
