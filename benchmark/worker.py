"""One workload in one process: set up, run the timed closed loop, check, report.

Started by run.py with the thread counts fixed and PYTHONPATH pointing at the
checkout's src/.  Prints one JSON object as its last line of standard output.

  --mode setup  imports, input generation and one warm-up op, then report setup_s
  --mode run    the same set-up, then ops back to back for --seconds; with
                --trace 1 every other op runs under the tracer
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import greendecay as gd
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

IMPORTED = time.perf_counter()

POOL = 256  # seeded inputs per run; op i uses input i mod POOL


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True, help="parent's perf_counter at spawn")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    if not Path(gd.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"greendecay imported from {gd.__file__}, not from {args.src}")

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](workdir)
    rng = np.random.default_rng(args.seed)
    warmup = workload.params(rng)
    inputs = [workload.params(rng) for _ in range(POOL)]
    try:
        workload.op(warmup)
        setup_s = time.perf_counter() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = timed_loop(workload, inputs, args.seconds, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["import_s"] = IMPORTED - args.t0
    print(json.dumps(result))
    return 0


def timed_loop(workload, inputs, seconds, tracer):
    """Closed loop, one client: each op starts when the previous op, and its check unless deferred, has ended."""
    times, traced, errors, pending = [], [], [], []
    failed = check_failed = 0
    rel_err_max = check_s = 0.0

    def check(rec):
        nonlocal failed, check_failed, rel_err_max, check_s
        start = time.perf_counter()
        try:
            rel_err_max = max(rel_err_max, workload.check(rec))
        except Exception as err:  # a check that cannot complete fails too
            failed += 1
            check_failed += 1
            errors.append(f"check: {type(err).__name__}: {err}")
        check_s += time.perf_counter() - start

    busy = 0.0
    while busy < seconds or len(times) < 2 or (tracer and len(times) % 2):
        index = len(times)
        under_trace = tracer is not None and index % 2 == 1
        params = inputs[index % len(inputs)]
        start = time.perf_counter()
        try:
            if under_trace:
                with tracer.op(index):
                    rec = workload.op(params)
            else:
                rec = workload.op(params)
        except Exception:
            rec = None
            failed += 1
            errors.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        busy += elapsed
        times.append(elapsed)
        traced.append(under_trace)
        if rec is not None:
            if workload.deferred:
                pending.append(rec)
            else:
                check(rec)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for rec in pending:
        check(rec)

    out = {
        "attempted": len(times),
        "failed": failed,
        "check_failed": check_failed,
        "errors": errors[:5],
        "op_times_s": times,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb,
        "rel_err_max": rel_err_max,
        "n_per_op": workload.n_per_op,
        "check_s": check_s,
    }
    if tracer is not None:
        plain = [t for t, tr in zip(times, traced) if not tr]
        under = [t for t, tr in zip(times, traced) if tr]
        layers = {name: statistics.median(op.get(name, 0.0) for op in tracer.per_op)
                  for name in LAYER_METRICS}
        out["trace"] = {
            "layers": layers,
            "residual_max": tracer.residual_max,
            "ops": len(under),
            "overhead_pct": 100.0 * (statistics.median(under) / statistics.median(plain) - 1.0),
            "spans": tracer.spans,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
