"""Benchmark entry point: one workload per call, each in its own worker process.

    python3 benchmark/run.py --workload spectral-columns --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workers import the package from the
checkout's src/ with one BLAS/OpenMP thread.  --trace 0 reports the
end-to-end metrics: setup_s is the median over SETUP_SAMPLES set-ups (the
timed run's own plus separate set-up-only processes).  --trace 1 reports the
per-layer metrics from a run in which every other op is traced.  The last
line of standard output is one JSON object; the full result, with op times
and spans, goes to benchmark/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, listed here so that this process imports
# neither numpy nor the package and can fail cleanly without ./src
WORKLOAD_NAMES = ("spectral-columns", "fd2-long", "weighted-norms")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, mode, src, deadline):
    """Run one worker to completion and return its JSON result (last stdout line)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(THREADS, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--src", str(src), "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "greendecay" / "__init__.py").is_file():
        print(f"error: no package source at {src}/greendecay; run from a checkout", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, "setup", src, deadline)["setup_s"])
    run = spawn(args, "run", src, deadline)
    setups.append(run["setup_s"])

    times = run["op_times_s"]
    correct = run["check_failed"] == 0
    if args.trace:
        tr = run["trace"]
        metrics = {name: metric(v, "s") for name, v in tr["layers"].items()}
        metrics["greens.residual_max"] = metric(tr["residual_max"], "1")
        metrics["oracle.rel_err_max"] = metric(run["rel_err_max"], "1")
        metrics["trace.ops"] = metric(tr["ops"], "count")
        metrics["trace.n_per_op"] = metric(run["n_per_op"], "count")
        metrics["trace.overhead_pct"] = metric(tr["overhead_pct"], "%")
    else:
        metrics = {
            "ops_per_s": metric(len(times) / sum(times), "ops/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    for err in run["errors"]:
        print(f"failed op: {err}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    detail = dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_samples_s=setups, metrics=metrics)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
