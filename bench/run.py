"""Benchmark of the edgetype CLI: one workload, one seed, one run.

    python3 bench/run.py --workload maxent_scale --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout; the package is imported from
./src.  Set-up is measured SETUP_REPEATS times, each in a fresh worker
process (start -> imports -> input generation -> one warm-up operation);
the last of those processes then runs the timed phase.  Workers run one at
a time with OpenBLAS/OpenMP pinned to one thread and a fixed hash seed.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with --trace 0 and the
per-layer ones (from a traced phase after an untraced one) with --trace 1.
Exits non-zero without a result when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("maxent_scale", "exact_count", "rd_small")
SETUP_REPEATS = 5
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s",
    "ok_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/op"


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, k: int, setup_only: bool, deadline: float) -> tuple[float, str | None]:
    """Start one worker; return (seconds to READY, its result line or None)."""
    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}-{k}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=pinned_env())
    guard = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    guard.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        guard.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "READY" or code != 0 or (not setup_only and not lines):
        raise RuntimeError(f"worker {k} exited with {code}")
    return setup_s, (None if setup_only else lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (HERE.parent / "src" / "edgetype" / "cli.py").is_file():
        print("no edgetype source tree at ./src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, k, True, deadline)[0] for k in range(SETUP_REPEATS - 1)]
        setup_s, line = run_worker(args, SETUP_REPEATS - 1, False, deadline)
    except (RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    res = json.loads(line)
    if res["failed_ops"]:
        print(f"failed operations: {', '.join(res['failed_ops'])}", file=sys.stderr)
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **metrics}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
