"""One workload in one fresh process: set-up, timed phase, checks.

Started by run.py with the thread and hash-seed pins already in its
environment.  It prints `READY` once set-up (imports, input generation and
one warm-up operation) is done; with --setup-only it stops there.
Otherwise it runs whole rounds of the operation list, one in-process
`edgetype.cli.main(argv)` call at a time, until --seconds have passed and
at least MIN_OPS operations were attempted, then checks every output and
prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100


def load_edgetype():
    """Import the package from this checkout's source tree, nowhere else."""
    sys.path.insert(0, str(SRC))
    import edgetype
    import edgetype.cli

    if not Path(edgetype.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"edgetype imported from {edgetype.__file__}, not from {SRC}")
    return edgetype


class Phase:
    """Outcome of one timed phase: latencies and per-operation results."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.outputs: dict[int, Counter] = {}  # op index -> output text -> times
        self.failures: dict[int, Counter] = {}  # op index -> (exit code, message) -> times
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


def run_phase(main, ops, out_paths, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    err = io.StringIO()
    clock = time.perf_counter_ns
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        while True:
            for k, op in enumerate(ops):
                argv = [*op.argv, "--out", out_paths[k]]
                err.seek(0)
                err.truncate()
                if tracer is not None:
                    tracer.begin_op(phase.attempted)
                t0 = clock()
                try:
                    code = main(argv)
                except Exception as exc:  # a crash is one failed operation
                    code = f"raised {type(exc).__name__}"
                    print(f"{code}: {exc}", file=err)
                phase.latencies_ns.append(clock() - t0)
                if tracer is not None:
                    tracer.end_op()
                path = Path(out_paths[k])
                text = path.read_text(encoding="utf-8") if path.exists() else None
                if text is not None:
                    path.unlink()
                if code == 0 and text is not None:
                    phase.outputs.setdefault(k, Counter())[text] += 1
                else:
                    msg = err.getvalue().strip().splitlines()
                    phase.failures.setdefault(k, Counter())[(code, msg[0] if msg else "")] += 1
            phase.elapsed = time.perf_counter() - start
            if phase.elapsed >= seconds and phase.attempted >= MIN_OPS:
                return phase


def evaluate(ops, phases):
    """(ok operations per phase, wrong outputs, unexpected failures)."""
    verdict: dict[tuple[int, str], list[str]] = {}
    first: dict[int, str] = {}
    for phase in phases:
        for k, texts in phase.outputs.items():
            for text in texts:
                if (k, text) not in verdict:
                    verdict[k, text] = checks.check(ops[k], text)
                    first.setdefault(k, text)
    for k, problem in checks.cross_check(ops, first):
        verdict[k, first[k]].append(problem)
    wrong = [(ops[k].name, p) for (k, _), problems in verdict.items() for p in problems]
    ok = [
        sum(n for k, texts in ph.outputs.items() for text, n in texts.items() if not verdict[k, text])
        for ph in phases
    ]
    unexpected = []
    for ph in phases:
        for k, fails in ph.failures.items():
            fault = workloads.FAULTS.get(ops[k].fault)
            for code, msg in fails:
                if fault is None or code != fault[0] or fault[1] not in msg:
                    unexpected.append((ops[k].name, f"exit {code}: {msg}"))
    return ok, sorted(set(wrong)), sorted(set(unexpected))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    edgetype = load_edgetype()
    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, args.seed, workdir)
    out_paths = [str(workdir / f"out{k}.json") for k in range(len(ops))]
    with contextlib.redirect_stderr(io.StringIO()):
        edgetype.cli.main([*ops[0].argv, "--out", out_paths[0]])
    Path(out_paths[0]).unlink(missing_ok=True)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections timed below
    timed = run_phase(edgetype.cli.main, ops, out_paths, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [timed]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(edgetype)
        phases.append(run_phase(edgetype.cli.main, ops, out_paths, args.seconds, tracer))

    ok, wrong, unexpected = evaluate(ops, phases)
    for name, problem in wrong:
        print(f"wrong output: {name}: {problem}", file=sys.stderr)
    for name, problem in unexpected:
        print(f"unexpected failure: {name}: {problem}", file=sys.stderr)
    attempted = sum(ph.attempted for ph in phases)
    result = {
        "correct": not wrong and not unexpected,
        "attempted": attempted,
        "failed": attempted - sum(ok),
        "failed_ops": sorted({ops[k].name for ph in phases for k in ph.failures}),
    }
    if tracer is None:
        ms = [v / 1e6 for v in timed.latencies_ns]
        result["metrics"] = {
            "ok_ops_per_s": ok[0] / timed.elapsed,
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": statistics.quantiles(ms, n=10)[8],
            "peak_rss_mb": rss_mb,
        }
    else:
        traced = phases[1]
        overhead = (traced.elapsed / traced.attempted) / (timed.elapsed / timed.attempted) - 1
        result["metrics"] = {
            **tracer.metrics(traced.attempted),
            "trace.overhead_pct": 100 * overhead,
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
