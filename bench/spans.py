"""Span tracing around the public functions of each edgetype layer.

`Tracer.install()` wraps the listed functions and rebinds every module
attribute that refers to them (for example `ratedistortion.solve_maxent`
as well as `maxent.solve_maxent`), so calls through any import reach the
wrapper.  A span records (operation index, span id, parent id, name,
start ns, end ns); self time is a span's duration minus its child spans.
Aggregates are kept per name, spans in memory up to a cap.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

SPAN_CAP = 100_000

# (layer module, attribute) -> metric name; the class attributes of
# DiGraph are patched on the class itself.
FUNCTIONS = [
    ("cli", "main"),
    ("typealg", "gale_ryser_feasible"),
    ("typealg", "invariant_positions"),
    ("enumeration", "count_class"),
    ("enumeration", "invariants_by_enumeration"),
    ("maxent", "solve_maxent"),
    ("probability", "graph_prob"),
    ("probability", "kl_sum"),
    ("ratedistortion", "rd_upper"),
    ("ratedistortion", "rd_lower"),
    ("ratedistortion", "build_cover_random"),
    ("ratedistortion", "verify_cover"),
    ("ratedistortion", "exact_rn"),
    ("ratedistortion", "exact_rn_prob"),
    ("graphs", "distortion"),
]
# Calls whose distinct argument types are counted per operation.
KEYED = {"enumeration.count_class", "maxent.solve_maxent"}


def _type_key(t, *_args, **_kwargs):
    return (t.r, t.c, t.w.adj.tobytes())


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack: list[list[int]] = []  # [span id, child ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns, raised]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.counters = {"enumeration.members_yielded": 0, "maxent.newton_iterations": 0}
        self.op_keys: dict[str, set] = {name: set() for name in KEYED}
        self.distinct = dict.fromkeys(KEYED, 0)

    def begin_op(self, op_id: int) -> None:
        """Spans started from now on belong to operation `op_id`."""
        self.op = op_id

    def end_op(self) -> None:
        for name, keys in self.op_keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def span(self, name: str, fn, on_return=None):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        keys = self.op_keys.get(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_type_key(*args, **kwargs))
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                stats[3] += raised
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((self.op, sid, parent, name, start, end))
                else:
                    self.dropped += 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counted(self, counter: str, gen_fn):
        counters = self.counters

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counters[counter] += 1
                yield item

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced functions and rebind every module reference."""
        mods = [getattr(package, m) for m in
                ("graphs", "typealg", "enumeration", "maxent", "probability", "ratedistortion", "cli")]
        mods.append(package)

        def iterations(result):
            self.counters["maxent.newton_iterations"] += result[2].iterations

        replace = {}
        for mod_name, attr in FUNCTIONS:
            orig = getattr(getattr(package, mod_name), attr)
            name = f"{mod_name}.{attr}"
            hook = iterations if name == "maxent.solve_maxent" else None
            replace[id(orig)] = self.span(name, orig, hook)
        enum_class = package.enumeration.enumerate_class
        replace[id(enum_class)] = self.counted("enumeration.members_yielded", enum_class)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        cls = package.graphs.DiGraph
        cls.__init__ = self.span("graphs.DiGraph", cls.__init__)
        cls.to_bits = self.span("graphs.DiGraph.to_bits", cls.to_bits)
        cls.from_bits = classmethod(self.span("graphs.DiGraph.from_bits", cls.__dict__["from_bits"].__func__))

    def metrics(self, attempted: int) -> dict[str, float]:
        """Per-layer metrics, each count and time per attempted operation."""

        def stat(name, k):
            return self.stats.get(name, [0, 0, 0, 0])[k]

        def ms(name, k=1):
            return stat(name, k) / 1e6 / attempted

        def ratio(name):
            calls = stat(name, 0)
            return self.distinct[name] / calls if calls else 1.0

        per_op = lambda v: v / attempted  # noqa: E731
        return {
            "cli.main.self_ms": ms("cli.main", 2),
            "graphs.DiGraph.calls": per_op(stat("graphs.DiGraph", 0)),
            "graphs.DiGraph.total_ms": ms("graphs.DiGraph"),
            "graphs.codec.total_ms": ms("graphs.DiGraph.from_bits") + ms("graphs.DiGraph.to_bits"),
            "graphs.distortion.calls": per_op(stat("graphs.distortion", 0)),
            "typealg.gale_ryser_feasible.calls": per_op(stat("typealg.gale_ryser_feasible", 0)),
            "typealg.gale_ryser_feasible.total_ms": ms("typealg.gale_ryser_feasible"),
            "typealg.invariant_positions.total_ms": ms("typealg.invariant_positions"),
            "enumeration.count_class.calls": per_op(stat("enumeration.count_class", 0)),
            "enumeration.count_class.total_ms": ms("enumeration.count_class"),
            "enumeration.count_class.distinct_ratio": ratio("enumeration.count_class"),
            "enumeration.members_yielded": per_op(self.counters["enumeration.members_yielded"]),
            "enumeration.invariants_by_enumeration.total_ms": ms("enumeration.invariants_by_enumeration"),
            "maxent.solve_maxent.calls": per_op(stat("maxent.solve_maxent", 0)),
            "maxent.solve_maxent.total_ms": ms("maxent.solve_maxent"),
            "maxent.solve_maxent.self_ms": ms("maxent.solve_maxent", 2),
            "maxent.solve_maxent.raised": per_op(stat("maxent.solve_maxent", 3)),
            "maxent.solve_maxent.distinct_ratio": ratio("maxent.solve_maxent"),
            "maxent.newton_iterations": per_op(self.counters["maxent.newton_iterations"]),
            "probability.graph_prob.calls": per_op(stat("probability.graph_prob", 0)),
            "probability.graph_prob.total_ms": ms("probability.graph_prob"),
            "probability.kl_sum.total_ms": ms("probability.kl_sum"),
            **{
                f"ratedistortion.{f}.total_ms": ms(f"ratedistortion.{f}")
                for f in ("rd_upper", "rd_lower", "build_cover_random", "verify_cover",
                          "exact_rn", "exact_rn_prob")
            },
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, preceded by one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
