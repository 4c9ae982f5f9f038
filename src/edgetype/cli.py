"""Batch command-line front end.

Reads JSON inputs, dispatches to the library, and writes deterministic
JSON (sorted keys, LF endings) to stdout or --out.

Exit codes: 0 success, 1 infeasible/empty result, 2 invalid input,
3 numerical non-convergence, 4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import enumeration, maxent, probability, ratedistortion, typealg
from .graphs import DiGraph, distortion
from .typealg import EdgeType, EmptyResult

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INVALID = 2
EXIT_NONCONVERGED = 3
EXIT_LIMIT = 4


# ---------------------------------------------------------------------------
# JSON parsing helpers
# ---------------------------------------------------------------------------


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_graph(obj, n: int | None = None) -> DiGraph:
    if obj == "complete":
        if n is None:
            raise ValueError('"complete" shorthand needs a known n')
        return DiGraph.complete(n)
    if not isinstance(obj, dict) or "adj" not in obj:
        raise ValueError('graph JSON must be {"n": int, "adj": [[...]]} or "complete"')
    adj = obj["adj"]
    if not isinstance(adj, list) or not all(isinstance(row, list) for row in adj):
        raise ValueError("graph adj must be a list of rows")
    for row in adj:
        for v in row:
            if type(v) not in (int, float) or v not in (0, 1):
                raise ValueError(f"adjacency entry {v!r} is not 0 or 1")
    g = DiGraph(adj)
    if "n" in obj and obj["n"] != g.n:
        raise ValueError("graph JSON n field disagrees with adjacency size")
    return g


def parse_type(obj) -> EdgeType:
    if not isinstance(obj, dict) or "r" not in obj or "c" not in obj:
        raise ValueError('type JSON must be {"r": [...], "c": [...], "w": ...}')
    r, c = _degrees(obj["r"]), _degrees(obj["c"])
    w = parse_graph(obj.get("w", "complete"), n=len(r))
    return EdgeType(r, c, w)


def _degrees(values) -> tuple:
    """A degree vector: a JSON list, whose entries `EdgeType` checks to be
    integers (a boolean is not one)."""
    if not isinstance(values, list):
        raise ValueError(f"degrees must be a list, got {values!r}")
    return tuple(values)


def _ext_real(v) -> float:
    """A family parameter: a JSON number (a boolean is not one) or the
    string "inf" or "-inf"."""
    if v in ("inf", "-inf"):
        return float(v)
    if v == "nan":
        raise ValueError("family parameters must not be NaN")
    if type(v) is float:
        return v
    if type(v) is not int:
        raise ValueError(f'family parameter {v!r} is not a number, "inf" or "-inf"')
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"family parameter {v} is out of float range") from None


def parse_family_params(obj) -> probability.FamilyDParams:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise ValueError('params JSON must be {"a": [...], "b": [...], "w": ...}')
    a = tuple(_ext_real(v) for v in obj["a"])
    w = parse_graph(obj.get("w", "complete"), n=len(a))
    b = tuple(_ext_real(v) for v in obj["b"])
    if any(math.isnan(v) for v in a + b):
        raise ValueError("family parameters must not be NaN")
    return probability.FamilyDParams(a=a, b=b, w=w)


def graph_json(g: DiGraph) -> dict:
    return {"n": g.n, "adj": g.tolist()}


def _emit(obj, out_path: str | None) -> None:
    try:
        text = json.dumps(obj, sort_keys=True)
    except ValueError as exc:  # the only one json.dumps raises here: an int too long to write
        raise enumeration.EnumerationLimitError(
            f"an integer in the output exceeds the limit of {sys.get_int_max_str_digits()} digits"
        ) from exc
    _write([text + "\n"], out_path)


def _emit_graphs(stream, n: int, out_path: str | None) -> None:
    """One `graph_json` line per row-major bitmask of the stream, each byte-
    identical to `json.dumps(graph_json(g), sort_keys=True)`, assembled from
    the texts of the 2^n possible rows."""
    rows = [json.dumps([m >> j & 1 for j in range(n)]) for m in range(1 << n)]
    full, shifts, tail = (1 << n) - 1, range(0, n * n, n), f'], "n": {n}}}\n'
    lines = ('{"adj": [' + ", ".join([rows[bits >> s & full] for s in shifts]) + tail for bits in stream)
    _write(["".join(lines)], out_path)


def _write(chunks: list[str], out_path: str | None) -> None:
    """Write the text chunks in order, to out_path or else to stdout.  The
    chunks are built before the file is opened, so a command that fails
    while building them writes nothing."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _float_texts(x: np.ndarray) -> np.ndarray:
    """The JSON text of every entry of a float array, as a str array of its
    shape; each distinct bit pattern is encoded once, so -0.0 and NaN keep
    their own text."""
    bits = np.ascontiguousarray(x, dtype=float).view(np.int64)
    # a stable argsort, then a search: np.unique's hash table and numpy's
    # SIMD sort would each page in a new kernel on the first call
    flat = bits.ravel()[np.argsort(bits, axis=None, kind="stable")]
    distinct = flat[np.concatenate(([True], flat[1:] != flat[:-1]))]
    # a float's JSON text holds no ", ", so the encoded list splits into its entries
    texts = json.dumps(distinct.view(float).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[np.searchsorted(distinct, bits)]


def _vector_json(x: np.ndarray, labels: np.ndarray) -> str:
    """`json.dumps(x[labels].tolist())`, each entry of x encoded once."""
    return "[" + ", ".join(_float_texts(x)[labels].tolist()) + "]"


def _matrix_chunks(block: np.ndarray, row: np.ndarray, col: np.ndarray) -> list[str]:
    """`json.dumps(block[np.ix_(row, col)].tolist())` as chunks: "[", one
    per row with the ", " before it, and "]".  Each row of the block is
    encoded once and its chunk shared by every row labelled with it; F_T
    has few distinct rows, and few distinct values."""
    cells = _float_texts(block)[:, col].tolist()
    rows = [", [" + ", ".join(cell) + "]" for cell in cells]
    chunks = ["[", *[rows[i] for i in row.tolist()], "]"]
    if len(row):
        chunks[1] = chunks[1][2:]  # no separator before the first row
    return chunks


def _dens(args, t: EdgeType) -> int:
    """--dens, or the type's density when the flag is absent."""
    if args.dens is not None and args.dens < 0:
        raise ValueError("dens must be nonnegative")
    return t.density() if args.dens is None else args.dens


def _delta(args) -> float:
    """--delta, checked nonnegative (not NaN) together with rd-bounds' --delta-hat."""
    if not (args.delta >= 0 and getattr(args, "delta_hat", 0.0) >= 0):
        raise ValueError("delta must be nonnegative")
    return args.delta


def _fraction(text: str) -> Fraction:
    """An exact rational flag such as --xi 1/3."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _tolerance(text: str) -> float:
    """--tol: a nonnegative number."""
    tol = float(text)
    if not tol >= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be nonnegative: {text!r}")
    return tol


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def cmd_feasible(args) -> int:
    t = parse_type(_load_json(args.type))
    ok = enumeration.class_nonempty(t)
    _emit({"feasible": ok}, args.out)
    return EXIT_OK if ok else EXIT_EMPTY


def cmd_normalize(args) -> int:
    t = parse_type(_load_json(args.type))
    tn, row_perm, col_perm = typealg.normalize(t)
    _emit(
        {
            "r": list(tn.r),
            "c": list(tn.c),
            "w": graph_json(tn.w),
            "row_perm": list(row_perm),
            "col_perm": list(col_perm),
        },
        args.out,
    )
    return EXIT_OK


def cmd_structure(args) -> int:
    t = parse_type(_load_json(args.type))
    if not t.unrestricted:
        raise ValueError("structure matrix requires W complete")
    sm = typealg.structure_matrix(t.r, t.c)
    _emit({"n": t.n, "t": sm.tolist()}, args.out)
    return EXIT_OK


def cmd_invariants(args) -> int:
    t = parse_type(_load_json(args.type))
    masks = enumeration.class_invariants(t)
    _emit(
        {
            "inv1": graph_json(masks.inv1),
            "inv0": graph_json(masks.inv0),
            "free": graph_json(masks.free),
        },
        args.out,
    )
    return EXIT_OK


def cmd_components(args) -> int:
    t = parse_type(_load_json(args.type))
    if t.unrestricted:
        comp = typealg.components_from_structure(t)
    else:
        comp = typealg.components_from_masks(typealg.flow_invariants(t))
    _emit(
        {
            "row_blocks": [list(b) for b in comp.row_blocks],
            "col_blocks": [list(b) for b in comp.col_blocks],
            "blocks": [
                {"rows": list(rows), "cols": list(cols), "trivial": trivial}
                for rows, cols, trivial in comp.blocks
            ],
        },
        args.out,
    )
    return EXIT_OK


def cmd_count(args) -> int:
    t = parse_type(_load_json(args.type))
    count = enumeration.count_class(t)
    _emit({"count": count}, args.out)
    return EXIT_OK if count else EXIT_EMPTY


def cmd_enumerate(args) -> int:
    t = parse_type(_load_json(args.type))
    dens, delta = _dens(args, t), _delta(args)
    _emit_graphs(enumeration._delta_members(t, delta, dens, args.limit), t.n, args.out)
    return EXIT_OK


def cmd_interchange_check(args) -> int:
    t = parse_type(_load_json(args.type))
    reached, members = enumeration.interchange_reach(t, limit=args.limit)
    _emit({"connected": reached == members, "members": members}, args.out)
    return EXIT_OK


def cmd_maxent(args) -> int:
    t = parse_type(_load_json(args.type))
    sol = maxent._solve(t, tol=args.tol)
    g, report = sol.groups, sol.report
    fields = {  # every key but p, s and t, which are encoded by group
        "alpha": report.alpha,
        "entropy_nats": report.entropy_nats,
        "entropy_bits": report.entropy_nats / math.log(2),
        "iterations": report.iterations,
        "margins_residual": report.grad_norm,
    }
    texts = {k: json.dumps(x) for k, x in fields.items()}
    texts["s"], texts["t"] = _vector_json(sol.a, g.row_of), _vector_json(sol.b, g.col_of)
    items = {k: f"{json.dumps(k)}: {x}" for k, x in texts.items()}
    before = "".join(items[k] + ", " for k in sorted(items) if k < "p")
    after = "".join(", " + items[k] for k in sorted(items) if k > "p")
    p = _matrix_chunks(sol.p_block(), g.labels.row, g.labels.col)
    _write(["{" + before + '"p": ', *p, after + "}\n"], args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    t = parse_type(_load_json(args.type))
    alpha, gap, count = maxent.barvinok_bounds(t, tol=args.tol, limit=args.limit)
    out = {"alpha": alpha, "measured_gap": gap}
    if count is not None:
        out["count"] = count
    _emit(out, args.out)
    return EXIT_OK


def cmd_prob(args) -> int:
    t = parse_type(_load_json(args.type))
    params = parse_family_params(_load_json(args.params))
    point, lower, upper, exact = probability.typeclass_prob(
        params, t, tol=args.tol, limit=args.limit
    )
    _emit(
        {"point_prob": point, "lower": lower, "upper": upper, "exact": exact},
        args.out,
    )
    return EXIT_OK


def cmd_sanov(args) -> int:
    params = parse_family_params(_load_json(args.params))
    types = [parse_type(_load_json(p)) for p in args.types]
    lower, upper, exact = probability.sanov_bounds(
        params, types, tol=args.tol, limit=args.limit
    )
    _emit({"lower": lower, "upper": upper, "exact": exact}, args.out)
    return EXIT_OK


def cmd_delta(args) -> int:
    t = parse_type(_load_json(args.type))
    dens, delta = _dens(args, t), _delta(args)
    count = enumeration.count_delta_class(t, delta, dens)
    lo, hi = ratedistortion.delta_class_cardinality_bounds(t, delta, dens, tol=args.tol)
    _emit(
        {
            "count_delta": count,
            "prob_lower": probability.delta_class_prob_lower(t, delta, dens),
            "card_lower": lo,
            "card_upper": hi,
        },
        args.out,
    )
    return EXIT_OK


def cmd_conditional(args) -> int:
    t = parse_type(_load_json(args.type))
    g = parse_graph(_load_json(args.graph), n=t.n)
    stream = enumeration._conditional_members(t, g, _delta(args), _dens(args, t), args.limit)
    _emit_graphs(stream, t.n, args.out)
    return EXIT_OK


def cmd_distortion(args) -> int:
    g = parse_graph(_load_json(args.graph))
    h = parse_graph(_load_json(args.graph2), n=g.n)
    d = distortion(g, h)
    _emit(
        {
            "distortion": f"{d.numerator}/{d.denominator}",
            "value": float(d),
        },
        args.out,
    )
    return EXIT_OK


def cmd_cover(args) -> int:
    if args.m is not None and args.m < 0:
        raise ValueError("m must be nonnegative")
    t = parse_type(_load_json(args.type))
    dens, delta = _dens(args, t), _delta(args)
    book = ratedistortion.build_cover_random(
        t,
        args.xi,
        delta,
        m=args.m,
        seed=args.seed,
        dens=dens,
        tol=args.tol,
        limit=args.limit,
    )
    thr = args.xi + Fraction(delta).limit_denominator(10**9) / t.n
    ok, worst, worst_v = ratedistortion.verify_cover(book, t, thr, limit=args.limit)
    _emit(
        {
            "size": len(book.graphs),
            "m_target": book.m_target,
            "provenance": book.provenance,
            "covers": ok,
            "worst_distortion": f"{worst_v.numerator}/{worst_v.denominator}",
            "codebook": [graph_json(g) for g in book.graphs],
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_EMPTY


def cmd_rd_bounds(args) -> int:
    t = parse_type(_load_json(args.type))
    dens = _dens(args, t)
    up, lo = ratedistortion.rd_bounds(
        t, args.xi, _delta(args), args.delta_hat, dens=dens, tol=args.tol, limit=args.limit
    )
    def report_json(r):
        return {
            "value_nats": r.value_nats,
            "value_bits": r.value_bits,
            "raw_nats": r.raw_nats,
            "slack_terms": r.slack_terms,
            "assumption_flags": r.assumption_flags,
        }
    _emit({"upper": report_json(up), "lower": report_json(lo)}, args.out)
    return EXIT_OK


def cmd_rn_exact(args) -> int:
    if args.eps is not None and not args.params:
        raise ValueError("--eps needs --params")
    t = parse_type(_load_json(args.type))
    # the table of one source graph, checked before any enumeration or weighing
    ratedistortion._check_table("exact_rn_prob" if args.params else "exact_rn", t.n, 1)
    if args.params:
        if not enumeration.class_nonempty(t):
            raise EmptyResult("empty class")
        params = parse_family_params(_load_json(args.params))
        if params.n != t.n:
            raise ValueError("dimension mismatch")
        rate, book = ratedistortion.exact_rn_prob(probability.family_d_graph(params), args.d, args.eps or 0.0)
    else:
        source = list(enumeration.enumerate_class(t, limit=t.n))
        if not source:
            raise EmptyResult("empty class")
        rate, book = ratedistortion.exact_rn(source, args.d)
    codebook = [graph_json(g) for g in book.graphs]
    _emit({"rate_bits": rate, "codebook_size": len(codebook), "codebook": codebook}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


# The flags that several subcommands share, each declared once.  A subcommand
# takes only the flags it reads, plus --out; add(..., flag={...}) changes a setting.
_SHARED_FLAGS = {
    "type": {"required": True, "help": "type-spec JSON file"},
    "graph": {"required": True, "help": "graph JSON file"},
    "graph2": {"required": True, "help": "second graph JSON file"},
    "params": {"required": True, "help": "family params JSON file"},
    "tol": {"type": _tolerance, "default": None},
    "limit": {"type": int, "default": enumeration.DEFAULT_LIMIT},
    "xi": {"type": _fraction, "required": True, "help": "distortion budget, e.g. 1/3"},
    "delta": {"type": float, "default": 0.0},
    "dens": {"type": int, "default": None},
}


@functools.cache  # built on the first call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="edgetype",
        description="Edge-type combinatorics for directed graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags, **changed):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_SHARED_FLAGS[flag] | changed.get(flag, {}))
        sp.add_argument("--out", default=None)
        return sp

    add("feasible", cmd_feasible, "type")
    add("normalize", cmd_normalize, "type")
    add("structure", cmd_structure, "type")
    add("invariants", cmd_invariants, "type")
    add("components", cmd_components, "type")
    add("count", cmd_count, "type")
    add("enumerate", cmd_enumerate, "type", "limit", "delta", "dens")
    add("interchange-check", cmd_interchange_check, "type", "limit")
    add("maxent", cmd_maxent, "type", "tol")
    add("bounds", cmd_bounds, "type", "tol", "limit")
    add("prob", cmd_prob, "type", "params", "tol", "limit")
    sp = add("sanov", cmd_sanov, "params", "tol", "limit")
    sp.add_argument("--types", nargs="+", required=True, help="type-spec JSON files")
    add("delta", cmd_delta, "type", "tol", "delta", "dens", delta={"required": True})
    add("conditional", cmd_conditional, "type", "graph", "limit", "delta", "dens")
    add("distortion", cmd_distortion, "graph", "graph2")
    sp = add("cover", cmd_cover, "type", "tol", "limit", "xi", "delta", "dens")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp = add("rd-bounds", cmd_rd_bounds, "type", "tol", "limit", "xi", "delta", "dens")
    sp.add_argument("--delta-hat", dest="delta_hat", type=float, default=0.0)
    sp = add("rn-exact", cmd_rn_exact, "type", "params", params={"required": False})
    sp.add_argument("--d", type=_fraction, required=True, help="distortion threshold, e.g. 1/3")
    sp.add_argument("--eps", type=float, default=None, help="uncovered mass allowed; needs --params")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EmptyResult as exc:
        sys.stderr.write(f"empty result: {exc}\n")
        return EXIT_EMPTY
    except enumeration.EnumerationLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_LIMIT
    except ArithmeticError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return EXIT_NONCONVERGED
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
