"""Reference checks of CLI outputs.

`check(op, text)` returns a list of problems with one operation's output
(empty when it is right); `cross_check(ops, outputs)` checks relations
between operations of one run.  Nothing here calls into edgetype.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import oracle

FLOAT_MAX_LOG = math.log(np.finfo(float).max)


def close(a, b, rel=1e-9, abs_=0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _graph(obj, n) -> np.ndarray:
    g = np.asarray(obj["adj"], dtype=np.int64)
    if obj.get("n") != n or g.shape != (n, n) or not np.isin(g, (0, 1)).all():
        raise ValueError("malformed graph")
    return g.astype(np.uint8)


def _type_count(spec) -> int:
    if "size" in spec:
        return spec["size"]
    return oracle.count_members(spec["r"], spec["c"], spec["w"])


def _maxent(spec, out) -> list[str]:
    r, c = np.asarray(spec["r"]), np.asarray(spec["c"])
    n = len(r)
    w = np.asarray(spec.get("w") or np.ones((n, n)), dtype=np.uint8)
    p = np.asarray(out["p"], dtype=float)
    s, t = np.asarray(out["s"]), np.asarray(out["t"])
    bad = []
    if p.shape != (n, n) or (p < 0).any() or (p > 1).any() or (p[w == 0] != 0).any():
        return ["p is not a probability matrix supported on W"]
    tol = max(1e-8 * n, spec.get("tol", 0.0))
    if np.abs(p.sum(axis=1) - r).max() > tol or np.abs(p.sum(axis=0) - c).max() > tol:
        bad.append("p margins differ from (r, c)")
    z = s[:, None] + t[None, :]
    sig = 1.0 / (1.0 + np.exp(-z))
    if n <= 6:
        inv1, inv0, _ = oracle.invariant_masks(r, c, w)
        free = (1 - inv1 - inv0).astype(bool)
        if (p[inv1 == 1] != 1).any() or (p[inv0 == 1] != 0).any():
            bad.append("invariant cells are not 0/1")
    else:  # a cell at exactly 0 or 1 is an invariant one
        free = (w == 1) & (p > 0) & (p < 1)
    if free.any() and np.abs(p[free] - sig[free]).max() > 1e-9:
        bad.append("p != sigma(s_i + t_j) on free cells")
    h = oracle.binary_entropy_sum(p)
    if not close(out["entropy_nats"], h, abs_=1e-9):
        bad.append(f"entropy_nats {out['entropy_nats']} != sum H_b(p) = {h}")
    if not close(out["entropy_bits"], out["entropy_nats"] / math.log(2)):
        bad.append("entropy_bits != entropy_nats / ln 2")
    alpha = out["alpha"]
    expect = math.inf if h > FLOAT_MAX_LOG else math.exp(h)
    if not (alpha == expect or close(alpha, expect, rel=1e-8)):
        bad.append(f"alpha {alpha} != e^H = {expect}")
    if not out["margins_residual"] <= spec.get("tol", 1e-10 * n):
        bad.append("margins_residual above the solver tolerance")
    if n <= 6 and alpha < _type_count(spec) * (1 - 1e-9):
        bad.append("alpha below the class size (Barvinok upper bound)")
    return bad


def _enumerate(spec, text) -> list[str]:
    r, c, w = spec["r"], spec["c"], np.asarray(spec["w"], dtype=np.uint8)
    n = len(r)
    lines = [json.loads(line) for line in text.splitlines() if line]
    gs = np.stack([_graph(o, n) for o in lines]) if lines else np.zeros((0, n, n), np.uint8)
    bad = []
    if (gs & (1 - w)).any():
        bad.append("member outside W")
    if len({g.tobytes() for g in gs}) != len(gs):
        bad.append("duplicate members")
    rows, cols = gs.sum(axis=2), gs.sum(axis=1)
    if "delta" in spec:
        dens = oracle.density(r, c)
        r_ok = [oracle.delta_choices(v, n, spec["delta"], dens) for v in r]
        c_ok = [oracle.delta_choices(v, n, spec["delta"], dens) for v in c]
        ok = all(
            all(row[i] in r_ok[i] for i in range(n)) and all(col[j] in c_ok[j] for j in range(n))
            for row, col in zip(rows, cols)
        )
        expect = _delta_count(spec)
    else:
        ok = bool((rows == r).all() and (cols == c).all())
        expect = _type_count(spec)
    if not ok:
        bad.append("member margins outside the class")
    if len(gs) != expect:
        bad.append(f"{len(gs)} members emitted, class has {expect}")
    return bad


def _delta_count(spec) -> int:
    """Size of the δ-class: every graph inside W whose degrees are admissible."""
    r, c = spec["r"], spec["c"]
    n = len(r)
    dens = oracle.density(r, c)
    g = oracle.all_graphs(n)
    g = g[((g & (1 - np.asarray(spec["w"], dtype=np.uint8))) == 0).all(axis=(1, 2))]
    rows, cols = g.sum(axis=2), g.sum(axis=1)
    ok = np.ones(len(g), dtype=bool)
    for i in range(n):
        ok &= np.isin(rows[:, i], oracle.delta_choices(r[i], n, spec["delta"], dens))
        ok &= np.isin(cols[:, i], oracle.delta_choices(c[i], n, spec["delta"], dens))
    return int(ok.sum())


def _codebook(obj_list, n) -> np.ndarray:
    return np.stack([_graph(o, n) for o in obj_list]) if obj_list else np.zeros((0, n, n), np.uint8)


def _rn_exact(spec, out) -> list[str]:
    r, c = spec["r"], spec["c"]
    n = len(r)
    book = _codebook(out["codebook"], n)
    members = oracle.brute_members(r, c, spec["w"])
    d = float(Fraction(spec["d"]))
    bad = []
    if out["codebook_size"] != len(book) or len({g.tobytes() for g in book}) != len(book):
        bad.append("codebook_size disagrees with the codebook")
    if not close(out["rate_bits"], math.log2(max(len(book), 1)) / n**2, abs_=1e-15):
        bad.append("rate_bits != log2(size) / n^2")
    if len(book) == 0 or not (oracle.distortion_matrix(members, book).min(axis=1) <= d + 1e-12).all():
        bad.append("a class member is farther than d from every codeword")
    if len(book) <= 3:
        cover = oracle.distortion_matrix(oracle.all_graphs(n), members) <= d + 1e-12
        if not oracle.min_cover_needs_more(cover, len(book) - 1):
            bad.append("a smaller codebook covers the class")
    return bad


def _rn_exact_params(spec, out) -> list[str]:
    n = len(spec["params"]["a"])
    p = oracle.logistic_probs(spec["params"]["a"], spec["params"]["b"], n)
    graphs = oracle.all_graphs(n)
    wts = oracle.graph_probs(p, graphs)
    support = wts > 0
    src, wts = graphs[support], wts[support]
    book = _codebook(out["codebook"], n)
    d = float(Fraction(spec["d"]))
    bad = []
    if out["codebook_size"] != len(book):
        bad.append("codebook_size disagrees with the codebook")
    if not close(out["rate_bits"], math.log2(max(len(book), 1)) / n**2, abs_=1e-15):
        bad.append("rate_bits != log2(size) / n^2")
    covered = (
        (oracle.distortion_matrix(src, book) <= d + 1e-12).any(axis=1)
        if len(book) else np.zeros(len(src), dtype=bool)
    )
    need = wts.sum() - spec["eps"]
    if wts[~covered].sum() > spec["eps"] + 1e-12:
        bad.append("uncovered probability mass exceeds eps")
    if 0 < len(book) <= 3:
        cover = oracle.distortion_matrix(graphs, src) <= d + 1e-12
        if not oracle.min_cover_needs_more(cover, len(book) - 1, wts, need):
            bad.append("a smaller codebook leaves at most eps uncovered")
    return bad


def _class_prob(params, r, c, w) -> tuple[float, int]:
    n = len(r)
    members = oracle.brute_members(r, c, w)
    p = oracle.logistic_probs(params["a"], params["b"], n)
    return float(oracle.graph_probs(p, members).sum()), len(members)


def check(op, text: str) -> list[str]:
    spec, kind = op.spec, op.kind
    try:
        if kind == "enumerate":
            return _enumerate(spec, text)
        out = json.loads(text)
        if kind == "maxent":
            return _maxent(spec, out)
        if kind in ("count", "feasible"):
            size = _type_count(spec)
            if kind == "count":
                return [] if out == {"count": size} else [f"count {out} != {size}"]
            return [] if out == {"feasible": size > 0} else [f"{out} but class size {size}"]
        if kind == "bounds":
            return _bounds(spec, out)
        if kind == "interchange-check":
            bad = [] if out["members"] == _type_count(spec) else ["members != class size"]
            if spec["w"] == [[1] * len(spec["r"])] * len(spec["r"]) and out["connected"] is not True:
                bad.append("interchange graph disconnected on W complete (Ryser)")
            return bad
        if kind == "delta":
            return _delta(spec, out)
        if kind == "invariants":
            inv1, inv0, _ = oracle.invariant_masks(spec["r"], spec["c"], spec["w"])
            n = len(spec["r"])
            got = [_graph(out[k], n) for k in ("inv1", "inv0", "free")]
            ok = (got[0] == inv1).all() and (got[1] == inv0).all() and (got[2] == 1 - inv1 - inv0).all()
            return [] if ok else ["invariant masks differ from forced-cell counts"]
        if kind == "components":
            inv1, inv0, _ = oracle.invariant_masks(spec["r"], spec["c"], spec["w"])
            rows, cols, cells = oracle.components(inv1, inv0)
            got = (out["row_blocks"], out["col_blocks"],
                   [(b["rows"], b["cols"], b["trivial"]) for b in out["blocks"]])
            return [] if got == (rows, cols, cells) else ["components differ from invariance corners"]
        if kind == "cover":
            return _cover(spec, out)
        if kind == "rd-bounds":
            return _rd_bounds(out)
        if kind == "rn-exact":
            return _rn_exact(spec, out)
        if kind == "rn-exact-params":
            return _rn_exact_params(spec, out)
        if kind == "prob":
            exact, size = _class_prob(spec["params"], spec["r"], spec["c"], spec["w"])
            bad = []
            if not close(out["exact"], exact):
                bad.append(f"exact {out['exact']} != sum of member probabilities {exact}")
            if not _ordered(out["lower"], out["exact"], out["upper"]):
                bad.append("exact outside [lower, upper]")
            if not close(out["point_prob"] * size, exact, rel=1e-8):
                bad.append("point_prob * count != exact")
            return bad
        if kind == "sanov":
            n = len(spec["params"]["a"])
            exact = sum(
                _class_prob(spec["params"], r, c, [[1] * n] * n)[0]
                for r, c in {(tuple(r), tuple(c)) for r, c in spec["types"]}
            )
            bad = [] if close(out["exact"], exact) else [f"exact {out['exact']} != {exact}"]
            if not _ordered(out["lower"], out["exact"], out["upper"]):
                bad.append("exact outside [lower, upper]")
            return bad
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"no check for kind {kind}"]


def _ordered(lower, exact, upper, rel=1e-9) -> bool:
    """lower <= exact <= upper, allowing rounding where a bound is tight."""
    return lower <= exact * (1 + rel) and exact <= upper * (1 + rel)


def _bounds(spec, out) -> list[str]:
    n = len(spec["r"])
    alpha = out["alpha"]
    if n > 6:
        ok = set(out) == {"alpha", "measured_gap"} and out["measured_gap"] is None and alpha > 0
        return [] if ok else ["bounds above the enumeration limit must give alpha only"]
    size = _type_count(spec)
    bad = [] if out.get("count") == size else [f"count {out.get('count')} != {size}"]
    if alpha < size * (1 - 1e-9):
        bad.append("alpha below count (Barvinok upper bound)")
    gap = (math.log(alpha) - math.log(size)) / (n * math.log(n) if n > 1 else 1.0)
    if not close(out["measured_gap"], gap, abs_=1e-12):
        bad.append("measured_gap != (ln alpha - ln count) / (n ln n)")
    return bad


def _delta(spec, out) -> list[str]:
    n = len(spec["r"])
    size = _delta_count(spec)
    bad = [] if out["count_delta"] == size else [f"count_delta {out['count_delta']} != {size}"]
    dens = oracle.density(spec["r"], spec["c"])
    delta = spec["delta"]
    hoeffding = max(0.0, 1.0 - 4.0 * n * math.exp(-2.0 * dens * dens * delta * delta / n))
    if not close(out["prob_lower"], hoeffding, abs_=1e-15):
        bad.append("prob_lower != Hoeffding bound")
    value = math.log(size) / n**2
    if not out["card_lower"] <= value + 1e-12 or not value < out["card_upper"]:
        bad.append("ln|T_delta| / n^2 outside [card_lower, card_upper)")
    return bad


def _cover(spec, out) -> list[str]:
    r, c = spec["r"], spec["c"]
    n = len(r)
    book = _codebook(out["codebook"], n)
    members = oracle.brute_members(r, c, spec["w"])
    thr = Fraction(spec["xi"]) + Fraction(spec["delta"]).limit_denominator(10**9) / n
    bad = []
    if out["size"] != len(book) or len({g.tobytes() for g in book}) != len(book):
        bad.append("size disagrees with the codebook")
    dist = oracle.distortion_matrix(members, book).min(axis=1)
    worst = Fraction(round(float(dist.max()) * n), n)
    if out["covers"] is not True or worst > thr:
        bad.append(f"class not covered within {thr} (worst {worst})")
    if Fraction(out["worst_distortion"]) != worst:
        bad.append(f"worst_distortion {out['worst_distortion']} != {worst}")
    return bad


def _rd_bounds(out) -> list[str]:
    bad = []
    for side in ("upper", "lower"):
        rep = out[side]
        total = sum(rep["slack_terms"].values())
        if not close(rep["raw_nats"], total, abs_=1e-12):
            bad.append(f"{side}: raw_nats != sum of its terms")
        value = rep["raw_nats"] if side == "upper" else max(0.0, rep["raw_nats"])
        if not close(rep["value_nats"], value, abs_=1e-15):
            bad.append(f"{side}: value_nats != formula value")
        if not close(rep["value_bits"], rep["value_nats"] / math.log(2), abs_=1e-15):
            bad.append(f"{side}: value_bits != value_nats / ln 2")
    return bad


def cross_check(ops, outputs: dict[int, str]) -> list[tuple[int, str]]:
    """Relations between operations of one run, as (op index, problem).

    - maxent and bounds on the same type give the same alpha;
    - exact R_n(d) is non-increasing in d;
    - lower <= R_n(xi) <= upper when both assumption flags are clear.
    """
    bad = []
    parsed = {k: json.loads(text) for k, text in outputs.items() if ops[k].kind != "enumerate"}
    alphas: dict[tuple, tuple[int, float]] = {}
    rates: dict[str, dict[Fraction, tuple[int, float]]] = {}
    for k, out in sorted(parsed.items()):
        op = ops[k]
        if op.kind in ("maxent", "bounds"):
            key = (tuple(op.spec["r"]), tuple(op.spec["c"]), str(op.spec.get("w")))
            first, alpha = alphas.setdefault(key, (k, out["alpha"]))
            if alpha != out["alpha"] and not close(alpha, out["alpha"], rel=1e-12):
                bad.append((k, f"alpha differs from {ops[first].name}"))
        if op.kind == "rn-exact":
            rates.setdefault(op.spec["group"], {})[Fraction(op.spec["d"])] = (k, out["rate_bits"])
    for k, out in parsed.items():
        op = ops[k]
        if op.kind != "rd-bounds" or Fraction(op.spec["xi"]) not in rates.get(op.spec["group"], {}):
            continue
        rate = rates[op.spec["group"]][Fraction(op.spec["xi"])][1]
        flags = out["upper"]["assumption_flags"]["density_preserved"] and out["lower"][
            "assumption_flags"]["hoeffding_condition"]
        if flags and not out["lower"]["value_bits"] <= rate + 1e-12 <= out["upper"]["value_bits"] + 2e-12:
            bad.append((k, "exact R_n outside [lower, upper] with clear flags"))
    for by_d in rates.values():
        seq = [by_d[d] for d in sorted(by_d)]
        if any(a[1] < b[1] for a, b in zip(seq, seq[1:])):
            bad.extend((k, "exact R_n(d) increases with d") for k, _ in seq)
    return bad
