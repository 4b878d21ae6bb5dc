"""Command-line frontend: basis tables, decompositions, counting runs,
feature exports, enumeration, and engine-vs-oracle self checks."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from .decomp import (
    decomposition_to_json_dict,
    elimination_order,
    treewidth_exact,
)
from .features import (
    DATASET_FORMATS,
    ENCODING_KINDS,
    EncodingSpec,
    cache_through,
    compute_features,
    encode,
    export,
    format_exact,
    load_dataset,
)
from .graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    PatternLike,
    canonical_key,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    format_graph6,
    named_pattern,
    parse_graph6,
)
from .homcount import (
    HostGraph,
    batch_evaluate,
    evaluate,
    evaluate_node,
    hom_count,
    hom_count_node,
)
from .oracle import (
    ORACLE_PATTERN_LIMIT,
    brute_hom,
    brute_hom_node,
    brute_indsub,
    brute_sub,
    brute_sub_node,
)
from .spasm import (
    GRAPH_LEVEL,
    HOM_BASIS,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    anchored_spasm_of,
    filter_min_treewidth,
    indsub_expansion,
    spasm_of,
)

CACHE_ENV = "MOTIFBASIS_CACHE"
COUNT_MODES = ("hom", "sub", "indsub", "spasm-hom")
_NAMED_RE = re.compile(r"^[CPKS]\d+(@\d+)?$")
_OMEGA_RE = re.compile(r"^omega-con-(\d+)$")


class UsageError(ValueError):
    """Bad arguments or unparseable input; maps to exit code 2."""


def parse_pattern_spec(text: str) -> PatternLike:
    """Pattern from a name (C5, P4@0, ...) or graph6, optionally @anchor."""
    if _NAMED_RE.match(text):
        return named_pattern(text)
    try:
        return parse_graph6(text)
    except ValueError:
        pass
    if "@" in text:
        head, _, tail = text.rpartition("@")
        if tail.isdigit():
            try:
                g = parse_graph6(head)
            except ValueError:
                raise UsageError(f"cannot parse pattern {text!r}") from None
            anchor = int(tail)
            if anchor >= g.n:
                raise UsageError(f"anchor {anchor} out of range for {text!r}")
            return AnchoredGraph(g, anchor)
    raise UsageError(f"cannot parse pattern {text!r}; "
                     "expected a name like C5 or a graph6 string")


def expand_pattern_specs(specs: list[str],
                         include_singleton: bool) -> list[PatternLike]:
    """Flatten specs; omega-con-k expands to all connected graphs up to k
    vertices (from 2, or from 1 with the singleton)."""
    out: list[PatternLike] = []
    for spec in specs:
        for item in filter(None, (s.strip() for s in spec.split(","))):
            m = _OMEGA_RE.match(item)
            if m:
                k = int(m.group(1))
                lo = 1 if include_singleton else 2
                if k < lo:
                    raise UsageError(f"{item} holds no pattern: need k >= 2,"
                                     " or k = 1 with --include-singleton")
                out.extend(enumerate_connected_graphs(lo, k))
            else:
                out.append(parse_pattern_spec(item))
    if not out:
        raise UsageError("no patterns given; pass --pattern")
    return out


def _anchor_at_zero(pattern: PatternLike) -> PatternLike:
    if isinstance(pattern, AnchoredGraph):
        return pattern
    return AnchoredGraph(pattern, 0)


def build_combination(pattern: PatternLike, mode: str,
                      cache_dir) -> LinearCombination:
    """Hom-basis combination a count mode assigns to one pattern."""
    key = canonical_key(pattern)
    anchored = isinstance(pattern, AnchoredGraph)
    if mode == "hom":
        level = NODE_LEVEL if anchored else GRAPH_LEVEL
        return LinearCombination(HOM_BASIS, level,
                                 (BasisTerm(pattern, Fraction(1)),),
                                 provenance=f"Hom[{key}]")
    if mode in ("sub", "spasm-hom"):
        if anchored:
            return cache_through(cache_dir, "spasm-anchored", key,
                                 lambda: anchored_spasm_of(pattern))
        return cache_through(cache_dir, "spasm", key,
                             lambda: spasm_of(pattern))
    if mode == "indsub":
        if anchored:
            raise UsageError("induced counts are graph-level; drop the anchor")
        return cache_through(cache_dir, "indsub", key,
                             lambda: indsub_expansion(pattern))
    raise UsageError(f"unknown mode {mode!r}")


def _term_stats(term: BasisTerm) -> tuple[str, int, int, int]:
    g = term.graph
    plain = g.graph if isinstance(g, AnchoredGraph) else g
    return canonical_key(g), plain.n, plain.m, elimination_order(plain)[0]


def _print_basis_table(c: LinearCombination, out) -> None:
    rows = [("graph", "n", "m", "treewidth", "coefficient")]
    for t in c.terms:
        key, n, m, tw = _term_stats(t)
        rows.append((key, str(n), str(m), str(tw), format_exact(t.coefficient)))
    widths = [max(len(r[j]) for r in rows) for j in range(5)]
    print(f"{len(c)} terms", file=out)
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(),
              file=out)


def _basis_json(c: LinearCombination, pattern: PatternLike) -> dict:
    terms = []
    for t in c.terms:
        key, n, m, tw = _term_stats(t)
        terms.append({"graph": key, "n": n, "m": m, "treewidth": tw,
                      "coefficient": format_exact(t.coefficient)})
    return {"pattern": canonical_key(pattern), "basis_kind": c.basis_kind,
            "level": c.level, "count": len(c), "terms": terms}


def cmd_spasm(args) -> int:
    pattern = parse_pattern_spec(args.pattern)
    if args.anchored:
        pattern = _anchor_at_zero(pattern)
    if isinstance(pattern, AnchoredGraph):
        c = anchored_spasm_of(pattern)
    else:
        c = spasm_of(pattern)
    if args.min_treewidth is not None:
        c = filter_min_treewidth(c, args.min_treewidth)
    if args.json:
        print(json.dumps(_basis_json(c, pattern)))
    else:
        _print_basis_table(c, sys.stdout)
    return 0


def cmd_treewidth(args) -> int:
    pattern = parse_pattern_spec(args.pattern)
    anchor: Optional[int] = None
    if isinstance(pattern, AnchoredGraph):
        anchor = pattern.anchor
        graph = pattern.graph
    else:
        graph = pattern
    width, td = treewidth_exact(graph, anchor)
    if args.json:
        doc = {"pattern": canonical_key(pattern), "width": width}
        doc.update(decomposition_to_json_dict(td))
        print(json.dumps(doc))
    else:
        print(f"treewidth {width}")
    return 0


def cmd_enumerate(args) -> int:
    if args.min < 1 or args.max < args.min:
        raise UsageError("need 1 <= --min <= --max")
    if args.connected:
        batch = enumerate_connected_graphs(args.min, args.max)
    else:
        batch = [g for n in range(args.min, args.max + 1)
                 for g in enumerate_graphs(n)]
    for g in batch:
        print(format_graph6(g))
    return 0


# One row per count/features setting: (key, type, default, choices, env).
# The key is also the argparse dest; a value comes from the command line,
# else the config file, else the env var, else the default.
SETTINGS = (
    ("dataset", str, None, None, ""),
    ("format", str, "jsonl",
     DATASET_FORMATS + ("edgelist_dir", "single_edgelist"), ""),
    ("patterns", list, None, None, ""),
    ("mode", str, "hom", COUNT_MODES, ""),
    ("level", str, GRAPH_LEVEL, (GRAPH_LEVEL, NODE_LEVEL), ""),
    ("auto_anchor", bool, False, None, ""),
    ("include_singleton", bool, False, None, ""),
    ("include_derived", bool, None, None, ""),
    ("min_treewidth", int, None, None, ""),
    ("jobs", int, 1, None, ""),
    ("cache", str, None, None, CACHE_ENV),
    ("allow_wide", bool, False, None, ""),
    ("out", str, "-", None, ""),
    ("out_format", str, "csv", ("csv", "jsonl"), ""),
    ("encoding", str, "raw", ENCODING_KINDS, ""),
    ("pe_dim", int, 8, None, ""),
)


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - {row[0] for row in SETTINGS})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return doc


def _settings(args, config: dict) -> dict:
    """Every setting resolved and checked against its row of SETTINGS."""
    out = {}
    for key, kind, default, choices, env in SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        if value is None:
            value = (env and os.environ.get(env)) or default
        if kind is list and isinstance(value, str):
            value = [value]
        if kind is list:
            ok = isinstance(value, list) and all(type(x) is str for x in value)
        else:
            ok = type(value) is kind  # so a bool is not an int
        if value is not None and not ok:
            what = "a list of strings" if kind is list else kind.__name__
            raise UsageError(f"setting {key!r} must be {what}, got {value!r}")
        if choices and value not in choices:
            raise UsageError(f"setting {key!r} must be one of"
                             f" {', '.join(choices)}; got {value!r}")
        out[key] = value
    return out


def _run_count(args, encoded: bool) -> int:
    config = _load_config(args.config) if args.config else {}
    opts = _settings(args, config)
    # count ignores the encoding, but one config file drives both commands,
    # so both reject a bad one before any work
    spec = EncodingSpec(opts["encoding"], opts["pe_dim"])
    if not opts["dataset"]:
        raise UsageError("no dataset given; pass --dataset")
    if opts["patterns"] is None:
        raise UsageError("no patterns given; pass --pattern")
    if opts["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    mode, level = opts["mode"], opts["level"]
    include_derived = opts["include_derived"]
    if include_derived is None:
        include_derived = mode in ("sub", "indsub")

    started = time.perf_counter()
    ds = load_dataset(opts["dataset"], opts["format"])
    patterns = expand_pattern_specs(opts["patterns"], opts["include_singleton"])
    if level == NODE_LEVEL and opts["auto_anchor"]:
        patterns = [_anchor_at_zero(p) for p in patterns]
    for p in patterns:
        anchored = isinstance(p, AnchoredGraph)
        if level == NODE_LEVEL and not anchored:
            raise UsageError(
                f"node level needs anchored patterns; write "
                f"{canonical_key(p)}@<v> or pass --auto-anchor")
        if level == GRAPH_LEVEL and anchored:
            raise UsageError(
                f"pattern {canonical_key(p)} is anchored; use --level node")
    params = [build_combination(p, mode, opts["cache"]) for p in patterns]
    if opts["min_treewidth"] is not None:
        params = [filter_min_treewidth(c, opts["min_treewidth"])
                  for c in params]
    matrix = compute_features(ds, params, level, include_derived, opts["jobs"],
                              allow_wide=opts["allow_wide"])
    if encoded:
        matrix = encode(matrix, spec)
    out_path = opts["out"]
    export(matrix, out_path, opts["out_format"])
    wall = time.perf_counter() - started
    for gid, message in matrix.failures:
        print(f"failed {gid}: {message}", file=sys.stderr)
    rows, cols = matrix.shape
    where = "" if out_path == "-" else f" out={out_path}"
    print(f"rows={rows} cols={cols} failures={len(matrix.failures)} "
          f"wall={wall:.2f}s{where}", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    return _run_count(args, encoded=False)


def cmd_features(args) -> int:
    return _run_count(args, encoded=True)


def _route_hom_graph(pattern: Graph, anchor: int, host: Graph):
    return (hom_count(pattern, HostGraph.from_graph(host)),
            brute_hom(pattern, host))


def _route_hom_node(pattern: Graph, anchor: int, host: Graph):
    got = hom_count_node(AnchoredGraph(pattern, anchor),
                         HostGraph.from_graph(host))
    return list(got.values), brute_hom_node(AnchoredGraph(pattern, anchor), host)


def _route_sub_graph(pattern: Graph, anchor: int, host: Graph):
    value = evaluate(spasm_of(pattern), HostGraph.from_graph(host))
    return value, Fraction(brute_sub(pattern, host))


def _route_sub_node(pattern: Graph, anchor: int, host: Graph):
    ap = AnchoredGraph(pattern, anchor)
    got = evaluate_node(anchored_spasm_of(ap), HostGraph.from_graph(host))
    return got, [Fraction(x) for x in brute_sub_node(ap, host)]


def _route_indsub_graph(pattern: Graph, anchor: int, host: Graph):
    value = evaluate(indsub_expansion(pattern), HostGraph.from_graph(host))
    return value, Fraction(brute_indsub(pattern, host))


def _route_batch_node(pattern: Graph, anchor: int, host: Graph):
    # a second anchored pattern, drawn from the sample itself, so that
    # sub-plans shared across the two parameters' terms are checked too
    rng = random.Random(
        f"{format_graph6(pattern)}@{anchor} {format_graph6(host)}")
    other = rng.choice(enumerate_connected_graphs(2, pattern.n))
    aps = [AnchoredGraph(pattern, anchor),
           AnchoredGraph(other, rng.randrange(other.n))]
    got = next(batch_evaluate([anchored_spasm_of(a) for a in aps],
                              [HostGraph.from_graph(host)]))
    return got, [tuple(Fraction(x) for x in brute_sub_node(a, host))
                 for a in aps]


def _route_union(pattern: Graph, anchor: int, host: Graph):
    # the sample plus a second component, drawn from the sample itself,
    # so that the product over components is checked too
    rng = random.Random(
        f"{format_graph6(pattern)}@{anchor} {format_graph6(host)}")
    room = min(3, ORACLE_PATTERN_LIMIT - pattern.n)
    if room > 0:
        pattern = disjoint_union(
            pattern, rng.choice(enumerate_connected_graphs(1, room)))
    ap, h = AnchoredGraph(pattern, anchor), HostGraph.from_graph(host)
    return ((hom_count(pattern, h), list(hom_count_node(ap, h).values)),
            (brute_hom(pattern, host), brute_hom_node(ap, host)))


# name -> (engine value, oracle value); kept at module level so a test can
# swap in a broken route and watch the checker catch it
CHECK_ROUTES: dict[str, Callable] = {
    "hom-graph": _route_hom_graph,
    "hom-node": _route_hom_node,
    "sub-graph": _route_sub_graph,
    "sub-node": _route_sub_node,
    "indsub-graph": _route_indsub_graph,
    "batch-node": _route_batch_node,
    "union": _route_union,
}


def _random_host(rng: random.Random, max_host: int) -> Graph:
    n = rng.randint(1, max_host)
    p = rng.choice((0.3, 0.5, 0.7))
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def cmd_check(args) -> int:
    if args.max_pattern < 2 or args.max_pattern > ORACLE_PATTERN_LIMIT:
        raise UsageError(
            f"--max-pattern must be in 2..{ORACLE_PATTERN_LIMIT}")
    if args.max_host < 1 or args.max_host > 12:
        raise UsageError("--max-host must be in 1..12")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    rng = random.Random(args.seed)
    patterns = enumerate_connected_graphs(2, args.max_pattern)
    for name, route in CHECK_ROUTES.items():
        for _ in range(args.samples):
            pattern = rng.choice(patterns)
            anchor = rng.randrange(pattern.n)
            host = _random_host(rng, args.max_host)
            got, want = route(pattern, anchor, host)
            if got != want:
                print(f"MISMATCH {name}: pattern {format_graph6(pattern)} "
                      f"anchor {anchor} host {format_graph6(host)}")
                print(f"  engine: {got}")
                print(f"  oracle: {want}")
                return 1
        print(f"{name}: {args.samples} comparisons OK")
    print("all routes agree")
    return 0


def _add_count_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", help="dataset path")
    sub.add_argument("--format", choices=DATASET_FORMATS, default=None,
                     help="dataset format (default jsonl)")
    sub.add_argument("--pattern", "--patterns", dest="patterns",
                     action="append", metavar="SPEC",
                     help="pattern name, graph6, or omega-con-<k>; repeatable, "
                          "comma lists allowed")
    sub.add_argument("--mode", choices=COUNT_MODES, default=None,
                     help="what to compute per pattern (default hom)")
    sub.add_argument("--level", choices=(GRAPH_LEVEL, NODE_LEVEL), default=None,
                     help="one row per graph or per vertex (default graph)")
    sub.add_argument("--auto-anchor", action="store_true", default=None,
                     help="anchor every pattern at its vertex 0 (node level)")
    sub.add_argument("--include-singleton", action="store_true", default=None,
                     help="let omega-con-<k> include the 1-vertex graph")
    sub.add_argument("--include-derived",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="add one evaluated column per parameter "
                          "(default: on for sub and indsub)")
    sub.add_argument("--min-treewidth", type=int, default=None, metavar="K",
                     help="keep only basis terms of treewidth above K")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default 1)")
    sub.add_argument("--cache", default=None, metavar="DIR",
                     help=f"basis cache directory (default ${CACHE_ENV})")
    sub.add_argument("--allow-wide", action="store_true", default=None,
                     help="override the plan-width guard on large hosts")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--out-format", choices=("csv", "jsonl"), default=None,
                     help="output format (default csv)")
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="JSON config; command line overrides it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifbasis",
        description="Exact homomorphism-basis computation for graph motif "
                    "parameters, with counting and feature export.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spasm", help="print the homomorphism basis of a "
                                      "subgraph-count parameter")
    p.add_argument("--pattern", required=True)
    p.add_argument("--anchored", action="store_true",
                   help="anchor the pattern at vertex 0 unless it has @v")
    p.add_argument("--min-treewidth", type=int, default=None, metavar="K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spasm)

    p = subs.add_parser("treewidth", help="exact treewidth of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_treewidth)

    p = subs.add_parser("enumerate", help="list graphs up to isomorphism "
                                          "as graph6")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("count", help="exact counts over a dataset")
    _add_count_options(p)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("features", help="encoded feature matrix over a "
                                         "dataset")
    _add_count_options(p)
    p.add_argument("--encoding", choices=ENCODING_KINDS, default=None,
                   help="cell encoding (default raw)")
    p.add_argument("--pe-dim", type=int, default=None,
                   help="sinusoidal dimensions per cell, even (default 8)")
    p.set_defaults(func=cmd_features)

    p = subs.add_parser("check", help="compare the engine against the "
                                      "brute-force oracle")
    p.add_argument("--max-pattern", type=int, default=5)
    p.add_argument("--max-host", type=int, default=6)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
