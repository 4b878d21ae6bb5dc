"""The workload pipeline, run through the engine's public functions.

setup:  load_dataset -> build_combination per pattern -> dedupe_terms ->
        plan_width per term (the first, cold, plan compile).
pass:   compute_features -> encode -> export, over every host.
latency: batch_evaluate on one host (term counts plus combine).

Call `checkout.require_src()` before importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from motifbasis import cli, features, graphs, homcount

from spans import NullTracer
from workloads import Call, Workload

NULL = NullTracer()


@dataclass
class Prepared:
    """One compute_features call, ready to run."""

    call: Call
    params: list
    terms: list
    refs: list
    keys: list[str]     # canonical key per term
    widths: list[int]   # plan width per term


@dataclass
class Setup:
    dataset: object     # features.Dataset
    calls: list[Prepared]
    total_terms: int    # summed over params, before dedupe


def expand(spec: str, tracer=NULL) -> list:
    """Patterns for one spec: a name, or omega-con-A-B."""
    if spec.startswith("omega-con-"):
        lo, hi = (int(x) for x in spec[len("omega-con-"):].split("-"))
        with tracer.span("graphs.enumerate", spec=spec):
            return graphs.enumerate_connected_graphs(lo, hi)
    return [graphs.named_pattern(spec)]


def build_params(call: Call, cache_dir: Optional[Path], tracer=NULL) -> list:
    cache = None if cache_dir is None else str(cache_dir)
    params = []
    for mode, specs in call.parts:
        for spec in specs:
            for p in expand(spec, tracer):
                key = graphs.canonical_key(p)
                with tracer.span("cli.build_combination", mode=mode,
                                 pattern=key):
                    params.append(cli.build_combination(p, mode, cache))
    return params


def setup(w: Workload, data_path: Path, cache_dir: Optional[Path],
          tracer=NULL) -> Setup:
    with tracer.span("features.load_dataset", format=w.dataset_format):
        ds = features.load_dataset(str(data_path), w.dataset_format)
    calls = []
    total = 0
    for call in w.calls:
        params = build_params(call, cache_dir, tracer)
        total += sum(len(c) for c in params)
        with tracer.span("homcount.dedupe_terms"):
            terms, refs = homcount.dedupe_terms(params)
        keys = [graphs.canonical_key(t) for t in terms]
        widths = []
        for t, key in zip(terms, keys):
            with tracer.span("decomp.plan_width", term=key) as attrs:
                width = homcount.plan_width(t)
                attrs["width"] = width
            widths.append(width)
        calls.append(Prepared(call, params, terms, refs, keys, widths))
    return Setup(ds, calls, total)


def run_pass(w: Workload, s: Setup, out_dir: Path,
             tracer=NULL) -> tuple[list, list[Path]]:
    """compute_features -> encode -> export over every host.

    Returns the raw matrices and the exported files, one per call.
    """
    ds = s.dataset
    spec = features.EncodingSpec(w.encoding)
    raws, paths = [], []
    for i, p in enumerate(s.calls):
        with tracer.span("features.compute_features", level=p.call.level):
            raw = features.compute_features(
                ds, p.params, p.call.level, p.call.include_derived, jobs=1)
        with tracer.span("features.encode", kind=w.encoding):
            enc = features.encode(raw, spec)
        path = out_dir / f"out{i}.{w.out_format}"
        with tracer.span("features.export", format=w.out_format):
            features.export(enc, str(path), w.out_format)
        raws.append(raw)
        paths.append(path)
    return raws, paths


def evaluate_host(s: Setup, host) -> list:
    """batch_evaluate rows for one host, one per call."""
    return [next(homcount.batch_evaluate(p.params, [host], jobs=1))
            for p in s.calls]


def param_column(p: Prepared, j: int) -> int:
    """Matrix column holding parameter j's value.

    With derived columns that is the j-th param column; without them the
    parameter must be a single Hom term with coefficient 1, whose column
    is that term's.
    """
    if p.call.include_derived:
        return len(p.terms) + j
    (i, coeff), = p.refs[j]
    if coeff != 1:
        raise ValueError(f"parameter {j} has no column of its own")
    return i


def param_values(p: Prepared, raw, gid: str) -> list:
    """Parameter values of one host read from a raw matrix: a Fraction per
    parameter at graph level, a tuple over vertices at node level."""
    cols = [param_column(p, j) for j in range(len(p.params))]
    if p.call.level == "graph":
        row = raw.rows[raw.row_ids.index(gid)]
        return [Fraction(row[c]) for c in cols]
    prefix = gid + ":"
    rows = [r for rid, r in zip(raw.row_ids, raw.rows)
            if rid.startswith(prefix)]
    return [tuple(Fraction(r[c]) for r in rows) for c in cols]


def failures(raws) -> int:
    return sum(len(m.failures) for m in raws)


def mismatched_hosts(s: Setup, raws, expected: dict) -> list[str]:
    """Hosts whose parameter values differ from the expected ones
    (verify.py's output: per host, per call, a value or a vertex list)."""
    bad = set()
    for gid, per_call in expected.items():
        for p, raw, want in zip(s.calls, raws, per_call):
            want = [tuple(v) if isinstance(v, list) else v for v in want]
            if not raw.failures and param_values(p, raw, gid) != want:
                bad.add(gid)
    return sorted(bad)


def rows_match(s: Setup, raws, gid: str, rows: list) -> bool:
    """batch_evaluate rows for one host equal the compute_features values."""
    return all(raw.failures or param_values(p, raw, gid) == list(row)
               for p, raw, row in zip(s.calls, raws, rows))
