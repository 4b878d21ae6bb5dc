"""Dataset loading, feature matrices, count encodings, and a basis cache."""

from __future__ import annotations

import base64
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .graphs import AnchoredGraph, EdgeError, canonical_form, canonical_key
from .homcount import (
    CountFailure,
    HostGraph,
    _combine,
    _hom_level,
    batch_term_counts,
    dedupe_terms,
)
from .spasm import (
    GRAPH_LEVEL,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    combination_from_json,
    combination_to_json,
    term_sort_key,
)

DATASET_FORMATS = ("jsonl", "edgelist-dir", "single-edgelist")
ENCODING_KINDS = ("raw", "log1p", "zscore", "sinusoidal")


class DatasetError(ValueError):
    """Malformed dataset input; the message pins down file and line."""


@dataclass(frozen=True)
class Dataset:
    """Ordered, validated collection of named host graphs."""

    ids: tuple[str, ...]
    hosts: tuple[HostGraph, ...]
    source: str = ""

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.hosts):
            raise ValueError("ids and hosts must align")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("graph ids must be unique")

    def __len__(self) -> int:
        return len(self.ids)

    def pairs(self) -> Iterator[tuple[str, HostGraph]]:
        return iter(zip(self.ids, self.hosts))


def _fail(path, lineno: Optional[int], message: str) -> DatasetError:
    where = f"{path}:{lineno}" if lineno is not None else str(path)
    return DatasetError(f"{where}: {message}")


def _load_jsonl(path) -> Dataset:
    ids: list[str] = []
    hosts: list[HostGraph] = []
    taken: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise _fail(path, lineno, f"invalid JSON: {e.msg}") from None
            if not isinstance(doc, dict):
                raise _fail(path, lineno, "expected a JSON object")
            for key in ("id", "num_nodes", "edges"):
                if key not in doc:
                    raise _fail(path, lineno, f"missing field '{key}'")
            gid = doc["id"]
            if not isinstance(gid, str):
                raise _fail(path, lineno, "field 'id' must be a string")
            if gid in taken:
                raise _fail(path, lineno, f"duplicate graph id '{gid}'")
            n = doc["num_nodes"]
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise _fail(path, lineno,
                            "field 'num_nodes' must be a non-negative integer")
            raw_edges = doc["edges"]
            if not isinstance(raw_edges, list):
                raise _fail(path, lineno, "field 'edges' must be a list")
            for item in raw_edges:
                if (not isinstance(item, list) or len(item) != 2
                        or not all(isinstance(x, int) and not isinstance(x, bool)
                                   for x in item)):
                    raise _fail(path, lineno,
                                f"edge entries must be [u, v] pairs, got {item!r}")
            try:
                hosts.append(HostGraph(n, raw_edges))
            except EdgeError as e:
                raise _fail(path, lineno, e.reason) from None
            taken.add(gid)
            ids.append(gid)
    return Dataset(tuple(ids), tuple(hosts), source=f"jsonl:{path}")


def _parse_edge_file(path) -> HostGraph:
    pairs = []
    linenos = []
    top = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.split()
            if len(tokens) != 2:
                raise _fail(path, lineno,
                            f"expected 'u v', got {len(tokens)} tokens")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise _fail(path, lineno,
                            f"vertex labels must be integers, got {text!r}") from None
            if u < 0 or v < 0:
                raise _fail(path, lineno, f"negative vertex in ({u}, {v})")
            pairs.append((u, v))
            linenos.append(lineno)
            top = max(top, u, v)
    try:
        return HostGraph(top + 1, pairs)
    except EdgeError as e:
        raise _fail(path, linenos[e.index], e.reason) from None


def _load_edgelist_dir(path) -> Dataset:
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(f"{path}: not a directory")
    files = sorted(root.glob("*.edges"), key=lambda p: p.stem)
    ids = tuple(p.stem for p in files)
    hosts = tuple(_parse_edge_file(p) for p in files)
    return Dataset(ids, hosts, source=f"edgelist-dir:{path}")


def _load_single_edgelist(path) -> Dataset:
    host = _parse_edge_file(path)
    return Dataset((Path(path).stem,), (host,), source=f"single-edgelist:{path}")


def load_dataset(path, format: str = "jsonl") -> Dataset:
    """Load a named host collection; errors carry file and line."""
    kind = format.replace("_", "-")
    if kind == "jsonl":
        return _load_jsonl(path)
    if kind == "edgelist-dir":
        return _load_edgelist_dir(path)
    if kind == "single-edgelist":
        return _load_single_edgelist(path)
    raise ValueError(f"unknown dataset format {format!r}")


@dataclass(frozen=True)
class FeatureColumn:
    """Column descriptor: stable name plus what the column measures."""

    name: str
    kind: str  # "hom" for a basis-term count, "param" for a derived value
    key: str = ""
    anchor: Optional[int] = None
    provenance: str = ""


@dataclass(frozen=True)
class FeatureMatrix:
    level: str
    columns: tuple[FeatureColumn, ...]
    row_ids: tuple[str, ...]
    rows: tuple[tuple, ...]
    failures: tuple[tuple[str, str], ...] = ()
    encoding: str = "raw"

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("matrix rows must match the column count")
        if len(self.rows) != len(self.row_ids):
            raise ValueError("row ids must align with rows")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.columns)


def _unique_names(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for name in names:
        if name in seen:
            seen[name] += 1
            out.append(f"{name}#{seen[name]}")
        else:
            seen[name] = 0
            out.append(name)
    return out


def _feature_columns(terms, params: Sequence[LinearCombination],
                     include_derived: bool) -> tuple[FeatureColumn, ...]:
    names = []
    meta = []
    for t in terms:
        key = canonical_key(t)
        anchor = 0 if isinstance(t, AnchoredGraph) else None
        names.append(f"hom:{key}")
        meta.append(("hom", key, anchor, ""))
    if include_derived:
        for i, c in enumerate(params):
            label = c.provenance or f"param{i}"
            names.append(f"param:{label}")
            meta.append(("param", "", None, c.provenance))
    names = _unique_names(names)
    return tuple(
        FeatureColumn(name, kind, key, anchor, prov)
        for name, (kind, key, anchor, prov) in zip(names, meta)
    )


def compute_features(ds: Dataset, params: Sequence[LinearCombination],
                     level: str = GRAPH_LEVEL, include_derived_counts: bool = True,
                     jobs: int = 1, *, allow_wide: bool = False) -> FeatureMatrix:
    """Raw feature matrix: one hom column per distinct basis term, in the
    global term order, plus one derived-value column per input parameter.

    Graph level yields one row per host; node level one row per host
    vertex with ids "<gid>:<v>".  A host that trips a resource limit
    contributes all-empty rows and a failure record, and the run goes on.
    Output is identical for every jobs setting.
    """
    params = list(params)
    _hom_level(params, level)
    terms, refs = dedupe_terms(params)
    columns = _feature_columns(terms, params, include_derived_counts)

    row_ids: list[str] = []
    rows: list[tuple] = []
    failures: list[tuple[str, str]] = []
    stream = batch_term_counts(terms, ds.hosts, jobs=jobs, allow_wide=allow_wide)
    for gid, (host_n, counts) in zip(ds.ids, stream):
        ids = ([gid] if level == GRAPH_LEVEL
               else [f"{gid}:{v}" for v in range(host_n)])
        row_ids.extend(ids)
        if isinstance(counts, CountFailure):
            failures.append((gid, counts.message))
            rows.extend([(None,) * len(columns)] * len(ids))
            continue
        cols = list(counts)
        if include_derived_counts:
            cols.extend(_combine(counts, refs, level, host_n))
        if level == GRAPH_LEVEL:
            rows.append(tuple(cols))
        else:  # cols hold one tuple over the vertices each
            rows.extend(zip(*cols) if cols else [()] * host_n)
    return FeatureMatrix(level, columns, tuple(row_ids), tuple(rows),
                         tuple(failures))


def auto_anchor(c: LinearCombination) -> LinearCombination:
    """Node-level variant of a graph-level combination: every basis graph
    anchored at vertex 0 of its canonical form.  One anchor per graph; the
    per-vertex values sum to the graph-level value but are not orbit-split
    subgraph counts (build those from an anchored basis instead)."""
    if c.level != GRAPH_LEVEL:
        raise ValueError("auto_anchor expects a graph-level combination")
    terms = [
        BasisTerm(AnchoredGraph(canonical_form(t.graph)[0], 0), t.coefficient)
        for t in c.terms
    ]
    terms.sort(key=term_sort_key)
    return LinearCombination(c.basis_kind, NODE_LEVEL, tuple(terms),
                             provenance=c.provenance)


@dataclass(frozen=True)
class EncodingSpec:
    kind: str = "raw"
    pe_dim: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ENCODING_KINDS:
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        if self.pe_dim < 2 or self.pe_dim % 2:
            raise ValueError("pe_dim must be a positive even integer")


def _nearest_double(x) -> float:
    """Round-to-nearest double; values past the float range become inf.
    The only lossy step in the pipeline."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def format_exact(x) -> str:
    """Exact decimal string; non-integral rationals stay as "p/q"."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def encode(m: FeatureMatrix, spec: EncodingSpec) -> FeatureMatrix:
    """Encoded copy of a raw matrix.

    raw keeps exact values as decimal strings; log1p is ln(1+x) on the
    nearest double; zscore centers each column on its mean and divides by
    the population standard deviation (1 when the column is constant);
    sinusoidal expands each cell x into pe_dim values, pair i being
    sin(x / 10000^(2i/pe_dim)), cos(x / 10000^(2i/pe_dim)).  Cells from
    failed hosts stay empty throughout.
    """
    if m.encoding != "raw":
        raise ValueError("encode expects a raw matrix")
    if spec.kind == "raw":
        rows = tuple(
            tuple(None if x is None else format_exact(x) for x in row)
            for row in m.rows
        )
        return FeatureMatrix(m.level, m.columns, m.row_ids, rows,
                             m.failures, encoding="raw")
    if spec.kind == "log1p":
        rows = tuple(
            tuple(None if x is None else math.log1p(_nearest_double(x))
                  for x in row)
            for row in m.rows
        )
        return FeatureMatrix(m.level, m.columns, m.row_ids, rows,
                             m.failures, encoding="log1p")
    if spec.kind == "zscore":
        if len(m.rows) < 2:
            raise ValueError("zscore needs at least 2 rows")
        cols = []
        for j in range(len(m.columns)):
            values = [_nearest_double(row[j]) for row in m.rows
                      if row[j] is not None]
            if not values:
                cols.append((0.0, 1.0))
                continue
            mean = math.fsum(values) / len(values)
            var = math.fsum((x - mean) ** 2 for x in values) / len(values)
            std = math.sqrt(var)
            cols.append((mean, std if std > 0 else 1.0))
        rows = tuple(
            tuple(None if x is None
                  else (_nearest_double(x) - cols[j][0]) / cols[j][1]
                  for j, x in enumerate(row))
            for row in m.rows
        )
        return FeatureMatrix(m.level, m.columns, m.row_ids, rows,
                             m.failures, encoding="zscore")

    # sinusoidal: column j fans out into pe_dim interleaved sin/cos columns
    half = spec.pe_dim // 2
    scales = [10000.0 ** (2 * i / spec.pe_dim) for i in range(half)]
    columns = []
    for col in m.columns:
        for i in range(half):
            for fn in ("sin", "cos"):
                columns.append(FeatureColumn(f"{col.name}:{fn}{i}", col.kind,
                                             col.key, col.anchor,
                                             col.provenance))
    rows = []
    for rid, row in zip(m.row_ids, m.rows):
        cells = []
        for col, x in zip(m.columns, row):
            if x is None:
                cells.extend([None] * spec.pe_dim)
                continue
            d = _nearest_double(x)
            if not math.isfinite(d):
                raise ValueError(
                    f"sinusoidal encoding needs finite values; "
                    f"row {rid!r} column {col.name!r} exceeds the double range")
            for s in scales:
                cells.append(math.sin(d / s))
                cells.append(math.cos(d / s))
        rows.append(tuple(cells))
    return FeatureMatrix(m.level, tuple(columns), m.row_ids, tuple(rows),
                         m.failures, encoding="sinusoidal")


def _cell_text(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, Fraction)):
        return format_exact(x)
    return repr(x)


def _open_out(path):
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def export(m: FeatureMatrix, path, format: str = "csv") -> None:
    """Write the matrix to path ("-" for stdout) as csv or jsonl;
    byte-deterministic."""
    if format == "csv":
        with _open_out(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["row_id"] + [c.name for c in m.columns])
            for rid, row in zip(m.row_ids, m.rows):
                writer.writerow([rid] + [_cell_text(x) for x in row])
        return
    if format == "jsonl":
        with _open_out(path) as fh:
            for rid, row in zip(m.row_ids, m.rows):
                doc: dict = {"row_id": rid}
                for col, x in zip(m.columns, row):
                    if isinstance(x, Fraction):
                        x = int(x) if x.denominator == 1 else format_exact(x)
                    doc[col.name] = x
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        return
    raise ValueError(f"unknown export format {format!r}")


def _cache_file(cache_dir, mode: str, key: str) -> Path:
    if not mode or any(sep in mode for sep in "/\\"):
        raise ValueError(f"bad cache mode {mode!r}")
    # keys hold graph6 bytes, so the filename is their urlsafe base64
    name = base64.urlsafe_b64encode(key.encode("utf-8")).decode("ascii")
    return Path(cache_dir) / mode / f"{name}.json"


# Bump whenever an engine change would compute a different basis: entries
# written under another version, or before versions existed, are misses.
CACHE_FORMAT_VERSION = 1


def _payload_digest(doc: dict, provenance: str) -> str:
    blob = json.dumps({"combination": doc, "provenance": provenance,
                       "version": CACHE_FORMAT_VERSION},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def basis_cache_put(cache_dir, mode: str, key: str,
                    c: LinearCombination) -> Path:
    """Store a combination under (mode, key); atomic replace on rewrite."""
    target = _cache_file(cache_dir, mode, key)
    target.parent.mkdir(parents=True, exist_ok=True)
    doc = combination_to_json(c)
    payload = {"version": CACHE_FORMAT_VERSION, "key": key, "mode": mode,
               "combination": doc, "provenance": c.provenance,
               "sha256": _payload_digest(doc, c.provenance)}
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def basis_cache_get(cache_dir, mode: str, key: str) -> Optional[LinearCombination]:
    """Stored combination, or None on miss.  Any corruption (bad JSON,
    checksum, key or format-version mismatch) is a miss, never an error."""
    target = _cache_file(cache_dir, mode, key)
    try:
        with open(target, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            return None
        if (payload.get("version") != CACHE_FORMAT_VERSION
                or payload.get("key") != key or payload.get("mode") != mode):
            return None
        doc = payload.get("combination")
        provenance = payload.get("provenance", "")
        if not isinstance(provenance, str):
            return None
        if payload.get("sha256") != _payload_digest(doc, provenance):
            return None
        c = combination_from_json(doc)
        return dataclasses.replace(c, provenance=provenance)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_through(cache_dir, mode: str, key: str,
                  compute: Callable[[], LinearCombination]) -> LinearCombination:
    """Cache lookup with fallthrough to compute-and-store."""
    if cache_dir is None:
        return compute()
    hit = basis_cache_get(cache_dir, mode, key)
    if hit is not None:
        return hit
    c = compute()
    basis_cache_put(cache_dir, mode, key, c)
    return c
