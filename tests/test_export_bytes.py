"""encode and export against their per-cell definitions, on seeded
matrices of every cell type.

export writes a row of floats with a plain id without csv.writer, so
its bytes are checked against csv.writer's.  Values that compare equal
can still print or encode apart (0.0 and -0.0, 1 and 1.0 and True), so
these checks mix them in one matrix.

Standard library only, so it also runs as a plain script on an
interpreter without pytest:

    PYTHONPATH=src python tests/test_export_bytes.py
"""

import csv
import io
import math
import os
import random
import tempfile
from fractions import Fraction

from motifbasis.features import (
    EncodingSpec,
    FeatureColumn,
    FeatureMatrix,
    encode,
    export,
    format_exact,
)
from motifbasis.spasm import GRAPH_LEVEL

NAN = math.nan
FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 5e-324, -5e-324,
          2.2250738585072014e-308, math.inf, -math.inf, NAN, float("nan"),
          0.1 + 0.2, 1e16, 123456789.125]
EXACT = [0, 1, -1, 7, 10 ** 40, -(10 ** 40), 2 ** 64, Fraction(1),
         Fraction(0), Fraction(-475, 2), Fraction(1, 3), Fraction(10) ** 30]
OTHER = [True, False, "", "a,b", 'say "hi"', "cr\rhere", "nl\nhere",
         "\r\n", "plain", " spaced ", "ü "]
IDS = ["g0:1", "h", "", "a,b", 'q"x', "line\nbreak", "cr\r", " sp ",
       "ü", "\t"]


def reference_csv(m) -> bytes:
    """The csv bytes as csv.writer writes every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row_id"] + [c.name for c in m.columns])
    writer.writerows([rid, *row] for rid, row in zip(m.row_ids, m.rows))
    return buf.getvalue().encode("utf-8")


def exported(m) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        export(m, path)
        with open(path, "rb") as fh:
            return fh.read()


def outcome(fn, m):
    """fn(m), or the type of the error it raises."""
    try:
        return fn(m)
    except Exception as e:  # compared with the reference's own error
        return type(e)


def columns(k: int) -> tuple:
    names = ["c", "d,e", 'f"g'] + [f"x{j}" for j in range(k)]
    return tuple(FeatureColumn(n, "hom") for n in names[:k])


def random_matrix(rng: random.Random) -> FeatureMatrix:
    """Rows of floats, of ints and Fractions, or of any cell, each with
    Nones and with values repeated across rows."""
    k = rng.randint(0, 6)
    pools = (FLOATS, EXACT, FLOATS + EXACT + OTHER)
    ids, rows = [], []
    for i in range(rng.randint(0, 12)):
        pool = rng.choice(pools)
        rows.append(tuple(None if rng.random() < 0.15 else rng.choice(pool)
                          for _ in range(k)))
        ids.append(rng.choice(IDS) + str(i) if rng.random() < 0.5
                   else f"r{i}")
    if rows and rng.random() < 0.3:
        ids[0] = ""  # an empty id, which csv quotes when alone on its row
    return FeatureMatrix(GRAPH_LEVEL, columns(k), tuple(ids), tuple(rows))


def test_csv_bytes_match_csv_writer():
    for seed in range(60):
        m = random_matrix(random.Random(seed))
        assert exported(m) == reference_csv(m), seed


def test_csv_edge_rows_match_csv_writer():
    one = columns(1)
    cases = [
        FeatureMatrix(GRAPH_LEVEL, (), ("", "a", 'b"'), ((), (), ())),
        FeatureMatrix(GRAPH_LEVEL, (), (), ()),
        FeatureMatrix(GRAPH_LEVEL, one, ("", "x"), ((None,), (None,))),
        FeatureMatrix(GRAPH_LEVEL, one, ("a", "b", "c", "d"),
                      ((0.0,), (-0.0,), (0,), (-0.0,))),
        FeatureMatrix(GRAPH_LEVEL, one, ("a", "b", "c", "d"),
                      ((1,), (1.0,), (True,), (Fraction(1),))),
        FeatureMatrix(GRAPH_LEVEL, columns(3), ("a", "b"),
                      ((NAN, -NAN, float("-nan")), (1.5, "1.5", 3))),
    ]
    for m in cases:
        assert exported(m) == reference_csv(m), m


def test_csv_nul_id_acts_like_csv_writer():
    # csv.writer rejects NUL before Python 3.11 and writes it after
    m = FeatureMatrix(GRAPH_LEVEL, columns(1), ("a\0b",), ((1.0,),))
    assert outcome(exported, m) == outcome(reference_csv, m)


def nearest_double(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def per_cell(kind: str, x, pe_dim: int = 4):
    """The encoding of one cell, by definition."""
    if kind == "raw":
        return [format_exact(x)]
    d = nearest_double(x)
    if kind == "log1p":
        return [math.log1p(d)]
    out = []
    for i in range(pe_dim // 2):
        s = 10000.0 ** (2 * i / pe_dim)
        out += [math.sin(d / s), math.cos(d / s)]
    return out


def shown(row) -> list:
    """Cells by type and repr, so 0.0 and -0.0 differ and NaN equals NaN."""
    return [(type(x), repr(x)) for x in row]


def test_encode_matches_per_cell_definition():
    rng = random.Random(7)
    mixed = [1, 1.0, Fraction(1), -0.0, 0.0, 0, Fraction(0), True, False,
             2, Fraction(2), 2.0, 10 ** 40, Fraction(1, 3), 5e-324, None]
    k = 5
    rows = [tuple(rng.choice(mixed) for _ in range(k)) for _ in range(40)]
    rows += [(1, Fraction(1), 0, Fraction(0), None)] * 3
    m = FeatureMatrix(GRAPH_LEVEL, columns(k),
                      tuple(f"r{i}" for i in range(len(rows))), tuple(rows))
    for kind in ("raw", "log1p", "sinusoidal"):
        e = encode(m, EncodingSpec(kind, pe_dim=4))
        for row, got in zip(m.rows, e.rows):
            want = [y for x in row for y in
                    ([None] * (4 if kind == "sinusoidal" else 1)
                     if x is None else per_cell(kind, x))]
            assert shown(got) == shown(want), (kind, row)


def test_log1p_error_names_first_bad_cell():
    cols = columns(3)
    for row in ((0, -5, -7), (0.5, -5.0, Fraction(-7))):
        m = FeatureMatrix(GRAPH_LEVEL, cols, ("ok", "k6"), ((1, 2, 3), row))
        try:
            encode(m, EncodingSpec("log1p"))
        except ValueError as e:
            assert str(e) == ("log1p encoding needs values above -1;"
                              f" row 'k6' column {cols[1].name!r} holds"
                              f" {format_exact(row[1])}"), str(e)
        else:
            raise AssertionError("log1p took a value below -1")


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
