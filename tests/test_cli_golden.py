"""Byte-identity of `count`/`features` output.

Each case runs the CLI over one fixed seeded dataset and compares the
SHA-256 of everything written to stdout, and the exit code, with a frozen
value.  The digests were taken from the engine before its combine, edge
validation and component split were each folded into one function, so a
pass here shows that the refactor left every output byte alone.

Standard library only.  Run as a script
(`PYTHONPATH=src python tests/test_cli_golden.py`), this file prints the
table of current digests and exits nonzero if any differs from GOLDEN;
to re-freeze after an intended output change, paste the table over
GOLDEN.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from motifbasis.cli import CACHE_ENV, main

# name -> argv; the dataset option is added in front of the other options
CASES = {
    "hom-graph-csv": ["count", "--mode", "hom",
                      "--pattern", "C4,K3,omega-con-3"],
    "sub-graph-csv": ["count", "--mode", "sub", "--pattern", "C5,P4"],
    "indsub-graph-csv": ["count", "--mode", "indsub", "--pattern", "P4,C4"],
    "spasm-hom-graph-csv": ["count", "--mode", "spasm-hom", "--pattern", "C5"],
    "sub-graph-jsonl": ["count", "--mode", "sub", "--pattern", "C4,K3",
                        "--out-format", "jsonl"],
    "sub-node-anchor-csv": ["count", "--mode", "sub", "--level", "node",
                            "--pattern", "C4@0,P4@1"],
    "sub-node-anchor-jsonl": ["count", "--mode", "sub", "--level", "node",
                              "--pattern", "P3@1", "--out-format", "jsonl"],
    "hom-node-auto-csv": ["count", "--mode", "hom", "--level", "node",
                          "--auto-anchor", "--pattern", "K3,P3"],
    "sub-node-auto-csv": ["count", "--mode", "sub", "--level", "node",
                          "--auto-anchor", "--pattern", "P4"],
    "spasm-hom-node-anchor-csv": ["count", "--mode", "spasm-hom",
                                  "--level", "node", "--pattern", "C4@0"],
    "indsub-graph-mintw-csv": ["count", "--mode", "indsub", "--pattern", "P3",
                               "--min-treewidth", "0"],
    "features-raw": ["features", "--mode", "sub", "--pattern", "C4,P3",
                     "--encoding", "raw"],
    "features-log1p": ["features", "--mode", "sub", "--pattern", "C4,P3",
                       "--encoding", "log1p"],
    "features-zscore": ["features", "--mode", "sub", "--pattern", "C4,P3",
                        "--encoding", "zscore"],
    "features-sinusoidal": ["features", "--mode", "sub", "--pattern", "K3",
                            "--encoding", "sinusoidal", "--pe-dim", "4"],
    "features-node-log1p-csv": ["features", "--mode", "sub",
                                "--level", "node", "--pattern", "C4@0,P3@1",
                                "--encoding", "log1p"],
    "features-node-zscore-jsonl": ["features", "--mode", "sub",
                                   "--level", "node", "--pattern", "P3@0",
                                   "--encoding", "zscore",
                                   "--out-format", "jsonl"],
    "indsub-anchored-rejected": ["count", "--mode", "indsub", "--level", "node",
                                 "--pattern", "P3@0"],
}


def write_dataset(path) -> None:
    """Eight seeded random hosts on 0..8 vertices, one JSON object a line."""
    rng = random.Random(20240213)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(8):
            n = rng.randint(0, 8)
            p = rng.choice((0.25, 0.45, 0.65))
            edges = [[u, v] for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            fh.write(json.dumps({"id": f"g{i}", "num_nodes": n,
                                 "edges": edges}) + "\n")


def run_case(dataset, argv) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout for one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], "--dataset", str(dataset)] + argv[1:])
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


# name -> (exit code, sha256 of stdout)
GOLDEN = {
    'features-log1p': (0, '9adbad1484df0dc5862bedfa9ec36a459544a37e6a9bfef2bc24336cc0ab429f'),
    'features-node-log1p-csv': (0, '339b321fa5738a3790e2be613a85970a06110300681ece80278183c08e3a3988'),
    'features-node-zscore-jsonl': (0, '091a65aeb6b5092cdf650710d4536f5f6cf3c6a343b08c40d4fd7cfc09b4a507'),
    'features-raw': (0, 'dd84fb6d9e6756eec9b0cf530084469e19075328eba43cfbeebdcac2ef9d77c1'),
    'features-sinusoidal': (0, '2998cc9981f414ac74bb4081d9d9c6fcc2a9fb997bcc3056791a60c6ca62b67f'),
    'features-zscore': (0, 'd753e66dc18e5bff5697142fd9774b046347f298dcab9b3726328b8e6e191bba'),
    'hom-graph-csv': (0, 'df51bba3b727cc6c26a5dd5c6eb630be675eca7ab0034e70a88410b8aba917ee'),
    'hom-node-auto-csv': (0, 'b3717595fd522ac78342fe56aa4bad5b80d59948edcac9c0384a2472940d0db6'),
    'indsub-anchored-rejected': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'indsub-graph-csv': (0, '96c50b6c8ffb2bcba0cfabfb0045707e317d3aad7b0a3ff6b08132d503076293'),
    'indsub-graph-mintw-csv': (0, '29d74d85253803c1761a3e42b1e0bab9c90839d8b0fb409b0d355b8619ceca3e'),
    'spasm-hom-graph-csv': (0, '05cde2b5d0102b0d3657e8734e52232c4791e8f37b8aff649516dfbc06e81a31'),
    'spasm-hom-node-anchor-csv': (0, '254dd7ca9810cae79bb1a7139042f2cf5b1f59b8d1f599a9ac95b27c8ac8adac'),
    'sub-graph-csv': (0, 'e9f53e26a2e91c6cf406e118fc60492908ad3c7f7db5edad0806932dc627ce68'),
    'sub-graph-jsonl': (0, 'e4c4237c11a344b971e7878905fd78ead8b5ca6b744f67a295d98db104840699'),
    'sub-node-anchor-csv': (0, 'a6e521c4bee818ee09a3d3a790f2ee28fddcc89c6b6b60cbee1af6bfb514267b'),
    'sub-node-anchor-jsonl': (0, 'd73f9056947293901853262a0a6662ce02f0ff12cde1347785fb5da5e5db8454'),
    'sub-node-auto-csv': (0, '1815a827f1fc45714a080c7d0f9744516486e26cf79006ed414a004605083bcf'),
}


def pytest_generate_tests(metafunc):
    # one test per case, parametrized without importing pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    dataset = tmp_path / "golden.jsonl"
    write_dataset(dataset)
    assert run_case(dataset, CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop(CACHE_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = os.path.join(tmp, "golden.jsonl")
        write_dataset(dataset)
        print("GOLDEN = {")
        differ = []
        for name in sorted(CASES):
            got = run_case(dataset, CASES[name])
            print(f"    {name!r}: {got!r},", flush=True)
            if got != GOLDEN.get(name):
                differ.append(name)
        print("}")
    if differ:
        sys.exit(f"{len(differ)} of {len(CASES)} cases differ from GOLDEN:"
                 f" {', '.join(differ)}")
