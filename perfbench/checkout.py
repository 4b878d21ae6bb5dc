"""Locate the checkout the benchmark runs in and import its engine.

The benchmark always measures the `src/motifbasis` next to it, never an
installed copy, and keeps its scratch files under `.bench_build/`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"


class CheckoutError(RuntimeError):
    """The directory holds no engine source to measure."""


def require_src() -> None:
    """Put the checkout's `src` first on sys.path and check the import.

    Raises CheckoutError when `src/motifbasis` is missing, or when the
    package resolves to anything but that directory.
    """
    pkg = SRC / "motifbasis"
    if not (pkg / "__init__.py").is_file():
        raise CheckoutError(f"no engine source at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motifbasis

    where = Path(motifbasis.__file__).resolve().parent
    if where != pkg.resolve():
        raise CheckoutError(f"motifbasis imported from {where}, not {pkg}")
