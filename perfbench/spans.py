"""In-memory spans recorded around calls into the engine's modules.

A span has a name, start and end (perf_counter seconds), the span that
was open when it began, and a host id so that the spans of one host can
be grouped.  Spans are kept in a list and written out once at the end.

Two ways to record: `span()` around a call the benchmark makes itself,
and `wrap()` which replaces a module attribute so that calls the engine
makes across a module boundary (cli -> spasm, features -> homcount) are
recorded too.  `uninstall()` restores every wrapped attribute.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    host: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _null = contextlib.nullcontext({})  # attributes set on it are dropped

    def span(self, name: str, **attrs):
        return self._null


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, Callable]] = []

    def current(self) -> int:
        """Id of the innermost open span."""
        return self._open[-1]

    def _begin(self) -> tuple[int, Optional[int]]:
        """Reserve a span id (so parents precede children) and open it."""
        sid = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # set on close
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        return sid, parent

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Span around a block; the block may add to the yielded attrs."""
        sid, parent = self._begin()
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, None, attrs)

    def wrap(self, module, attr: str, name: str,
             describe: Callable[[tuple, object], tuple[Optional[str], dict]]
             ) -> None:
        """Record a span around every call of `module.attr`.

        `describe(args, result)` returns the span's host id and attributes;
        it runs after the call, outside the timed interval.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            sid, parent = self._begin()
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._open.pop()
                host, attrs = describe(args, result)
                self.spans[sid] = Span(sid, name, start, end, parent, host,
                                       attrs)

        self._patches.append((module, attr, original, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # === summaries ===

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def inside(self, roots: set[int]) -> set[int]:
        """Ids of the given spans and of every span nested in them."""
        out = set(roots)
        for s in self.spans:  # parents always precede their children
            if s.parent in out:
                out.add(s.sid)
        return out

    def layer_self_times(self, roots: set[int]) -> dict[str, float]:
        """Self time summed per layer (the span-name prefix before the
        dot) over the given spans and their descendants, largest first."""
        out: dict[str, float] = {}
        keep = self.inside(roots)
        for sid, t in self.self_times().items():
            if sid in keep:
                layer = self.spans[sid].name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + t
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def total(self, name: str, under: Optional[int] = None) -> float:
        return sum(s.duration for s in self.named(name, under))

    def named(self, name: str, under: Optional[int] = None) -> list[Span]:
        """Spans called `name`, optionally only those inside span `under`."""
        spans = [s for s in self.spans if s.name == name]
        if under is None:
            return spans
        keep = self.inside({under})
        return [s for s in spans if s.sid in keep]

    def to_json(self) -> list[dict]:
        return [
            {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "host": s.host, **s.attrs}
            for s in self.spans
        ]
