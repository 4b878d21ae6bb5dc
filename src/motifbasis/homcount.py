"""The counting engine: exact homomorphism counts via tree-decomposition DP.

A pattern is compiled, whole, by bucket elimination along a
width-optimal elimination order into one plan: a tree of ops, each
turning the tables of its child nodes (assignment tuple -> count) into
its own.  The bucket of a vertex v multiplies the messages that hold v,
the tables of earlier buckets, then sums v out, and its table goes to
the bucket of its first eliminated vertex.  The order eliminates
connected components one after another, so a component's count is a
table with no slot left; it goes to the last vertex's bucket, which
joins it like any other message, and the product over components is
part of the plan.  A bucket starts from its largest message and joins
every other message whose slots are a subset of its own by looking up
the projected key, before it introduces any missing vertex; so a
message is never padded to the full bag.  Introduces go neighbour-first, so only the first introduce above
a leaf ranges over every host vertex and the others are filtered
through host adjacency (two or more bag neighbours intersect their
frozensets).  The sum over v is fused, as a
projection, into the bucket's last op, which then writes straight into
the projected key; an introduce whose new vertex is forgotten at once
just multiplies each count by its number of candidates.  Each op runs
as a kernel: a loop generated for its signature (the op and the key
length of its child tables), compiled on the first run of such a node
and cached, which unpacks keys in its `for` header, inlines the
candidate expression and builds each output key as a tuple literal.
An introduce that collapses a 2-slot table onto the new vertex's image
can also pull, summing the table over pairs of each host vertex's
neighbours, when the host's sum of squared degrees is small against the
table.  Some kernels that sum into their keys use Python ints indexed
by host vertex instead of a dict; `_kernel` says which and when.
Running a plan costs O(n^(width+1)) table entries in the worst case, so
plans are guarded by an explicit width check before large hosts.

Spasm terms are quotients of one pattern, so their plans share pieces.
Each node records what its table counts: the pattern vertex at each key
slot and, for an introduce, the vertex it adds and its neighbours.  A
node's table is fixed by its meaning, the partial pattern its sub-plan
adds, with the key's slots labelled in key order and the summed-out
vertices labelled canonically, so nodes reached through other labels or
another introduce order hold equal tables when their meanings are
equal.  Once per row of terms, not per host, the row is compiled into
one program, and plans are chosen per row, not per pattern: terms go
largest first, and each takes, among the width-optimal orders the
subset DP allows, one whose plan adds the fewest new wide tables to
those the row already holds (`_choose`), so its labels pick no plan.
Each node then maps to a representative, the first node with its
meaning in post-order over the roots in row order, so every choice
depends on the row alone.  For each term the program lists flat steps,
one kernel run each, from input cells into an output cell: the
representatives first asked for at that term's root, in post-order.  A
cell is emptied after its last read in the row, so each meaning is
computed once per host, a table is kept exactly as long as the row
needs it, and a host's run of the row, its cells and a cursor over the
terms, ends empty.  A term counted alone is a row of one.

Everything is arbitrary-precision integer arithmetic; floats never appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, product, repeat
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .decomp import optimal_orders, pattern_treewidth
from .graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    PatternLike,
    canonical_key,
    slot_canonical_edges,
    validated_edges,
)
from .spasm import (
    GRAPH_LEVEL,
    HOM_BASIS,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    term_sort_key,
)

# refuse n^(width+1) style blowups unless explicitly overridden
WIDTH_GUARD_WIDTH = 5
WIDTH_GUARD_HOST_VERTICES = 100_000

# a summing introduce adds into per-vertex lists only when they have at
# most this many cells per entry of the table it iterates
DENSE_CELLS_PER_ENTRY = 4

_EMPTY_SET: frozenset[int] = frozenset()


class WidthGuardError(LimitError):
    """Plan too wide for a host this large; pass allow_wide to override."""


class HostGraph:
    """Host-side graph: immutable sorted adjacency arrays.

    Hosts can be large, so this type stays lean: no canonical forms, no
    quotients, just adjacency built once and shared read-only across
    counting workers.
    """

    __slots__ = ("n", "m", "_adj", "_adjsets", "_sq")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        norm = validated_edges(n, edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(norm))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(
            self, "_adjsets",
            tuple(frozenset(a) if a else _EMPTY_SET for a in adj),
        )
        # sum of squared degrees: the cost of a pull kernel
        object.__setattr__(self, "_sq", sum(len(a) ** 2 for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("HostGraph is immutable")

    @classmethod
    def from_graph(cls, g: Graph) -> "HostGraph":
        return cls(g.n, g.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjsets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges())

    def __eq__(self, other):
        if not isinstance(other, HostGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"HostGraph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (HostGraph, (self.n, tuple(self.edges())))


# === plan compilation ===


class _Node:
    """One op of a plan over the tables of its child nodes, with what its
    table counts in pattern labels: `slots`, the pattern vertex at each
    key slot, and `adds`, for an introduce its new pattern vertex
    followed by the pattern vertices it is joined to (empty otherwise).
    `size` is the length of the keys of the node's table.  Nodes hash
    and compare by identity.
    """

    __slots__ = ("op", "kids", "slots", "adds", "size")

    def __init__(self, op: tuple, kids: tuple["_Node", ...],
                 slots: tuple[int, ...], adds: tuple[int, ...]):
        self.op, self.kids, self.slots, self.adds = op, kids, slots, adds
        self.size = len(slots)


class _Pending:
    """A bucket's top op before it is sealed into a node: the op without
    its keep, its child nodes, the slots of its full key, the keep, the
    pattern vertex of each kept slot and the op's `adds`.  A later bucket
    may still forget more slots in it."""

    __slots__ = ("op", "kids", "full", "keep", "slots", "adds")

    def __init__(self, op: tuple, kids: tuple[_Node, ...],
                 full: tuple[int, ...], adds: tuple[int, ...] = ()):
        self.op, self.kids, self.full, self.adds = op, kids, full, adds
        self.keep, self.slots = None, full

    def seal(self) -> _Node:
        return _Node(self.op + (self.keep,), self.kids, self.slots, self.adds)

    def forget(self, v: int) -> None:
        kept = range(len(self.full)) if self.keep is None else self.keep
        self.keep = tuple(s for s in kept if self.full[s] != v)
        self.slots = tuple(self.full[s] for s in self.keep)


def _reaches(pattern: Graph, have: Iterable[int], bag: set[int]) -> bool:
    """Whether every vertex of the bag can be introduced next to a pattern
    neighbour already in a table whose slots are `have`."""
    seen = set(have)
    todo = list(seen)
    while todo:
        for u in pattern.neighbors(todo.pop()):
            if u in bag and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(bag)


def _compile_buckets(pattern: Graph, order: Sequence[int],
                     anchored: bool) -> _Node:
    """Compile a pattern by bucket elimination along `order`, a
    permutation of its vertices; returns the root of its plan, a tree of
    fresh nodes.

    Tables map assignment tuples, in sorted slot order, to counts.  The
    bucket of v holds the messages (the tables of earlier buckets) whose
    slots hold v, plus v's edges to later vertices.  It starts from its
    largest message, preferring one from which every missing vertex can
    be introduced next to a pattern neighbour, or from the leaf ("leaf",)
    with v introduced.  Then it joins each message whose slots are a
    subset of its own, ("join", sub, keep) with `sub` the message's slot
    positions in its key (None when equal), and otherwise introduces a
    missing vertex, one with a pattern neighbour in the table first:
    ("intro", ins, nbrs, keep) puts each candidate image at slot `ins`,
    any host vertex without `nbrs`, else the common host neighbours of
    the images at slots `nbrs`.  The bucket's last op sums v out, as a
    projection `keep` to the slots that stay (None when none is
    dropped); a bucket with nothing else to do sums v out in its
    message's top op.  The table goes to the bucket of its first
    eliminated slot, or, once no slot is left (a connected component has
    ended), to the last vertex's bucket, which joins it as a subset.
    With `anchored`, the last vertex is not summed out, so the root's key
    is its image.  The empty pattern's plan is the leaf.
    """
    if not order:
        return _Node(("leaf",), (), (), ())
    last = order[-1]
    pos = {v: i for i, v in enumerate(order)}
    inbox: dict[int, list[_Pending]] = {v: [] for v in order}
    for v in order:
        msgs = inbox.pop(v)
        bag = {v}.union(*(m.slots for m in msgs),
                        (u for u in pattern.neighbors(v) if pos[u] > pos[v]))
        if msgs:
            cur = min(msgs, key=lambda m: (not _reaches(pattern, m.slots, bag),
                                           -len(m.slots)))
            msgs.remove(cur)
        else:
            cur = _Pending(("intro", 0, ()), (_Node(("leaf",), (), (), ()),),
                           (v,), (v,))
        while msgs or len(cur.slots) < len(bag):
            have = cur.slots
            m = next((m for m in msgs if set(have).issuperset(m.slots)), None)
            if m is not None:
                msgs.remove(m)
                sub = tuple(map(have.index, m.slots))
                cur = _Pending(
                    ("join", None if sub == tuple(range(len(have))) else sub),
                    (cur.seal(), m.seal()), have)
                continue
            rest = sorted(bag.difference(have))
            u = next((u for u in rest
                      if not pattern.neighbors(u).isdisjoint(have)), rest[0])
            full = tuple(sorted(have + (u,)))
            nbrs = tuple(s for s, x in enumerate(have)
                         if x in pattern.neighbors(u))
            cur = _Pending(("intro", full.index(u), nbrs), (cur.seal(),), full,
                           (u, *(have[s] for s in nbrs)))
        if anchored and v == last:
            break
        cur.forget(v)
        if v != last:
            first = min(cur.slots, key=pos.__getitem__, default=last)
            inbox[first].append(cur)
    return cur.seal()


# === the row program ===


def _post_order(root: _Node, kids) -> Iterator[_Node]:
    """The nodes under root, each after those `kids` lists for it."""
    todo = [(root, False)]
    while todo:
        node, done = todo.pop()
        if done:
            yield node
        else:
            todo.append((node, True))
            todo.extend((kid, False) for kid in reversed(kids(node)))


def _meanings(root: _Node, known: dict) -> dict[_Node, tuple]:
    """Each node under root, a tree, mapped to its meaning (size, n,
    edges): the partial pattern whose homomorphism counts the node's
    table holds, on vertices 0..n-1 with the key's slots first, in key
    order, and the summed-out vertices after them, canonically labelled
    (`graphs.slot_canonical_edges`).  Nodes with equal meanings hold
    equal tables on every host.  The pattern is what the introduces of
    the node's sub-plan add, in pattern labels; `known` maps each such
    labelled pattern (slots, vertices, edges) to its meaning, so one met
    again costs no search.
    """
    parts: dict[_Node, tuple] = {}
    out: dict[_Node, tuple] = {}
    for node in _post_order(root, lambda x: x.kids):
        verts, edges = set(), set()
        for kid in node.kids:
            verts.update(parts[kid][1])
            edges.update(parts[kid][2])
        if node.adds:
            u, *nbrs = node.adds
            verts.add(u)
            edges.update((u, w) if u < w else (w, u) for w in nbrs)
        parts[node] = key = (node.slots, frozenset(verts), frozenset(edges))
        if key not in known:
            at = {v: i for i, v in enumerate(
                [*node.slots, *verts.difference(node.slots)])}
            known[key] = (node.size, len(at), slot_canonical_edges(
                len(at), [(at[u], at[w]) for u, w in edges], node.size))
        out[node] = known[key]
    return out


def _novelty(root: _Node, held: set, known: dict) -> tuple:
    """How much root's plan adds to a row whose tables have the meanings
    `held`: the key sizes of its tables with other meanings, one per
    meaning, largest first, then their edges.  Compared as tuples, fewer
    3-slot tables win, then fewer 2-slot, then fewer 1-slot, then fewer
    edges: a table over fewer edges is a sub-plan more of the row's
    smaller terms can share.
    """
    new = {m for m in _meanings(root, known).values()
           if m[0] and m not in held}
    return (sorted((m[0] for m in new), reverse=True),
            sum(len(m[2]) for m in new))


def _choose(pattern: Graph, anchor: Optional[int], held: set,
            known: dict) -> _Node:
    """The root of the pattern's plan, along a width-optimal elimination
    order chosen for a row whose tables so far have the meanings `held`.

    Each connected component's order is built from its end, the anchor
    when it holds it.  Where more than one vertex can come next, each is
    tried: the order is completed as the DP's own order goes, and the
    component is compiled along it and scored by `_novelty`.  The best
    goes next, the DP's own pick on a tie, so the chosen order never
    scores worse than the DP's, costs at most n^2 compiles for n
    vertices, and a component with one optimal order is never scored.
    Only the previous step's winner can complete again, so its score and
    root are kept, every other candidate plan is dropped once scored, and
    a connected pattern's plan is its last winner, not a new compile.
    """
    last = None  # (order, score, root) of the latest step's winner
    order: list[int] = []
    for comp in optimal_orders(pattern, anchor):
        suffix: list[int] = []
        while len(suffix) < len(comp.vertices):
            options = comp.options(suffix)
            if len(options) > 1:
                best = None
                for v in options:
                    tried = tuple(comp.complete([v, *suffix]))
                    if last is not None and last[0] == tried:
                        cand = last
                    else:
                        root = _compile_buckets(pattern, tried, comp.anchored)
                        cand = (tried, _novelty(root, held, known), root)
                    if best is None or cand[1] < best[1]:
                        best, pick = cand, v
                last, options = best, [pick]
            suffix.insert(0, options[0])
        order += suffix
    if last is not None and last[0] == tuple(order):
        return last[2]
    return _compile_buckets(pattern, order, anchor is not None)


def _representatives(roots: Sequence[_Node],
                     known: Optional[dict] = None) -> dict[_Node, _Node]:
    """Each node reachable from `roots` mapped to its representative: the
    first node with its meaning in post-order over the roots in row
    order, so the choice depends on the row alone.  `known` is as for
    `_meanings`."""
    known = {} if known is None else known
    reps: dict[_Node, _Node] = {}
    first: dict[tuple, _Node] = {}
    for root in roots:
        if root not in reps:  # else a root met again (a term listed twice)
            for node, m in _meanings(root, known).items():
                reps[node] = first.setdefault(m, node)
    return reps


def _layout(names: Sequence, roots: Sequence[_Node],
            known: Optional[dict] = None) -> tuple[int, tuple]:
    """The program of a row of roots: the number of cells a host's run
    needs, and, for each root in row order, (name, root, steps, cell,
    drop), `name` being what a count checks the cursor is at.

    A root's steps compute, in post-order, each representative the row
    asks for there for the first time, after its children's; `cell` then
    holds the root's table.  A step (op, arity, ins, out, clear) runs the
    kernel of `op` over cells `ins` (a leaf has none and makes {(): 1})
    into cell `out`, then empties the cells it was the row's last read
    of, and `drop` lists those of the root's own read.
    """
    reps = _representatives(roots, known)
    cell: dict[_Node, int] = {}  # representative -> its cell
    last: dict[int, list] = {}  # cell -> the clear list of its last read
    segments = []
    for name, root in zip(names, roots):
        steps = []
        for rep in _post_order(reps[root], lambda x: () if x in cell else
                               tuple(reps[kid] for kid in x.kids)):
            if rep not in cell:
                ins = tuple(cell[reps[kid]] for kid in rep.kids)
                clear: list[int] = []
                last.update(dict.fromkeys(ins, clear))
                cell[rep] = len(cell)
                steps.append((rep.op, rep.kids[0].size if ins else 0, ins,
                              cell[rep], clear))
        out = cell[reps[root]]
        drop = last[out] = []
        segments.append((name, root, steps, out, drop))
    for c, clear in last.items():
        clear.append(c)
    return len(cell), tuple(segments)


@lru_cache(maxsize=1024)
def _program(terms: tuple[PatternLike, ...]) -> tuple[int, tuple]:
    """The row program of `terms` (see `_layout`), each segment named by
    its term.  Plans are chosen for the row by `_choose`, largest term
    first (reverse row order), each against the tables of the plans
    chosen before it; a term listed twice gets one plan.  The cache
    holds many rows because a pattern counted alone is a row of one: a
    caller counting more patterns one by one, host after host, than it
    holds would compile each again on every call."""
    held: set = set()
    known: dict = {}
    plans: dict[PatternLike, _Node] = {}
    for t in reversed(terms):
        if t not in plans:
            plans[t] = root = (_choose(t.graph, t.anchor, held, known)
                               if isinstance(t, AnchoredGraph)
                               else _choose(t, None, held, known))
            held.update(_meanings(root, known).values())
    return _layout(terms, [plans[t] for t in terms], known)


def _store(terms: Iterable[PatternLike]) -> tuple[Iterator[tuple], list]:
    """A host's run of the terms' row program: a cursor, empty cells."""
    size, segments = _program(tuple(terms))
    return iter(segments), [None] * size


# === plan execution ===


def _tuple(names: Iterable[str]) -> str:
    """Source of a tuple display of the given names."""
    return "(" + "".join(f"{x}, " for x in names) + ")"


def _dense(kept: list[str], loop: list[str], value: str) -> list[str]:
    """Source of a summing kernel's dense body: `loop`, the kernel's
    clauses, summing `value` into Python ints for the names of its 0, 1
    or 2 kept slots.  No kept slot sums into one scalar, one into a list
    of n, and two into one list of n per value of the row slot, made on
    first use, indexed by the other: the new vertex w when it is kept,
    so the row lookup sits outside the loop over candidates, else the
    last kept slot.  Only non-zero cells are emitted, found by C-level
    scans, under keys in sorted slot order.
    """
    ind = "    " * len(loop)
    if not kept:
        return (["acc = 0"] + loop + [f"{ind}acc += {value}",
                                      "return {(): acc} if acc else {}"])
    if len(kept) == 1:
        return (["r = [0] * n"] + loop + [
            f"{ind}r[{kept[0]}] += {value}",
            "return dict(zip(zip(compress(range(n), r)), filter(None, r)))"])
    idx = "w" if "w" in kept else kept[1]
    row = kept[0] if idx == kept[1] else kept[1]
    at = 1 if idx == "w" else len(loop)
    keys = ("zip(repeat(a), compress(range(n), r))" if kept[0] == row
            else "zip(compress(range(n), r), repeat(a))")
    return (["rows = [None] * n"] + loop[:at]
            + ["    " * at + f"if (r := rows[{row}]) is None:",
               "    " * at + f"    r = rows[{row}] = [0] * n"]
            + loop[at:] + [f"{ind}r[{idx}] += {value}", "out = {}",
                           "for a, r in enumerate(rows):",
                           "    if r is not None:",
                           f"        out.update(zip({keys}, filter(None, r)))",
                           "return out"])


@lru_cache(maxsize=None)
def _kernel(op: tuple, arity: int):
    """The op's loop, specialised to its signature: the op and the key
    length of its child tables.  Called as kernel(*child tables, host).

    Compiled on the first run of a node with this signature.  The source
    is the template text below and the op's slots and arity, each first
    checked to be a non-negative int (slot lists must be tuples).  A
    kernel whose output keys are distinct is one dict comprehension; any
    other sums into its keys.  An introduce over a 2-slot table that
    keeps at most its new slot, both old slots being its neighbours,
    can instead pull: for each host vertex w, sum the table over pairs
    of w's neighbours.  That costs sum(deg^2) lookups against the push
    loop's one intersection per entry, so it runs only when the host's
    sum(deg^2) is below 3 entries per table entry.

    Two kinds of summing kernel use `_dense`.  One that keeps no slot
    sums into one scalar.  An introduce that keeps 1 or 2 slots first
    tries a list of n, or one per row, indexed by host vertex, and emits
    the non-zero cells; it does so only when its cells (n or n*n) are at
    most DENSE_CELLS_PER_ENTRY times the entries of t0, and otherwise
    sums into a dict.  The guard is needed: on a uniform random host
    with n = 3,000 and m = 6,000, one count of the sparse-large terms
    (C5 and P5, sub) took 1.75 s unguarded, 0.27 s with dicts alone and
    0.26 s guarded, with peak RSS 137, 63 and 63 MB (medians of 5 fresh
    processes on a 2-vCPU VM).  The bound is 4 because replaying every
    kernel run of a pass gave the same, fastest, time for 3, 4 and 5: at
    6 and above the 100-entry edge tables of 23-vertex hosts (5.3 cells
    per entry) go dense and run slower than a dict, and at 2 the
    17,626-entry walk of sparse-large (3.5 cells per entry) stays a
    dict.  A summing join that keeps a slot uses a dict only:
    sparse-large runs none.
    """
    kind, *fields = op
    # an introduce leads with `ins`; both kinds end in two slot tuples
    lead, tups = fields[:kind == "intro"], fields[kind == "intro":]
    ints = [arity, *lead] + [x for t in tups if type(t) is tuple for x in t]
    if (kind not in ("intro", "join") or len(tups) != 2
            or any(t is not None and type(t) is not tuple for t in tups)
            or any(type(x) is not int or x < 0 for x in ints)):
        raise TypeError(f"no kernel for op {op!r} over arity {arity!r}")
    keep = fields[-1]
    xs = [f"x{s}" for s in range(arity)]
    if kind == "join":
        sub = fields[0]
        args, value = "t0, t1, host", "cnt * c2"
        if sub is None:  # equal slots: iterate the smaller table
            pre = ["if len(t1) < len(t0):", "    t0, t1 = t1, t0",
                   "get1 = t1.get"]
            heads = ["for key, cnt in t0.items()",
                     "if (c2 := get1(key)) is not None"]
            whole, slots = "key", [f"key[{s}]" for s in range(arity)]
        else:  # t1's slots are the positions `sub` of t0's key
            pre = ["get1 = t1.get"]
            heads = [f"for {_tuple(xs)}, cnt in t0.items()",
                     f"if (c2 := get1({_tuple(xs[s] for s in sub)}))"
                     " is not None"]
            whole, slots = _tuple(xs), xs
        distinct = keep is None
    else:
        ins, nbrs = fields[:2]
        pre = ["n, adj, adjsets = host.n, host._adj, host._adjsets"]
        args = "t0, host"
        slots = xs[:ins] + ["w"] + xs[ins:]
        whole = _tuple(slots)
        if arity == 2 and nbrs == (0, 1) and keep in ((ins,), ()):
            pull = "sum(map(get0, product(a, a), repeat(0)))"
            table = (f"{{(w, ): s for w, a in enumerate(adj)"
                     f" if (s := {pull})}}" if keep else
                     f"{{(): s}} if (s := sum({pull} for a in adj)) else {{}}")
            pre += ["if host._sq < 3 * len(t0):", "    get0 = t0.get",
                    f"    return {table}"]
        sets = [f"adjsets[x{p}]" for p in nbrs]
        cands = ("range(n)" if not sets else f"adj[x{nbrs[0]}]"
                 if len(sets) == 1 else " & ".join(sets) if len(sets) == 2
                 else f"{sets[0]}.intersection({', '.join(sets[1:])})")
        head = f"for {_tuple(xs)}, cnt in t0.items()"
        if keep is None or ins in keep:
            heads, value = [head, f"for w in {cands}"], "cnt"
        else:  # the new slot is forgotten: scale by its candidate count
            size = f"len({cands})" if sets else "n"
            heads, value = [head, f"if (m := {size})"], "cnt * m"
        distinct = keep is None or (ins not in keep and len(keep) == arity)
    key = whole if keep is None else _tuple(slots[s] for s in keep)
    # one indented block per comprehension clause
    loop = ["    " * i + f"{h}:" for i, h in enumerate(heads)]
    kept = [] if keep is None else [slots[s] for s in keep]
    if distinct:
        body = [f"return {{{key}: {value} {' '.join(heads)}}}"]
    elif not kept:  # one scalar: the dense body alone
        body = _dense(kept, loop, value)
    else:
        ind = "    " * len(heads)
        body = (["out = {}", "get = out.get"] + loop
                + [f"{ind}nk = {key}", f"{ind}out[nk] = get(nk, 0) + {value}",
                   "return out"])
        if kind == "intro" and len(kept) <= 2:  # the dense body first
            cells = " * ".join(["n"] * len(kept))
            body = [f"if {cells} <= {DENSE_CELLS_PER_ENTRY} * len(t0):"] + [
                "    " + line for line in _dense(kept, loop, value)] + body
    src = "\n    ".join([f"def kernel({args}):"] + pre + body)
    env: dict = {"product": product, "repeat": repeat, "compress": compress}
    exec(compile(src, f"<{kind} kernel>", "exec"), env)
    return env["kernel"]


def _run_plan(name, host: HostGraph, store: Optional[tuple] = None) -> dict:
    """The table (assignment tuple -> count) of the store's next root on a
    host, its steps run as one loop; `name` must be what the program
    names that root.  Without a store, `name` is a plan's root, run as a
    row of one.
    """
    if store is None:
        size, segments = _layout((name,), (name,))
        store = iter(segments), [None] * size
    segments, cells = store
    at, _, steps, out, drop = next(segments, (None,) * 5)
    if at is not name and at != name:
        raise ValueError("not the next term of the store's row program")
    for op, arity, ins, dst, clear in steps:
        cells[dst] = (_kernel(op, arity)(*[cells[i] for i in ins], host)
                      if ins else {(): 1})
        for i in clear:
            cells[i] = None
    table = cells[out]
    for i in drop:
        cells[i] = None
    return table


# === counting ===


def hom_count(pattern: Graph, host: HostGraph,
              store: Optional[tuple] = None) -> int:
    """Exact number of homomorphisms pattern -> host.

    No resource guard here; callers protect themselves with
    check_width_guard.  A store, one host's run of a row program
    (term_counts_for_host passes one), shares sub-plan tables between
    the row's terms, which must go through it in row order (ValueError).
    Without one, the pattern is a row of one.
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("use hom_count_node for anchored patterns")
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    return _run_plan(pattern, host, store or _store((pattern,))).get((), 0)


def hom_count_node(pattern: AnchoredGraph, host: HostGraph,
                   store: Optional[tuple] = None) -> tuple[int, ...]:
    """Homomorphism counts indexed by the image of the anchor.

    Entry v counts homomorphisms sending the anchor to host vertex v, so
    the entries sum to hom_count of the underlying pattern.  The store is
    as for hom_count.
    """
    if not isinstance(pattern, AnchoredGraph):
        raise TypeError("hom_count_node needs an AnchoredGraph")
    table = _run_plan(pattern, host, store or _store((pattern,)))
    return tuple(map(table.get, zip(range(host.n)), repeat(0)))


# the width of a pattern's compiled plan: every order a row compiles has
# the width of the DP's own
plan_width = pattern_treewidth


def check_width_guard(pattern: PatternLike, host_n: int,
                      allow_wide: bool = False) -> None:
    """Refuse wide plans against very large hosts.

    Raises WidthGuardError when width+1 > 5 and the host has more than
    10^5 vertices, unless allow_wide is set.  Table size grows like
    n^(width+1); this must fail loudly instead of thrashing.
    """
    if allow_wide or host_n <= WIDTH_GUARD_HOST_VERTICES:
        return
    w = plan_width(pattern)
    if w + 1 > WIDTH_GUARD_WIDTH:
        raise WidthGuardError(
            f"plan width {w} (table degree {w + 1}) over a host with"
            f" {host_n} vertices; pass allow_wide to override"
        )


# === evaluation of linear combinations ===


def _hom_level(params: Sequence[LinearCombination],
               level: Optional[str] = None) -> str:
    """The level shared by all params, which must be Hom-basis
    combinations; when `level` is given every param must be at it."""
    for c in params:
        if c.basis_kind != HOM_BASIS:
            raise ValueError(
                f"evaluation needs Hom-basis combinations, got {c.basis_kind};"
                " convert first")
        level = level or c.level
        if c.level != level:
            raise ValueError(
                f"parameter level {c.level!r} does not match {level!r}")
    return level or GRAPH_LEVEL


def _combine(counts: Sequence, refs: Sequence[Sequence[tuple[int, Fraction]]],
             level: str, n: int) -> list:
    """Sum of coefficient x hom count per parameter, over one host.

    `counts` holds one entry per term (an int at graph level, a tuple over
    the host's n vertices at node level); `refs` lists (term index,
    coefficient) pairs per parameter.  Returns a Fraction per parameter,
    or at node level a tuple of n Fractions.  Node-level sums run over
    integer numerators on the parameter's common denominator, so only
    the final value per vertex is a Fraction.
    """
    if level == GRAPH_LEVEL:
        return [sum((coeff * counts[i] for i, coeff in ref), Fraction(0))
                for ref in refs]
    out = []
    for ref in refs:
        den = lcm(*(coeff.denominator for _, coeff in ref))
        acc = [0] * n
        for i, coeff in ref:
            num = coeff.numerator * (den // coeff.denominator)
            acc = [a + num * cnt for a, cnt in zip(acc, counts[i])]
        out.append(tuple(Fraction(a, den) for a in acc))
    return out


def evaluate(c: LinearCombination, host: HostGraph) -> Fraction:
    """Exact value of a graph-level Hom-basis combination on a host."""
    _hom_level([c], GRAPH_LEVEL)
    return next(batch_evaluate([c], [host], allow_wide=True))[0]


def evaluate_node(c: LinearCombination, host: HostGraph) -> list[Fraction]:
    """Per-vertex values of a node-level Hom-basis combination."""
    _hom_level([c], NODE_LEVEL)
    return list(next(batch_evaluate([c], [host], allow_wide=True))[0])


# === batch evaluation ===


@dataclass(frozen=True)
class CountFailure:
    """Per-host failure row; the batch keeps streaming past it."""

    message: str


def dedupe_terms(
    params: Sequence[LinearCombination],
) -> tuple[list[PatternLike], list[list[tuple[int, Fraction]]]]:
    """Shared term list across params, plus per-param (index, coeff) refs.

    Term order is the global (vertex count, edge count, canonical key)
    order, which fixes column order for every downstream consumer.
    """
    by_key: dict[str, BasisTerm] = {}
    for c in params:
        for t in c.terms:
            by_key.setdefault(canonical_key(t.graph), t)
    terms = sorted(by_key.values(), key=term_sort_key)
    index = {canonical_key(t.graph): i for i, t in enumerate(terms)}
    refs = [
        [(index[canonical_key(t.graph)], t.coefficient) for t in c.terms]
        for c in params
    ]
    return [t.graph for t in terms], refs


def term_counts_for_host(terms: Sequence[PatternLike], host: HostGraph,
                         allow_wide: bool = False) -> list:
    """Counts of every term on one host; ints or per-vertex tuples.

    Terms are counted in order, each through hom_count or hom_count_node,
    with one run of the row's program as the store: a sub-plan that
    several terms' plans contain is computed once on this host.
    """
    store = _store(terms)
    row = []
    for t in terms:
        check_width_guard(t, host.n, allow_wide)
        if isinstance(t, AnchoredGraph):
            row.append(hom_count_node(t, host, store))
        else:
            row.append(hom_count(t, host, store))
    return row


def _count_row(terms: Sequence[PatternLike], host: HostGraph,
               allow_wide: bool):
    try:
        return host.n, term_counts_for_host(terms, host, allow_wide)
    except WidthGuardError as e:  # the one limit that depends on the host
        return host.n, CountFailure(str(e))


def batch_term_counts(terms: Sequence[PatternLike],
                      hosts: Iterable[HostGraph], jobs: int = 1,
                      allow_wide: bool = False) -> Iterator:
    """Stream of (host vertex count, term-count row) pairs, in host order.

    The row is a CountFailure when the host tripped the width guard; the
    stream keeps going.  Limits that depend on the terms alone, such as
    the treewidth limit, raise LimitError.  Results are identical for
    every jobs value; workers only fan out the per-host work.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    count = partial(_count_row, terms, allow_wide=allow_wide)
    if jobs == 1:
        yield from map(count, hosts)
        return
    import multiprocessing as mp

    with mp.get_context().Pool(jobs) as pool:
        yield from pool.imap(count, hosts, chunksize=16)


def batch_evaluate(params: Sequence[LinearCombination],
                   hosts: Iterable[HostGraph], jobs: int = 1,
                   allow_wide: bool = False) -> Iterator:
    """One value row per host: exact per-param values in params order.

    Graph-level rows hold Fractions; node-level rows hold per-vertex
    Fraction tuples.  Term counts shared between params are computed once
    per host.  Failures appear as CountFailure rows in position.
    """
    level = _hom_level(params)
    terms, refs = dedupe_terms(params)
    for host_n, counts in batch_term_counts(terms, hosts, jobs, allow_wide):
        if isinstance(counts, CountFailure):
            yield counts
        else:
            yield _combine(counts, refs, level, host_n)
