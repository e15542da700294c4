"""Star edge-coloring: verifier and exact solver.

A star edge-coloring is a proper edge coloring in which no path or cycle
on four edges is bicolored.  Paths and cycles are vertex-simple: a
four-edge path visits five distinct vertices, a four-edge cycle visits
four.  Parallel edges are distinct edges, so they offer alternative edge
choices along a path but never let a vertex repeat.

Under a proper coloring the union of two color classes has maximum degree
two, so its components are paths and cycles; the coloring is a star
coloring exactly when every such component has at most three edges.  The
solver prunes with that fact, walking the alternating component through
the edge it just colored; the public verifier walks every such component
of a finished (or partial) coloring.

The solver colors each component's edges in one fixed order, computed
once per graph and kept for every palette size: rooted at the vertex
whose radius-two ball has the most independent cycles, and closing every
cycle as soon as both its ends are reached (fail-first ordering, Haralick
and Elliott 1980).  A proof that k colors fail then meets the densest
part of the graph first, instead of re-proving it under every coloring of
the edges far away from it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

from .multigraph import FormatError, Multigraph

SUBCUBIC_COLOR_CAP = 7  # no subcubic multigraph needs more colors than this


@dataclass(frozen=True, slots=True)
class EdgeColoring:
    """Palette size ``k`` plus a (possibly partial) edge-id -> color map.

    Colors are integers in ``1..k``.  Instances are read-only; the map is
    stored as a read-only view of a private copy, so they are neither
    hashable nor picklable.
    """

    k: int
    assignment: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        k = self.k
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"palette size must be a nonnegative integer, got {k!r}")
        colors = dict(self.assignment)
        for eid, c in colors.items():
            if not isinstance(eid, int) or eid < 0:
                raise ValueError(f"edge id {eid!r} is not a nonnegative integer")
            if not isinstance(c, int) or not 1 <= c <= k:
                raise ValueError(f"color {c!r} for edge {eid} outside 1..{k}")
        object.__setattr__(self, "assignment", MappingProxyType(colors))

    def color(self, edge_id: int) -> int | None:
        return self.assignment.get(edge_id)

    def is_total(self, m: int) -> bool:
        return all(e in self.assignment for e in range(m))


def parse_coloring(text: str) -> EdgeColoring:
    """Parse ``edge-id color`` lines; ``#`` starts a comment.  The palette
    size is the largest color present."""
    assignment: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'edge-id color'")
        try:
            eid, c = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: fields are not integers") from None
        if eid in assignment:
            raise FormatError(f"line {lineno}: duplicate edge id {eid}")
        assignment[eid] = c
    k = max(assignment.values(), default=0)
    try:
        return EdgeColoring(k, assignment)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_coloring(coloring: EdgeColoring) -> str:
    lines = [f"{eid} {c}" for eid, c in sorted(coloring.assignment.items())]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Violation:
    """Witness against star-validity.

    ``kind`` is ``improper`` (two adjacent edges share a color, witness of
    two edge ids), ``bicolored-path`` (four edge ids along a path on five
    distinct vertices carrying exactly two colors) or ``bicolored-cycle``
    (four edge ids around a cycle on four distinct vertices, two colors).
    """

    kind: str
    edge_ids: tuple[int, ...]


def _alternating_walk(
    g: Multigraph, at: list[dict[int, int]], v: int, c: int, x: int, y: int
) -> tuple[list[int], list[int]]:
    """Vertices and edges met leaving ``v`` along color ``c`` and then
    alternating colors ``x`` and ``y``, until the walk ends or is back at
    ``v``.  ``at[u][color]`` is the edge of that color at ``u``."""
    vertices, edges = [v], []
    eid = at[v].get(c)
    while eid is not None:
        edges.append(eid)
        v = g.other_end(eid, v)
        if v == vertices[0]:
            break
        vertices.append(v)
        c = x + y - c
        eid = at[v].get(c)
    return vertices, edges


def _listed_from(
    g: Multigraph, at: list[dict[int, int]], v: int, x: int, y: int
) -> Violation:
    """The component of colors ``x`` and ``y`` through its least vertex
    ``v``, which has four or more edges, as a violation."""
    # leave v along the smaller edge id
    lead = x if at[v].get(x, g.m) < at[v].get(y, g.m) else y
    ahead, edges = _alternating_walk(g, at, v, lead, x, y)
    if len(ahead) == len(edges) == 4:
        return Violation("bicolored-cycle", tuple(edges))
    if len(ahead) > len(edges):  # a path: list it from its smaller end
        behind, back = _alternating_walk(g, at, v, x + y - lead, x, y)
        if behind[-1] < ahead[-1]:
            edges = back[::-1] + edges
        else:
            edges = edges[::-1] + back
    return Violation("bicolored-path", tuple(edges[:4]))


def find_violation(g: Multigraph, coloring: EdgeColoring) -> Violation | None:
    """First violation, or None.

    One pass over the vertices, each in adjacency order, fills a table of
    the edge of each color at each vertex; a second edge of a color at a
    vertex is an improper pair, reported earlier edge first.  Then, for
    each pair of colors x < y that meet at some vertex, in ascending
    order, the components of their union are walked through the table
    from the vertices where x and y meet (every component of two or more
    edges has one).  Of those with four or more edges, the one with the
    least smallest vertex is the witness, listed from that vertex: a
    4-cycle is a ``bicolored-cycle`` listed from its least vertex along
    the smaller edge id there; a path is a ``bicolored-path`` of its
    first four edges from its smaller end; a longer cycle is a
    ``bicolored-path`` of the first four edges of its listing.  Uncolored
    edges are ignored, so partial colorings are judged on their colored
    structures only.
    """
    for eid in coloring.assignment:
        if eid >= g.m:
            raise ValueError(f"edge id {eid} out of range for {g.m} edges")
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for v in range(g.n):
        for _, eid in g.adjacency[v]:
            c = coloring.color(eid)
            if c is None:
                continue
            first = at[v].setdefault(c, eid)
            if first != eid:
                return Violation("improper", (first, eid))
    meets: dict[tuple[int, int], list[int]] = {}
    for v, here in enumerate(at):
        for pair in combinations(sorted(here), 2):
            meets.setdefault(pair, []).append(v)
    for x, y in sorted(meets):
        seen: set[int] = set()
        least = g.n  # least vertex of a component with four or more edges
        for v in meets[x, y]:
            if v in seen:
                continue
            ahead, edges = _alternating_walk(g, at, v, x, x, y)
            if len(ahead) > len(edges):  # not a cycle: walk the other way too
                behind, back = _alternating_walk(g, at, v, y, x, y)
                ahead += behind
                edges += back
            seen.update(ahead)
            if len(edges) >= 4:
                least = min(least, *ahead)
        if least < g.n:
            return _listed_from(g, at, least, x, y)
    return None


def is_star_coloring(g: Multigraph, coloring: EdgeColoring) -> bool:
    """True iff the total coloring is proper with no bicolored four-edge
    path or cycle.  Partial colorings are rejected."""
    if not coloring.is_total(g.m):
        raise ValueError("coloring is partial; every edge needs a color")
    return find_violation(g, coloring) is None


# ----------------------------------------------------------------------
# exact solver
# ----------------------------------------------------------------------

def _ball_cycle_rank(g: Multigraph, v: int) -> int:
    """Cycle rank (edges - vertices + 1) of the subgraph induced by the
    vertices within distance two of ``v``."""
    adjacency = g.adjacency
    ball = {v}
    for u, _ in adjacency[v]:
        ball.add(u)
        ball.update(w for w, _ in adjacency[u])
    ends = sum(1 for w in ball for u, _ in adjacency[w] if u in ball)
    return ends // 2 - len(ball) + 1


def _cycle_first_order(g: Multigraph, component: tuple[int, ...]) -> list[int]:
    """Edges of the component ordered so each one touches an earlier edge,
    closing cycles as early as possible.

    The root is the vertex whose radius-two ball has the largest cycle
    rank, then the largest degree, then the least index.  From there the
    order is breadth-first, except that an edge whose ends are both
    reached (it closes a cycle) is listed as soon as its second end is,
    before any edge that reaches a new vertex.  Linear in the component's
    size, since every degree is at most 3.
    """
    adjacency = g.adjacency
    root = max(component, key=lambda v: (_ball_cycle_rank(g, v), len(adjacency[v]), -v))
    reached = {root}
    listed: set[int] = set()
    order: list[int] = []
    frontier = [(eid, u) for u, eid in adjacency[root]]
    head = 0
    while head < len(frontier):
        eid, v = frontier[head]
        head += 1
        if eid in listed:  # it closed a cycle when v was reached
            continue
        listed.add(eid)
        order.append(eid)
        reached.add(v)
        for u, e in adjacency[v]:
            if e in listed:
                continue
            if u in reached:
                listed.add(e)
                order.append(e)
            else:
                frontier.append((e, u))
    return order


def _edge_orders(g: Multigraph) -> list[list[int]]:
    """The search order of every component that has edges."""
    return [_cycle_first_order(g, c) for c in g.components() if len(c) > 1]


def _solve_component(
    g: Multigraph, order: list[int], k: int
) -> tuple[dict[int, int] | None, int]:
    """Backtracking search for a star k-coloring of the edges in ``order``,
    and the number of color placements it tried.

    Uses a fresh color only when all smaller ones are in use (palette
    symmetry breaking), and after each assignment walks the two-color
    component through the new edge: four or more edges there means a
    bicolored path or cycle, so the branch dies.  The stack is explicit,
    so long sparse graphs cannot hit the interpreter recursion limit.

    State: vcolor[v][c] is the edge id colored c at v (or -1), usedmask[v]
    the bitmask of colors present at v.  Properness is enforced by the
    masks, so every two-color union has maximum degree 2 and the component
    through an edge is a single path or cycle walkable via vcolor.
    """
    endpoints = g.edges
    other_end = g.other_end
    vcolor = [[-1] * (k + 1) for _ in range(g.n)]
    usedmask = [0] * g.n

    def component_small(eid: int, u: int, w: int, x: int, y: int) -> bool:
        size = 1
        for start in (u, w):
            v, want = start, y
            while True:
                ne = vcolor[v][want]
                if ne < 0:
                    break
                if ne == eid:
                    return True  # wrapped around a cycle of size < 4
                size += 1
                if size >= 4:
                    return False
                v = other_end(ne, v)
                want = x if want == y else y
        return True

    total = len(order)
    color_at = [0] * total  # color currently placed at each position, 0 = none
    high = [0] * (total + 1)  # largest color in use before each position
    pos = 0
    tried = 0
    while 0 <= pos < total:
        eid = order[pos]
        u, w = endpoints[eid]
        prev = color_at[pos]
        if prev:
            bit = 1 << prev
            vcolor[u][prev] = -1
            vcolor[w][prev] = -1
            usedmask[u] ^= bit
            usedmask[w] ^= bit
        banned = usedmask[u] | usedmask[w]
        limit = high[pos] + 1 if high[pos] < k else k
        placed = 0
        for c in range(prev + 1, limit + 1):
            bit = 1 << c
            if banned & bit:
                continue
            tried += 1
            vcolor[u][c] = eid
            vcolor[w][c] = eid
            usedmask[u] |= bit
            usedmask[w] |= bit
            ok = True
            rest = banned
            while rest:
                low = rest & -rest
                rest ^= low
                if not component_small(eid, u, w, c, low.bit_length() - 1):
                    ok = False
                    break
            if ok:
                placed = c
                break
            vcolor[u][c] = -1
            vcolor[w][c] = -1
            usedmask[u] ^= bit
            usedmask[w] ^= bit
        if placed:
            color_at[pos] = placed
            high[pos + 1] = max(high[pos], placed)
            pos += 1
        else:
            color_at[pos] = 0
            pos -= 1
    if pos < 0:
        return None, tried
    return {order[i]: color_at[i] for i in range(total)}, tried


@dataclass(slots=True)
class _Search:
    """A graph's search state across palette sizes: each component's edge
    order, computed once, and the color placements tried so far."""

    orders: list[list[int]]
    nodes: int = 0


def is_star_k_colorable(
    g: Multigraph, k: int, search: _Search | None = None
) -> EdgeColoring | None:
    """A star k-edge-coloring certificate, or None when none exists.

    Components are solved independently; the palettes just overlap.
    ``search`` is the state :func:`star_chromatic_index` carries from one
    k to the next; without it the edge orders are derived here.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"palette size must be a nonnegative integer, got {k!r}")
    if search is None:
        search = _Search(_edge_orders(g))
    assignment: dict[int, int] = {}
    for order in search.orders:
        if k == 0:
            return None
        # symmetry breaking never opens more colors than there are edges,
        # so a larger palette changes neither the search nor the answer
        part, tried = _solve_component(g, order, min(k, len(order)))
        search.nodes += tried
        if part is None:
            return None
        assignment.update(part)
    return EdgeColoring(k, assignment)


def star_chromatic_index(
    g: Multigraph, max_k: int | None = None, stats: dict[int, int] | None = None
) -> tuple[int, EdgeColoring] | None:
    """Exact star chromatic index with a verifying certificate.

    Iterative deepening from ``max(Delta, 1)``; the search is capped at
    seven colors, which every subcubic multigraph admits, or at ``m``
    when that is smaller (a rainbow coloring is a star coloring).  With
    ``max_k`` the search tries no more than ``max_k`` colors and returns
    None when the index is larger.  Every k uses the same edge orders.
    A ``stats`` dict receives, for each k tried, the number of color
    placements the search tried.
    """
    if max_k is not None and (not isinstance(max_k, int) or max_k < 0):
        raise ValueError(f"max_k must be a nonnegative integer, got {max_k!r}")
    if g.m == 0:
        return 0, EdgeColoring(0)
    cap = min(SUBCUBIC_COLOR_CAP, g.m)
    top = cap if max_k is None else min(cap, max_k)
    search = _Search(_edge_orders(g))
    for k in range(max(g.max_degree, 1), top + 1):
        before = search.nodes
        cert = is_star_k_colorable(g, k, search)
        if stats is not None:
            stats[k] = search.nodes - before
        if cert is not None:
            return k, cert
    if top < cap:
        return None
    raise RuntimeError(
        f"no star coloring found up to {cap} colors; this contradicts the "
        "guaranteed bound and indicates a solver defect"
    )
