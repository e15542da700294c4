"""Star edge-coloring: verifier, exact solver, and criticality test.

A star edge-coloring is a proper edge coloring in which no path or cycle
on four edges is bicolored.  Paths and cycles are vertex-simple: a
four-edge path visits five distinct vertices, a four-edge cycle visits
four.  Parallel edges are distinct edges, so they offer alternative edge
choices along a path but never let a vertex repeat.

Under a proper coloring the union of two color classes has maximum degree
two, so its components are paths and cycles; the coloring is a star
coloring exactly when every such component has at most three edges.  The
solver prunes with that fact, walking the alternating component through
the edge it just colored.  The public verifier judges candidate
structures directly from the definition, which keeps the two routes
independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .multigraph import FormatError, Multigraph

SUBCUBIC_COLOR_CAP = 7  # no subcubic multigraph needs more colors than this


class EdgeColoring:
    """Palette size ``k`` plus a (possibly partial) edge-id -> color map.

    Colors are integers in ``1..k``.  Instances are read-only.
    """

    __slots__ = ("k", "assignment")

    def __init__(self, k: int, assignment=()):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"palette size must be a nonnegative integer, got {k!r}")
        colors = dict(assignment)
        for eid, c in colors.items():
            if not isinstance(eid, int) or eid < 0:
                raise ValueError(f"edge id {eid!r} is not a nonnegative integer")
            if not isinstance(c, int) or not 1 <= c <= k:
                raise ValueError(f"color {c!r} for edge {eid} outside 1..{k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "assignment", MappingProxyType(colors))

    def __setattr__(self, name, value):
        raise AttributeError("EdgeColoring is immutable")

    def color(self, edge_id: int) -> int | None:
        return self.assignment.get(edge_id)

    def is_total(self, m: int) -> bool:
        return all(e in self.assignment for e in range(m))

    def __eq__(self, other):
        return (
            isinstance(other, EdgeColoring)
            and self.k == other.k
            and dict(self.assignment) == dict(other.assignment)
        )

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.assignment.items()))
        return f"EdgeColoring(k={self.k}, {{{body}}})"


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


def _check_ids(g: Multigraph, coloring: EdgeColoring) -> None:
    for eid in coloring.assignment:
        if eid >= g.m:
            raise ValueError(f"edge id {eid} out of range for {g.m} edges")


def _improper_at(g: Multigraph, coloring: EdgeColoring, vertices) -> Violation | None:
    for v in vertices:
        seen: dict[int, int] = {}
        for _, eid in g.adjacency[v]:
            c = coloring.color(eid)
            if c is None:
                continue
            if c in seen and seen[c] != eid:
                return Violation("improper", (seen[c], eid))
            seen[c] = eid
    return None


def _pair_components(g: Multigraph, coloring: EdgeColoring, x: int, y: int) -> Violation | None:
    """Scan components of the {x, y}-colored subgraph; assumes the coloring
    is proper, so every component is a path or a cycle."""
    incident: dict[int, list[tuple[int, int]]] = {}
    for eid, (u, v) in enumerate(g.edges):
        if coloring.color(eid) in (x, y):
            incident.setdefault(u, []).append((v, eid))
            incident.setdefault(v, []).append((u, eid))
    seen_edges: set[int] = set()
    for start in sorted(incident):
        fresh = [eid for _, eid in incident[start] if eid not in seen_edges]
        if not fresh:
            continue
        # collect the component containing `start`
        comp_vertices = {start}
        stack = [start]
        comp_edges = set()
        while stack:
            v = stack.pop()
            for u, eid in incident[v]:
                comp_edges.add(eid)
                if u not in comp_vertices:
                    comp_vertices.add(u)
                    stack.append(u)
        seen_edges |= comp_edges
        if len(comp_edges) < 4:
            continue
        is_cycle = all(len(incident[v]) == 2 for v in comp_vertices)
        if is_cycle:
            origin = min(comp_vertices)
        else:
            origin = min(v for v in comp_vertices if len(incident[v]) == 1)
        # walk the path or cycle from the origin, listing edges in order
        walk: list[int] = []
        v, prev = origin, -1
        while True:
            step = next(
                ((u, eid) for u, eid in incident[v] if eid != prev and eid not in walk),
                None,
            )
            if step is None:
                break
            u, eid = step
            walk.append(eid)
            v, prev = u, eid
            if is_cycle and v == origin:
                break
        if is_cycle and len(comp_edges) == 4:
            return Violation("bicolored-cycle", tuple(walk))
        return Violation("bicolored-path", tuple(walk[:4]))
    return None


def _paths_through(g: Multigraph, e: int):
    """Vertex-simple four-edge paths containing ``e``, as ordered edge ids."""
    a, b = g.endpoints(e)

    def walks(start, banned_vertices, banned_edges, steps):
        if steps == 0:
            yield (), ()
            return
        for u, eid in g.adjacency[start]:
            if eid in banned_edges or u in banned_vertices:
                continue
            for tail_e, tail_v in walks(u, banned_vertices + (u,), banned_edges + (eid,), steps - 1):
                yield (eid,) + tail_e, (u,) + tail_v

    for i in range(4):
        for left_e, left_v in walks(a, (a, b), (e,), i):
            for right_e, right_v in walks(b, (a, b) + left_v, (e,) + left_e, 3 - i):
                yield tuple(reversed(left_e)) + (e,) + right_e


def _cycles_through(g: Multigraph, e: int):
    a, b = g.endpoints(e)
    for x, e1 in g.adjacency[b]:
        if e1 == e or x == a:
            continue
        for y, e2 in g.adjacency[x]:
            if e2 in (e, e1) or y in (a, b):
                continue
            for z, e3 in g.adjacency[y]:
                if z == a and e3 not in (e, e1, e2):
                    yield (e, e1, e2, e3)


def find_violation(
    g: Multigraph, coloring: EdgeColoring, scope: int | None = None
) -> Violation | None:
    """First violation within scope, or None.

    ``scope=None`` scans the whole graph; ``scope=e`` judges only improper
    pairs involving ``e`` and bicolored structures containing ``e``.  Only
    fully colored candidate structures are judged, so partial colorings
    are fine.
    """
    _check_ids(g, coloring)
    if scope is None:
        bad = _improper_at(g, coloring, range(g.n))
        if bad is not None:
            return bad
        present = sorted(set(coloring.assignment.values()))
        for i, x in enumerate(present):
            for y in present[i + 1:]:
                bad = _pair_components(g, coloring, x, y)
                if bad is not None:
                    return bad
        return None
    if not 0 <= scope < g.m:
        raise ValueError(f"edge id {scope} out of range for {g.m} edges")
    ce = coloring.color(scope)
    if ce is None:
        return None
    for v in g.endpoints(scope):
        for _, eid in g.adjacency[v]:
            if eid != scope and coloring.color(eid) == ce:
                return Violation("improper", tuple(sorted((scope, eid))))
    for seq in _paths_through(g, scope):
        colors = [coloring.color(eid) for eid in seq]
        if None not in colors and len(set(colors)) == 2:
            return Violation("bicolored-path", seq)
    for seq in _cycles_through(g, scope):
        colors = [coloring.color(eid) for eid in seq]
        if None not in colors and len(set(colors)) == 2:
            return Violation("bicolored-cycle", seq)
    return None


def is_star_coloring(g: Multigraph, coloring: EdgeColoring) -> bool:
    """True iff the total coloring is proper with no bicolored four-edge
    path or cycle.  Partial colorings are rejected."""
    _check_ids(g, coloring)
    if not coloring.is_total(g.m):
        raise ValueError("coloring is partial; every edge needs a color")
    return find_violation(g, coloring) is None


# ----------------------------------------------------------------------
# exact solver
# ----------------------------------------------------------------------

def _bfs_edge_order(g: Multigraph, component: tuple[int, ...]) -> list[int]:
    """Edges of the component ordered so each one touches an earlier edge:
    breadth-first from a maximum-degree vertex."""
    root = max(component, key=lambda v: (g.degree(v), -v))
    seen_v = {root}
    listed: set[int] = set()
    order: list[int] = []
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u, eid in g.adjacency[v]:
            if eid not in listed:
                listed.add(eid)
                order.append(eid)
            if u not in seen_v:
                seen_v.add(u)
                queue.append(u)
    return order


def _solve_component(g: Multigraph, order: list[int], k: int) -> dict[int, int] | None:
    """Backtracking search for a star k-coloring of the edges in ``order``.

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
        return None
    return {order[i]: color_at[i] for i in range(total)}


def is_star_k_colorable(g: Multigraph, k: int) -> EdgeColoring | None:
    """A star k-edge-coloring certificate, or None when none exists.

    Components are solved independently; the palettes just overlap.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"palette size must be a nonnegative integer, got {k!r}")
    assignment: dict[int, int] = {}
    for component in g.components():
        order = _bfs_edge_order(g, component)
        if not order:
            continue
        if k == 0:
            return None
        part = _solve_component(g, order, k)
        if part is None:
            return None
        assignment.update(part)
    return EdgeColoring(k, assignment)


def star_chromatic_index(
    g: Multigraph, max_k: int | None = None
) -> tuple[int, EdgeColoring] | None:
    """Exact star chromatic index with a verifying certificate.

    Iterative deepening from ``max(Delta, 1)``; the search is capped at
    seven colors for subcubic inputs (always enough) and at ``m`` colors
    otherwise (a rainbow coloring is always a star coloring).  With
    ``max_k`` the search tries no more than ``max_k`` colors and returns
    None when the index is larger.
    """
    if max_k is not None and (not isinstance(max_k, int) or max_k < 0):
        raise ValueError(f"max_k must be a nonnegative integer, got {max_k!r}")
    if g.m == 0:
        return 0, EdgeColoring(0)
    cap = min(SUBCUBIC_COLOR_CAP, g.m) if g.is_subcubic else g.m
    top = cap if max_k is None else min(cap, max_k)
    for k in range(max(g.max_degree, 1), top + 1):
        cert = is_star_k_colorable(g, k)
        if cert is not None:
            return k, cert
    if top < cap:
        return None
    raise RuntimeError(
        f"no star coloring found up to {cap} colors; this contradicts the "
        "guaranteed bound and indicates a solver defect"
    )


@dataclass(frozen=True)
class CriticalityReport:
    """Outcome of the vertex-deletion criticality test.

    ``deletion_chi[v]`` is the star chromatic index of ``g - v``; it is
    None when ``g`` itself is k-colorable, in which case no deletion needs
    solving to settle the verdict.
    """

    critical: bool
    k: int
    colorable_at_k: bool
    deletion_chi: tuple[int, ...] | None


def is_star_critical(g: Multigraph, k: int = 5) -> CriticalityReport:
    """True iff ``g`` is not star k-colorable but every single-vertex
    deletion is."""
    if is_star_k_colorable(g, k) is not None:
        return CriticalityReport(False, k, True, None)
    deletion_chi = tuple(
        star_chromatic_index(g.delete_vertex(v))[0] for v in range(g.n)
    )
    return CriticalityReport(
        all(c <= k for c in deletion_chi), k, False, deletion_chi
    )
