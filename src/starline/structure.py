"""Vertex classification, pruning of pendant vertices, structural predicates,
and the cube-cover test.

Conventions used throughout: ``d(v)`` is the degree counted with edge
multiplicity, ``N(v)`` the set of distinct neighbors, so a vertex carrying
a double edge has degree at least 2 but may have a single neighbor.  A
3-vertex is classified by how many of its incident edges lead to
2-vertices.  A 2-vertex is bad when some neighbor is also a 2-vertex,
good otherwise; a 3-vertex with exactly two edges into 2-vertices is bad
when all of those 2-vertices are bad.  Badness is always relative to the
graph at hand; callers interested in the pruned graph classify the result
of strip_ones.

The lemma audit evaluates, on an arbitrary subcubic multigraph, the
structural conclusions that hold for minimal obstructions to
5-colorability.  Each predicate quantifies over every vertex
configuration matching its setup, trying all labelings consistent with
the stated degree constraints; configurations whose side conditions fail
(a referenced auxiliary vertex does not exist) are skipped as vacuous.
A failed predicate carries explicit vertex witnesses, reported in the
labeling of the input graph even for predicates evaluated on the pruned
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .multigraph import Multigraph, build

GOOD = "good"
BAD = "bad"


@dataclass(frozen=True)
class VertexProfile:
    """Classification of one vertex.

    ``class3k`` is set only for 3-vertices: the number of incident edges
    whose other endpoint is a 2-vertex.  ``two_status`` is set only for
    2-vertices: good or bad.  ``bad32`` marks 3-vertices of class 2 whose
    2-neighbors are all bad.
    """

    degree: int
    class3k: int | None
    two_status: str | None
    bad32: bool


def classify(g: Multigraph) -> tuple[VertexProfile, ...]:
    """Profile every vertex of a subcubic multigraph."""
    if g.max_degree > 3:
        raise ValueError(f"maximum degree {g.max_degree} exceeds 3")
    deg = g.degrees
    status: list[str | None] = [None] * g.n
    for v in range(g.n):
        if deg[v] == 2:
            has_two = any(deg[u] == 2 for u in g.neighbors(v))
            status[v] = BAD if has_two else GOOD
    profiles = []
    for v in range(g.n):
        class3k = None
        bad32 = False
        if deg[v] == 3:
            two_ends = [u for u, _ in g.adjacency[v] if deg[u] == 2]
            class3k = len(two_ends)
            bad32 = class3k == 2 and all(status[u] == BAD for u in two_ends)
        profiles.append(VertexProfile(deg[v], class3k, status[v], bad32))
    return tuple(profiles)


def strip_ones(g: Multigraph) -> tuple[Multigraph, tuple[int, ...]]:
    """Delete every degree-1 vertex, in a single pass (not iterated).

    Returns the pruned graph and a map from its vertex ids back to the
    input's: ``vmap[h_vertex] = g_vertex``.
    """
    deg = g.degrees
    keep = [v for v in range(g.n) if deg[v] != 1]
    new_of_old = {v: i for i, v in enumerate(keep)}
    edges = [
        (new_of_old[u], new_of_old[v])
        for u, v in g.edges
        if u in new_of_old and v in new_of_old
    ]
    return build(len(keep), edges), tuple(keep)


# ----------------------------------------------------------------------
# structural predicate audit
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    """One predicate outcome; witnesses are vertex tuples, empty on pass.

    Witness tuple layouts, in order:
      L-deg1(a): (x, y); (b),(c),(e): (x, y, y1, y2); (d): (x, y, y1, y2, w1)
      L-deg2(pre): (x,); (a),(b): (x, z, w); (c): (x, z, w, zstar);
        (d): (x, z, w, zstar)
      L-2nbr, L-3nbr: (x,)
      L-noC3: (x, y, z) sorted
      L-noC4(cycle): (x, u, v, w) in cycle order
      L-noC4(path): (x, u, v, w, y) in path order
      L-noBad: (u, neighbor)
      L-main(nonadjacent): (u, x, y, z, x1, y1)
      L-main(z-class): (u, x, y, z)
    """

    name: str
    passed: bool
    witnesses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[LemmaCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _pendant_vertex_checks(g: Multigraph) -> list[LemmaCheck]:
    """Conclusions about the neighborhood of each 1-vertex x: its support y
    must be a branch vertex whose other neighbors y1, y2 (labeled with
    d(y1) >= d(y2)) satisfy independence and degree constraints."""
    deg = g.degrees
    wit: dict[str, list[tuple[int, ...]]] = {c: [] for c in "abcde"}
    for x in range(g.n):
        if deg[x] != 1:
            continue
        y = g.neighbors(x)[0]
        if len(g.neighbors(y)) != 3:
            wit["a"].append((x, y))
        others = [v for v in g.neighbors(y) if v != x]
        if len(others) != 2:
            continue  # no (y1, y2) labeling exists; remaining clauses vacuous
        for y1, y2 in ((others[0], others[1]), (others[1], others[0])):
            if deg[y1] < deg[y2]:
                continue
            independent = all(
                g.multiplicity(p, q) == 0
                for p, q in combinations((x, y1, y2), 2)
            )
            if not (independent and deg[y1] == 3 and deg[y2] >= 2):
                wit["b"].append((x, y, y1, y2))
            if deg[y2] == 2:
                ok = len(g.neighbors(y1)) == 3 and len(g.neighbors(y2)) == 2
                for yi in (y1, y2):
                    for v in g.neighbors(yi):
                        if v != y and len(g.neighbors(v)) < 2:
                            ok = False
                closed1 = set(g.neighbors(y1)) | {y1}
                closed2 = set(g.neighbors(y2)) | {y2}
                if closed1 & closed2 != {y}:
                    ok = False
                if not ok:
                    wit["c"].append((x, y, y1, y2))
                w_candidates = [v for v in g.neighbors(y2) if v != y]
                if len(w_candidates) == 1 and deg[w_candidates[0]] != 3:
                    wit["d"].append((x, y, y1, y2, w_candidates[0]))
            if deg[y2] == 3:
                if not (
                    all(deg[v] >= 2 for v in g.neighbors(y1))
                    or all(deg[v] >= 2 for v in g.neighbors(y2))
                ):
                    wit["e"].append((x, y, y1, y2))
    return [
        LemmaCheck(f"L-deg1({c})", not wit[c], tuple(wit[c])) for c in "abcde"
    ]


def _two_vertex_checks(g: Multigraph) -> list[LemmaCheck]:
    """Conclusions about the two neighbors z, w of each 2-vertex x, labeled
    with |N(z)| <= |N(w)|.  The pre clause asserts the neighbors are
    distinct in the first place; without it no labeling exists."""
    deg = g.degrees
    wit: dict[str, list[tuple[int, ...]]] = {c: [] for c in ("pre", "a", "b", "c", "d")}
    for x in range(g.n):
        if deg[x] != 2:
            continue
        nbrs = g.neighbors(x)
        if len(nbrs) != 2:
            wit["pre"].append((x,))
            continue
        for z, w in ((nbrs[0], nbrs[1]), (nbrs[1], nbrs[0])):
            if len(g.neighbors(z)) > len(g.neighbors(w)):
                continue
            if g.multiplicity(z, w) > 0:
                if not (
                    len(g.neighbors(z)) == 3
                    and len(g.neighbors(w)) == 3
                    and all(
                        deg[v] >= 2
                        for v in set(g.neighbors(z)) | set(g.neighbors(w))
                    )
                ):
                    wit["a"].append((x, z, w))
            else:
                shapes_ok = len(g.neighbors(w)) == 3 or (
                    len(g.neighbors(w)) == 2 and len(g.neighbors(z)) == 2
                )
                if not (shapes_ok and deg[w] == 3 and deg[z] == 3):
                    wit["b"].append((x, z, w))
            if deg[z] == 2:
                z_others = [v for v in g.neighbors(z) if v != x]
                if len(z_others) != 1:
                    continue  # no z* exists; (c) and (d) vacuous
                zstar = z_others[0]
                if g.multiplicity(zstar, w) > 0:
                    hood = (set(g.neighbors(w)) | {w}) | (
                        set(g.neighbors(zstar)) | {zstar}
                    )
                    if not (
                        len(g.neighbors(zstar)) == 3
                        and len(g.neighbors(w)) == 3
                        and all(deg[u] == 3 for u in hood - {x, z})
                    ):
                        wit["c"].append((x, z, w, zstar))
                if not (
                    len(g.neighbors(zstar)) == 3
                    and len(g.neighbors(w)) == 3
                    and all(
                        len(g.neighbors(v)) >= 2
                        for v in set(g.neighbors(w)) | set(g.neighbors(zstar))
                    )
                ):
                    wit["d"].append((x, z, w, zstar))
    return [
        LemmaCheck(f"L-deg2({c})", not wit[c], tuple(wit[c]))
        for c in ("pre", "a", "b", "c", "d")
    ]


def _pruned_graph_checks(h: Multigraph) -> list[LemmaCheck]:
    profiles = classify(h)
    deg = h.degrees
    nbrs = [h.neighbors(v) for v in range(h.n)]

    def is_bad(v: int) -> bool:
        return profiles[v].two_status == BAD

    def is_31(v: int) -> bool:
        return deg[v] == 3 and profiles[v].class3k == 1

    two_nbr = [
        (x,) for x in range(h.n) if deg[x] == 2 and len(nbrs[x]) != 2
    ]
    three_nbr = [
        (x,)
        for x in range(h.n)
        if deg[x] == 3
        and (profiles[x].class3k or 0) >= 2
        and len(nbrs[x]) != 3
    ]

    # Short cycles are walked from the adjacency lists: a triangle once as
    # x < y < z, a 4-cycle once as a -> b -> c -> d with a its smallest
    # vertex and b < d, the orientation in which a scan over sorted
    # 4-subsets meets it.  Two 4-cycles with three bad (so degree-2)
    # vertices each share no vertex, so listing them by a keeps that
    # scan's order too.
    nbr_sets = [set(vs) for vs in nbrs]
    no_c3 = []
    for x in range(h.n):
        for y in nbrs[x]:
            if y <= x:
                continue
            for z in nbrs[y]:
                if z > y and z in nbr_sets[x] and sum(map(is_bad, (x, y, z))) >= 2:
                    no_c3.append((x, y, z))

    no_c4_cycle = []
    for a in range(h.n):
        for b in nbrs[a]:
            if b <= a:
                continue
            for c in nbrs[b]:
                if c <= a:
                    continue
                for d in nbrs[c]:
                    cyc = (a, b, c, d)
                    if d > b and d in nbr_sets[a] and sum(map(is_bad, cyc)) >= 3:
                        goods = [v for v in cyc if not is_bad(v)]
                        i = cyc.index(min(goods) if goods else a)
                        no_c4_cycle.append(tuple(cyc[(i + j) % 4] for j in range(4)))

    no_c4_path = []
    for v in range(h.n):
        if not is_bad(v):
            continue
        for u in nbrs[v]:
            for w in nbrs[v]:
                if u >= w or not (is_bad(u) and is_bad(w)):
                    continue
                for x in nbrs[u]:
                    if x in (v, w):
                        continue
                    for y in nbrs[w]:
                        if y in (v, u, x):
                            continue
                        if not (is_31(x) and is_31(y)):
                            no_c4_path.append((x, u, v, w, y))

    no_bad = []
    for u in range(h.n):
        if deg[u] == 3 and profiles[u].class3k == 3:
            for b in nbrs[u]:
                if is_bad(b):
                    no_bad.append((u, b))

    main_nonadj = []
    main_zclass = []
    for u in range(h.n):
        if deg[u] != 3 or len(nbrs[u]) != 3:
            continue
        for x, y in combinations(nbrs[u], 2):
            if not (is_bad(x) and is_bad(y)):
                continue
            z = next(v for v in nbrs[u] if v not in (x, y))
            if not (deg[z] == 3 and profiles[z].class3k == 0):
                main_zclass.append((u, x, y, z))
            x_others = [v for v in nbrs[x] if v != u]
            y_others = [v for v in nbrs[y] if v != u]
            if len(x_others) == 1 and len(y_others) == 1:
                x1, y1 = x_others[0], y_others[0]
                if h.multiplicity(z, x1) or h.multiplicity(z, y1):
                    main_nonadj.append((u, x, y, z, x1, y1))

    named = [
        ("L-2nbr", two_nbr),
        ("L-3nbr", three_nbr),
        ("L-noC3", no_c3),
        ("L-noC4(cycle)", no_c4_cycle),
        ("L-noC4(path)", no_c4_path),
        ("L-noBad", no_bad),
        ("L-main(nonadjacent)", main_nonadj),
        ("L-main(z-class)", main_zclass),
    ]
    return [LemmaCheck(name, not w, tuple(w)) for name, w in named]


def lemma_audit(g: Multigraph) -> LemmaReport:
    """Evaluate every structural predicate on g, translating witnesses of
    pruned-graph predicates back to g's vertex labels."""
    if g.max_degree > 3:
        raise ValueError(f"maximum degree {g.max_degree} exceeds 3")
    checks = _pendant_vertex_checks(g) + _two_vertex_checks(g)
    h, vmap = strip_ones(g)
    for c in _pruned_graph_checks(h):
        translated = tuple(tuple(vmap[v] for v in w) for w in c.witnesses)
        checks.append(LemmaCheck(c.name, c.passed, translated))
    return LemmaReport(tuple(checks))


# ----------------------------------------------------------------------
# covers of the cube
# ----------------------------------------------------------------------

# Vertices of the 3-cube are the 3-bit strings; u ~ v iff they differ in
# exactly one bit.
_CUBE_NBRS = tuple(tuple(sorted(v ^ (1 << b) for b in range(3))) for v in range(8))


def covers_cube(g: Multigraph) -> dict[int, int] | None:
    """A covering map onto the 3-cube, or None.

    The map sends edges to edges and restricts to a bijection between
    each vertex's neighborhood and its image's.  Only simple connected
    cubic graphs can cover the cube; anything else returns None before
    the search.  The first vertex is pinned to image 0, which loses no
    generality because the cube is vertex-transitive.
    """
    if g.n == 0 or not g.is_simple or any(d != 3 for d in g.degrees):
        return None
    order = [0]
    seen = {0}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                order.append(u)
    if len(order) < g.n:
        return None  # disconnected
    image = [-1] * g.n

    def admissible(v: int, target: int) -> bool:
        for u in g.neighbors(v):
            if image[u] >= 0:
                if target not in _CUBE_NBRS[image[u]]:
                    return False
                # the images of u's neighbors must stay pairwise distinct
                for w in g.neighbors(u):
                    if w != v and image[w] == target:
                        return False
        return True

    # depth-first over order[1:], iteratively: tried[pos] is the last
    # image tried for order[pos]
    tried = [-1] * len(order)
    image[0] = 0
    pos = 1
    while 0 < pos < len(order):
        v = order[pos]
        image[v] = -1
        target = tried[pos] + 1
        while target < 8 and not admissible(v, target):
            target += 1
        if target < 8:
            image[v] = target
            tried[pos] = target
            pos += 1
        else:
            tried[pos] = -1
            pos -= 1
    if pos == 0:
        return None
    return {v: image[v] for v in range(g.n)}


def verify_cover(g: Multigraph, mapping) -> bool:
    """Independent check that a claimed cube cover is one: every edge maps
    to a cube edge and every neighborhood maps bijectively."""
    try:
        image = [mapping[v] for v in range(g.n)]
    except (KeyError, IndexError, TypeError):
        return False
    if any(not isinstance(t, int) or not 0 <= t < 8 for t in image):
        return False
    for u, v in g.edges:
        if image[v] not in _CUBE_NBRS[image[u]]:
            return False
    for v in range(g.n):
        images = {image[u] for u in g.neighbors(v)}
        if len(images) != len(g.neighbors(v)):
            return False
        if images != set(_CUBE_NBRS[image[v]]):
            return False
    return True
