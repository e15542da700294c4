"""Independent reference implementations used to cross-check the package.

Everything in this module is written straight from the definitions and
shares no logic with the code under test: no alternating-walk pruning,
no flow networks, no refinement-based canonical labeling.  Slow and
obviously correct beats fast here.
"""

import itertools
from fractions import Fraction

from starline import Multigraph, build

INF = float("inf")


# ----------------------------------------------------------------------
# star coloring, from the definition
# ----------------------------------------------------------------------

def four_edge_structures(g: Multigraph) -> list[tuple[int, ...]]:
    """Every 4-edge path on five distinct vertices and every 4-edge cycle
    on four distinct vertices, as sorted edge-id tuples."""
    structs: set[tuple[int, ...]] = set()

    def extend(verts: list[int], eids: list[int]) -> None:
        if len(eids) == 4:
            structs.add(tuple(sorted(eids)))
            return
        for u, eid in g.adjacency[verts[-1]]:
            if u not in verts:
                extend(verts + [u], eids + [eid])

    for v in range(g.n):
        extend([v], [])
    for a in range(g.n):
        for b, e1 in g.adjacency[a]:
            for c, e2 in g.adjacency[b]:
                if c == a:
                    continue
                for d, e3 in g.adjacency[c]:
                    if d == a or d == b:
                        continue
                    for a2, e4 in g.adjacency[d]:
                        if a2 == a:
                            structs.add(tuple(sorted((e1, e2, e3, e4))))
    return sorted(structs)


def oracle_is_star(g: Multigraph, colors: dict[int, int]) -> bool:
    """Total assignment check straight from the definition: proper, and no
    4-edge path or cycle carries exactly two colors."""
    for v in range(g.n):
        incident = [colors[eid] for _, eid in g.adjacency[v]]
        if len(incident) != len(set(incident)):
            return False
    for struct in four_edge_structures(g):
        if len({colors[eid] for eid in struct}) == 2:
            return False
    return True


def oracle_star_colorable(g: Multigraph, k: int) -> dict[int, int] | None:
    """Backtracking over proper colorings in edge-id order, rejecting a
    branch as soon as a fully-colored structure is bicolored."""
    structs = four_edge_structures(g)
    by_last: list[list[tuple[int, ...]]] = [[] for _ in range(g.m)]
    for struct in structs:
        by_last[max(struct)].append(struct)
    colors: dict[int, int] = {}

    def place(eid: int) -> bool:
        if eid == g.m:
            return True
        u, v = g.edges[eid]
        taken = {
            colors[other]
            for w in (u, v)
            for _, other in g.adjacency[w]
            if other in colors
        }
        for c in range(1, k + 1):
            if c in taken:
                continue
            colors[eid] = c
            ok = all(
                len({colors[x] for x in struct}) != 2 for struct in by_last[eid]
            )
            if ok and place(eid + 1):
                return True
            del colors[eid]
        return False

    if place(0):
        return dict(colors)
    return None


def oracle_chi(g: Multigraph) -> int:
    for k in itertools.count(0):
        if oracle_star_colorable(g, k) is not None:
            return k
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# isomorphism and canonical labels by exhaustive permutation
# ----------------------------------------------------------------------

def _mult_map(g: Multigraph) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        out[(u, v)] = out.get((u, v), 0) + 1
    return out


def isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    m1, m2 = _mult_map(g1), _mult_map(g2)
    d1, d2 = g1.degrees, g2.degrees
    for perm in itertools.permutations(range(g1.n)):
        if any(d2[perm[v]] != d1[v] for v in range(g1.n)):
            continue
        if all(
            m2.get((min(perm[u], perm[v]), max(perm[u], perm[v])), 0) == c
            for (u, v), c in m1.items()
        ):
            return True
    return False


def min_perm_label(g: Multigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Smallest relabeled edge multiset over all vertex permutations."""
    best: tuple[tuple[int, int], ...] | None = None
    for perm in itertools.permutations(range(g.n)):
        key = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in g.edges
            )
        )
        if best is None or key < best:
            best = key
    return (g.n, best if best is not None else ())


def brute_connected_classes(n: int, mode: str) -> int:
    """Count isomorphism classes of connected loopless graphs on exactly n
    vertices with maximum degree 3, by filtering every labeled graph."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    top = 1 if mode == "simple" else 3
    seen: set[tuple] = set()

    def assign(i: int, deg: list[int], chosen: list[tuple[int, int]]) -> None:
        if i == len(pairs):
            g = build(n, chosen)
            if g.is_connected():
                seen.add(min_perm_label(g))
            return
        u, v = pairs[i]
        room = min(top, 3 - deg[u], 3 - deg[v])
        for mult in range(max(room, 0) + 1):
            deg[u] += mult
            deg[v] += mult
            assign(i + 1, deg, chosen + [(u, v)] * mult)
            deg[u] -= mult
            deg[v] -= mult

    if n == 1:
        return 1
    assign(0, [0] * n, [])
    return len(seen)


# ----------------------------------------------------------------------
# short cycles of the lemma audit, by scanning every vertex subset
# ----------------------------------------------------------------------

def oracle_cycle_checks(g: Multigraph) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Witnesses of ``L-noC3`` and ``L-noC4(cycle)`` in g's labels, in
    report order, found by testing every 3- and 4-subset of the graph left
    after deleting the degree-1 vertices once.

    A vertex of that graph is bad when its degree (with multiplicity) is 2
    and some neighbor also has degree 2.  A triangle fails with at least two
    bad vertices, listed sorted; a 4-cycle fails with at least three,
    listed from its smallest good vertex (its smallest vertex if none is
    good) in the cycle's direction.  The three 4-cycles through a sorted
    quadruple ``(a, b, c, d)`` are tried in the order abcd, abdc, acbd.
    """
    deg_g = g.degrees
    keep = [v for v in range(g.n) if deg_g[v] != 1]
    index = {v: i for i, v in enumerate(keep)}
    n = len(keep)
    mult: dict[tuple[int, int], int] = {}
    deg = [0] * n
    for u, v in g.edges:
        if u in index and v in index:
            a, b = sorted((index[u], index[v]))
            mult[(a, b)] = mult.get((a, b), 0) + 1
            deg[a] += 1
            deg[b] += 1

    def adjacent(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in mult

    bad = [
        deg[v] == 2 and any(deg[u] == 2 for u in range(n) if adjacent(u, v))
        for v in range(n)
    ]
    no_c3 = []
    for tri in itertools.combinations(range(n), 3):
        x, y, z = tri
        if adjacent(x, y) and adjacent(y, z) and adjacent(x, z):
            if sum(bad[v] for v in tri) >= 2:
                no_c3.append(tri)
    no_c4 = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        for cyc in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if all(adjacent(cyc[i], cyc[(i + 1) % 4]) for i in range(4)):
                if sum(bad[v] for v in cyc) >= 3:
                    goods = [v for v in cyc if not bad[v]]
                    i = cyc.index(min(goods) if goods else min(cyc))
                    no_c4.append(tuple(cyc[(i + j) % 4] for j in range(4)))
    return {
        name: tuple(tuple(keep[v] for v in w) for w in found)
        for name, found in (("L-noC3", no_c3), ("L-noC4(cycle)", no_c4))
    }


# ----------------------------------------------------------------------
# density and girth, the slow way
# ----------------------------------------------------------------------

BRUTE_MAX_N = 20


def mad_brute(g: Multigraph, *, max_n: int = BRUTE_MAX_N) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum of 2*e(G[S])/|S| over all ``2^n - 1`` nonempty subsets, with
    the first subset (in bitmask order) attaining it.  Each subset's edge
    count extends the count of the subset without its lowest vertex, and
    densities are compared by cross-multiplying.  Guarded at ``max_n``
    vertices."""
    if g.n == 0:
        raise ValueError("mad requires at least one vertex")
    if g.n > max_n:
        raise ValueError(f"subset scan guarded at n <= {max_n}, got n = {g.n}")
    n = g.n
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1
    edge_count = [0] * (1 << n)
    best_count, best_size, best_mask = -1, 1, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        count = edge_count[rest]
        row = mult[v]
        r = rest
        while r:
            ulow = r & -r
            count += row[ulow.bit_length() - 1]
            r ^= ulow
        edge_count[mask] = count
        size = mask.bit_count()
        if count * best_size > best_count * size:
            best_count, best_size, best_mask = count, size, mask
    return Fraction(2 * best_count, best_size), tuple(v for v in range(n) if best_mask >> v & 1)


def oracle_girth(g: Multigraph) -> int | float:
    """Shortest cycle through each edge: delete it, find the distance
    between its endpoints, add the edge back."""
    best = INF
    for eid in range(g.m):
        u, v = g.edges[eid]
        trimmed = g.delete_edge(eid)
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for w in frontier:
                for x, _ in trimmed.adjacency[w]:
                    if x not in dist:
                        dist[x] = dist[w] + 1
                        nxt.append(x)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best
