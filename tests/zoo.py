"""Named small graphs used across the test suite.

Everything here is built directly from edge lists so the constructions are
independent of the enumeration machinery they help to test.
"""

from starline import Multigraph, build


def relabel(g: Multigraph, perm) -> Multigraph:
    """Apply the vertex bijection ``v -> perm[v]``; edge ids keep their
    order, so colorings transfer verbatim."""
    assert sorted(perm) == list(range(g.n))
    return build(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def delete_edge(g: Multigraph, edge_id: int) -> Multigraph:
    """``g`` without the edge ``edge_id``; later edge ids shift down by one."""
    return build(g.n, g.edges[:edge_id] + g.edges[edge_id + 1:])


def edge_list_text(g: Multigraph) -> str:
    """``g`` in the edge-list text format that ``parse_edge_list`` reads."""
    return "\n".join([str(g.n)] + [f"{u} {v}" for u, v in g.edges]) + "\n"


def path(n: int) -> Multigraph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Multigraph:
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Multigraph:
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Multigraph:
    return build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(leaves: int) -> Multigraph:
    return build(leaves + 1, [(0, i + 1) for i in range(leaves)])


def parallel(mult: int) -> Multigraph:
    """Two vertices joined by ``mult`` parallel edges."""
    return build(2, [(0, 1)] * mult)


def cube() -> Multigraph:
    """The 3-cube on bit-vector vertices: u ~ v iff they differ in one bit."""
    edges = [
        (u, u ^ (1 << b))
        for u in range(8)
        for b in range(3)
        if u < u ^ (1 << b)
    ]
    return build(8, edges)


def diamond() -> Multigraph:
    """K4 minus one edge."""
    return build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def paw() -> Multigraph:
    """A triangle with one pendant edge."""
    return build(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def prism() -> Multigraph:
    """Two triangles joined by a perfect matching (circular ladder CL3)."""
    return build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def circular_ladder(k: int) -> Multigraph:
    """The prism C_k x K2: cycles 0..k-1 and k..2k-1 joined by rungs i ~ k+i."""
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return build(2 * k, rims + [(i, k + i) for i in range(k)])


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build(10, outer + inner + spokes)


def theta_graph() -> Multigraph:
    """Five vertices, seven edges: a 4-cycle plus a hub adjacent to three
    of its vertices.  Subcubic, not star 5-colorable."""
    return build(5, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)])


def twisted_cube_cover() -> Multigraph:
    """A connected cubic double cover of the 3-cube on 16 vertices.

    Vertices are (cube vertex, sheet); every cube edge lifts straight
    except 0-1, which swaps sheets, making one 4-cycle lift to an 8-cycle.
    """
    edges = []
    for u in range(8):
        for b in range(3):
            v = u ^ (1 << b)
            if u < v:
                flip = 1 if (u, v) == (0, 1) else 0
                for sheet in range(2):
                    edges.append((2 * u + sheet, 2 * v + (sheet ^ flip)))
    return build(16, edges)
