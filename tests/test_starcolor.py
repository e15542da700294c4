import pickle
import time

import pytest
from hypothesis import given, strategies as st

import oracles
import zoo
from starline import (
    EdgeColoring,
    FormatError,
    Violation,
    build,
    canonical_form,
    emit_coloring,
    enumerate_graphs,
    find_critical,
    find_violation,
    is_star_coloring,
    is_star_k_colorable,
    parse_coloring,
    star_chromatic_index,
)
from starline.starcolor import _edge_orders
from strategies import subcubic_multigraphs


def coloring(k, colors_in_edge_order):
    return EdgeColoring(k, dict(enumerate(colors_in_edge_order)))


def chain_vertices(g, edge_ids):
    """Vertex sequence along consecutive edges, for witness validation."""
    first, second = edge_ids[0], edge_ids[1]
    shared = set(g.edges[first]) & set(g.edges[second])
    start = next(v for v in g.edges[first] if v not in shared)
    verts = [start]
    for eid in edge_ids:
        verts.append(g.other_end(eid, verts[-1]))
    return verts


def assert_genuine(g, col, vio):
    assert isinstance(vio, Violation)
    ids = vio.edge_ids
    assert len(set(ids)) == len(ids)
    palette = {col.color(e) for e in ids}
    if vio.kind == "improper":
        e1, e2 = ids
        assert set(g.edges[e1]) & set(g.edges[e2])
        assert col.color(e1) == col.color(e2)
        return
    assert len(ids) == 4
    assert len(palette) == 2
    verts = chain_vertices(g, ids)
    if vio.kind == "bicolored-path":
        assert len(set(verts)) == 5
    elif vio.kind == "bicolored-cycle":
        assert verts[0] == verts[-1]
        assert len(set(verts[:4])) == 4
    else:
        raise AssertionError(f"unknown kind {vio.kind}")


# ----------------------------------------------------------------------
# coloring values and formats
# ----------------------------------------------------------------------

def test_edge_coloring_validation():
    c = EdgeColoring(3, {0: 1, 1: 3})
    assert c.color(0) == 1
    assert c.color(7) is None
    assert not c.is_total(3)
    assert c.is_total(2)
    with pytest.raises(ValueError):
        EdgeColoring(2, {0: 3})
    with pytest.raises(ValueError):
        EdgeColoring(2, {0: 0})
    with pytest.raises(ValueError):
        EdgeColoring(-1)
    with pytest.raises(ValueError):
        EdgeColoring(2, {-1: 1})


def test_edge_coloring_immutable():
    colors = {0: 1}
    c = EdgeColoring(2, colors)
    colors[0] = 2
    assert c.color(0) == 1
    with pytest.raises(AttributeError):
        c.k = 5
    with pytest.raises(TypeError):
        c.assignment[0] = 2
    with pytest.raises(TypeError):
        hash(c)
    with pytest.raises(TypeError):
        pickle.dumps(c)


def test_edge_coloring_equality():
    assert EdgeColoring(2, {0: 1}) == EdgeColoring(2, {0: 1})
    assert EdgeColoring(2, {0: 1}) != EdgeColoring(2, {0: 2})
    assert EdgeColoring(2, {0: 1}) != EdgeColoring(3, {0: 1})
    assert EdgeColoring(0) == EdgeColoring(0, {})
    assert EdgeColoring(1) != {}


def test_coloring_roundtrip():
    c = EdgeColoring(4, {0: 1, 2: 4, 1: 2})
    assert parse_coloring(emit_coloring(c)) == c
    parsed = parse_coloring("# cert\n0 2\n\n1 1 # note\n")
    assert parsed.k == 2
    assert dict(parsed.assignment) == {0: 2, 1: 1}


@pytest.mark.parametrize("text", ["0 1 2\n", "0 x\n", "0 1\n0 2\n", "0 0\n"])
def test_parse_coloring_rejects(text):
    with pytest.raises(FormatError):
        parse_coloring(text)


# ----------------------------------------------------------------------
# violation finding
# ----------------------------------------------------------------------

def test_bicolored_path_found():
    vio = find_violation(zoo.path(5), coloring(2, [1, 2, 1, 2]))
    assert vio.kind == "bicolored-path"
    assert sorted(vio.edge_ids) == [0, 1, 2, 3]


def test_bicolored_cycle_found():
    vio = find_violation(zoo.cycle(4), coloring(2, [1, 2, 1, 2]))
    assert vio.kind == "bicolored-cycle"
    assert sorted(vio.edge_ids) == [0, 1, 2, 3]


def test_three_colored_cycle_accepted():
    assert find_violation(zoo.cycle(4), coloring(3, [1, 2, 1, 3])) is None


def test_improper_found():
    vio = find_violation(zoo.parallel(2), coloring(1, [1, 1]))
    assert vio.kind == "improper"
    assert sorted(vio.edge_ids) == [0, 1]
    vio = find_violation(zoo.path(3), coloring(2, [2, 2]))
    assert vio.kind == "improper"


@pytest.mark.parametrize(
    "g,colors,kind,edge_ids",
    [
        # path 2-0-4-1-3: listed from its smaller end 2, not from vertex 0
        (build(5, [(0, 4), (1, 3), (0, 2), (1, 4)]), {0: 2, 1: 2, 2: 1, 3: 1},
         "bicolored-path", (2, 0, 3, 1)),
        # the same path with the smaller edge id at 0 pointing to the end 2
        (build(5, [(0, 2), (1, 3), (0, 4), (1, 4)]), {0: 1, 1: 2, 2: 2, 3: 1},
         "bicolored-path", (0, 2, 3, 1)),
        # 4-cycle 0-3-2-1: from vertex 0 along its smaller edge id 1, not edge 0
        (build(4, [(1, 2), (0, 3), (2, 3), (0, 1)]), {0: 1, 1: 1, 2: 2, 3: 2},
         "bicolored-cycle", (1, 2, 0, 3)),
        # a bicolored 6-cycle is reported as the path of its first four edges
        (zoo.relabel(zoo.cycle(6), [3, 5, 0, 2, 4, 1]), dict(enumerate([1, 2, 1, 2, 1, 2])),
         "bicolored-path", (1, 0, 5, 4)),
        # uncolored edge 2 leaves 0-1-2 too short; the path from 3 is the witness
        (zoo.path(8), {0: 1, 1: 2, 3: 1, 4: 2, 5: 1, 6: 2}, "bicolored-path", (3, 4, 5, 6)),
        # the first clash in vertex order, then adjacency order (vertex 1)
        (build(4, [(2, 3), (1, 3), (0, 1), (1, 2)]), {0: 1, 1: 2, 2: 1, 3: 1},
         "improper", (2, 3)),
        # the path runs through the second copy of the double edge 1=2
        (build(5, [(0, 1), (1, 2), (1, 2), (2, 3), (3, 4)]), dict(enumerate([1, 3, 2, 1, 2])),
         "bicolored-path", (0, 2, 3, 4)),
        # two long paths of colors 1, 2: the one through vertex 0 wins, though
        # its colors first meet at vertex 5 and the other's at vertex 2
        (build(10, [(1, 2), (2, 3), (3, 4), (4, 9), (0, 5), (5, 6), (6, 7), (7, 8)]),
         dict(enumerate([1, 2, 1, 2, 1, 2, 1, 2])), "bicolored-path", (4, 5, 6, 7)),
    ],
)
def test_witness_order(g, colors, kind, edge_ids):
    vio = find_violation(g, EdgeColoring(max(colors.values()), colors))
    assert vio == Violation(kind, edge_ids)


def test_rainbow_coloring_of_long_path():
    # each of the 19999 pairs of colors that meet is walked from the one
    # vertex where they meet, with no scan of all 20001 vertices per pair
    g = zoo.path(20001)
    rainbow = coloring(20000, range(1, 20001))
    start = time.process_time()
    assert is_star_coloring(g, rainbow)
    assert time.process_time() - start < 5


def test_partial_coloring_judged_on_colored_structures_only():
    partial = EdgeColoring(2, {0: 1, 1: 2, 2: 1})
    assert find_violation(zoo.path(5), partial) is None
    assert find_violation(zoo.path(5), EdgeColoring(1, {0: 1, 2: 1})) is None


def test_is_star_coloring():
    assert is_star_coloring(zoo.path(4), coloring(2, [1, 2, 1]))
    assert is_star_coloring(zoo.path(5), coloring(3, [1, 2, 3, 1]))
    assert not is_star_coloring(zoo.path(5), coloring(2, [1, 2, 1, 2]))
    with pytest.raises(ValueError):
        is_star_coloring(zoo.path(5), EdgeColoring(2, {0: 1}))


@given(subcubic_multigraphs(max_n=7), st.data())
def test_find_violation_matches_definition_random(g, data):
    k = data.draw(st.integers(1, 4))
    colors = [data.draw(st.integers(1, k)) for _ in range(g.m)]
    col = coloring(k, colors)
    vio = find_violation(g, col)
    ok = oracles.oracle_is_star(g, dict(enumerate(colors)))
    assert (vio is None) == ok
    if vio is not None:
        assert_genuine(g, col, vio)


@given(subcubic_multigraphs(max_n=7), st.data())
def test_find_violation_matches_definition_proper(g, data):
    colors = {}
    for eid in range(g.m):
        u, v = g.edges[eid]
        taken = {
            colors[other]
            for w in (u, v)
            for _, other in g.adjacency[w]
            if other in colors
        }
        free = [c for c in range(1, 6) if c not in taken]
        colors[eid] = data.draw(st.sampled_from(free))
    col = EdgeColoring(5, colors)
    vio = find_violation(g, col)
    assert (vio is None) == oracles.oracle_is_star(g, colors)
    if vio is not None:
        assert_genuine(g, col, vio)
        assert vio.kind != "improper"


# ----------------------------------------------------------------------
# solver
# ----------------------------------------------------------------------

def test_huge_palette_solves_like_a_small_one():
    g = zoo.prism()
    cert = is_star_k_colorable(g, 10**12)
    assert cert is not None
    assert cert.k == 10**12
    assert max(cert.assignment.values()) <= g.m
    assert is_star_coloring(g, cert)
    assert is_star_k_colorable(zoo.theta_graph(), 10**12) is not None


def test_unsolvable_cases():
    assert is_star_k_colorable(zoo.cycle(4), 2) is None
    assert is_star_k_colorable(zoo.complete_bipartite(3, 3), 5) is None
    assert is_star_k_colorable(zoo.complete(4), 4) is None
    assert is_star_k_colorable(zoo.cube(), 3) is None
    assert is_star_k_colorable(zoo.prism(), 5) is None
    assert is_star_k_colorable(zoo.theta_graph(), 5) is None


def test_certificates_verify():
    for g, k in [
        (zoo.cycle(4), 3),
        (zoo.complete_bipartite(3, 3), 6),
        (zoo.cube(), 4),
        (zoo.complete(4), 5),
        (zoo.petersen(), 5),
    ]:
        cert = is_star_k_colorable(g, k)
        assert cert is not None
        assert cert.k <= k
        assert is_star_coloring(g, cert)
        assert oracles.oracle_is_star(g, dict(cert.assignment))


def test_known_chromatic_indices():
    assert star_chromatic_index(zoo.complete_bipartite(3, 3))[0] == 6
    assert star_chromatic_index(zoo.cube())[0] == 4
    assert star_chromatic_index(zoo.cycle(4))[0] == 3
    assert star_chromatic_index(zoo.path(5))[0] == 3
    assert star_chromatic_index(zoo.complete(4))[0] == 5
    assert star_chromatic_index(zoo.prism())[0] == 6
    assert star_chromatic_index(zoo.theta_graph())[0] == 6
    assert star_chromatic_index(zoo.petersen())[0] == 5


def test_cycle_chromatic_indices():
    expected = {3: 3, 4: 3, 5: 4, 6: 3, 7: 3, 9: 3}
    for n, value in expected.items():
        chi, cert = star_chromatic_index(zoo.cycle(n))
        assert chi == value
        assert is_star_coloring(zoo.cycle(n), cert)
    assert oracles.oracle_chi(zoo.cycle(5)) == 4
    assert oracles.oracle_chi(zoo.cycle(7)) == 3


def test_edgeless_and_tiny():
    chi, cert = star_chromatic_index(build(3, []))
    assert chi == 0
    assert cert.is_total(0)
    assert star_chromatic_index(zoo.path(2))[0] == 1
    assert is_star_k_colorable(build(1, []), 0) is not None


def test_disconnected_components_solved_independently():
    k4 = list(zoo.complete(4).edges)
    c4 = [(u + 4, v + 4) for u, v in zoo.cycle(4).edges]
    g = build(8, k4 + c4)
    chi, cert = star_chromatic_index(g)
    assert chi == 5
    assert is_star_coloring(g, cert)


def test_solver_matches_oracle_on_enumerated():
    for mode, top in (("simple", 5), ("multigraph", 4)):
        for g in enumerate_graphs(top, mode):
            assert star_chromatic_index(g)[0] == oracles.oracle_chi(g)


@given(subcubic_multigraphs(max_n=6))
def test_solver_matches_oracle_random(g):
    chi, cert = star_chromatic_index(g)
    assert is_star_coloring(g, cert)
    assert chi == oracles.oracle_chi(g)


@given(subcubic_multigraphs(min_n=2, max_n=7), st.data())
def test_chi_monotone_under_deletion(g, data):
    chi = star_chromatic_index(g)[0]
    v = data.draw(st.integers(0, g.n - 1))
    assert star_chromatic_index(g.delete_vertex(v))[0] <= chi
    if g.m:
        e = data.draw(st.integers(0, g.m - 1))
        assert star_chromatic_index(g.delete_edge(e))[0] <= chi


@given(subcubic_multigraphs(max_n=7))
def test_chi_bounds(g):
    chi, _ = star_chromatic_index(g)
    if g.m:
        assert g.max_degree <= chi <= min(7, g.m)


def test_long_path_no_recursion_blowup():
    assert star_chromatic_index(zoo.path(500))[0] == 3
    assert is_star_k_colorable(zoo.path(2000), 3) is not None


@given(subcubic_multigraphs(max_n=10))
def test_edge_order_is_connected_and_closes_cycles_first(g):
    orders = _edge_orders(g)
    components = [c for c in g.components() if len(c) > 1]
    assert len(orders) == len(components)
    for component, order in zip(components, orders):
        members = set(component)
        own = sorted(e for e, (u, _) in enumerate(g.edges) if u in members)
        assert sorted(order) == own
        reached = set(g.edges[order[0]])
        for i, eid in enumerate(order[1:], start=1):
            ends = set(g.edges[eid])
            assert ends & reached  # touches an earlier edge
            if not ends <= reached:
                # a new vertex only once no unlisted edge closes a cycle
                assert not any(set(g.edges[f]) <= reached for f in order[i:])
            reached |= ends


def test_edge_order_roots_at_the_densest_ball():
    # a claw at vertex 0 hanging off the 4-cycle 4-5-6-7: 0 is the least
    # vertex of degree 3, but the balls of the cycle's vertices hold a
    # cycle, and 4 has the larger degree among them
    g = build(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)])
    order = _edge_orders(g)[0]
    assert [g.edges[e] for e in order[:3]] == [(3, 4), (4, 5), (4, 7)]
    assert g.edges[order[3]] == (0, 3)  # breadth-first once no cycle closes


def test_stats_count_placements_per_k():
    g = zoo.petersen()
    first: dict[int, int] = {}
    chi, _ = star_chromatic_index(g, stats=first)
    again: dict[int, int] = {}
    star_chromatic_index(g, stats=again)
    assert chi == 5
    assert list(first) == [3, 4, 5]
    assert all(nodes > 0 for nodes in first.values())
    assert first == again
    bounded: dict[int, int] = {}
    assert star_chromatic_index(g, max_k=4, stats=bounded) is None
    assert bounded == {3: first[3], 4: first[4]}


# Dense graphs with chi_s = 6 at n 14-19, drawn by the seeded generator of
# the benchmark (perfbench/graphs.py, edge_list_texts(seed, 2016, 14, 20)
# at (seed, index) (28, 257), (40, 90), (40, 136), (40, 1114), (43, 927);
# edges sorted).
# Proving that five colors fail took up to 40 s each when the search was
# rooted at a maximum-degree vertex far from the obstruction.
TAIL_GRAPHS = [
    (16, [(0, 6), (0, 7), (0, 12), (1, 2), (1, 11), (1, 12), (2, 11), (2, 14),
          (3, 10), (3, 10), (3, 11), (4, 8), (4, 9), (4, 15), (5, 9), (5, 12),
          (5, 15), (7, 13), (7, 13), (8, 9), (8, 15), (10, 13)]),
    (17, [(0, 1), (1, 8), (1, 9), (2, 5), (2, 12), (2, 14), (3, 9), (3, 16),
          (4, 8), (5, 6), (5, 13), (6, 13), (6, 14), (7, 8), (7, 9), (7, 12),
          (10, 15), (10, 16), (11, 15), (12, 16), (13, 14)]),
    (19, [(0, 8), (0, 10), (0, 12), (1, 7), (1, 9), (1, 11), (2, 3), (2, 5),
          (2, 10), (3, 15), (3, 18), (4, 8), (4, 10), (4, 12), (5, 7), (5, 16),
          (6, 13), (6, 18), (7, 13), (8, 12), (9, 13), (9, 17), (11, 18),
          (14, 15), (14, 16), (15, 16)]),
    (18, [(0, 9), (0, 16), (0, 17), (1, 5), (1, 10), (1, 14), (2, 3), (2, 14),
          (3, 4), (3, 8), (4, 6), (4, 11), (5, 11), (5, 12), (6, 7), (6, 12),
          (7, 13), (8, 12), (8, 13), (9, 15), (9, 17), (10, 11), (10, 15),
          (15, 16), (16, 17)]),
    (15, [(0, 3), (0, 6), (0, 14), (1, 12), (2, 4), (2, 7), (2, 11), (4, 5),
          (4, 9), (5, 7), (5, 9), (6, 11), (6, 14), (7, 9), (8, 10), (8, 11),
          (10, 12), (10, 12), (13, 14)]),
]


@pytest.mark.parametrize("n,edges", TAIL_GRAPHS)
def test_dense_tail_graphs_need_six_colors(n, edges):
    g = build(n, edges)
    start = time.process_time()
    chi, cert = star_chromatic_index(g)
    elapsed = time.process_time() - start
    assert chi == 6
    assert cert.is_total(g.m) and is_star_coloring(g, cert)
    assert oracles.oracle_is_star(g, dict(cert.assignment))
    assert max(cert.assignment.values()) == 6
    assert elapsed < 5  # milliseconds on a 2-vCPU machine, against up to 40 s


# ----------------------------------------------------------------------
# criticality
# ----------------------------------------------------------------------

def critical_forms(max_n, k=5):
    """The star k-critical simple graphs up to max_n vertices, each form
    mapped to the star chromatic index of every vertex deletion."""
    return {f.canon: f.deletion_chi for f in find_critical(max_n, "simple", k=k)}


def test_k33_is_critical():
    assert critical_forms(6)[canonical_form(zoo.complete_bipartite(3, 3))] == (5,) * 6


def test_colorable_graph_is_not_critical():
    assert canonical_form(zoo.cycle(4)) not in critical_forms(6)


def test_uncolorable_but_not_critical():
    # P6 needs 3 colors, and so does the P5 left by deleting an end
    assert canonical_form(zoo.path(6)) not in critical_forms(6, k=2)


def test_path5_is_2_critical():
    found = critical_forms(6, k=2)
    expected = (zoo.cycle(3), zoo.cycle(4), zoo.star(3), zoo.path(5), zoo.cycle(5))
    assert set(found) == {canonical_form(g) for g in expected}
    # vertices in form order: deleting the middle one (last) leaves 2K2
    assert found[canonical_form(zoo.path(5))] == (2, 2, 2, 2, 1)


def test_other_known_critical_graphs():
    found = critical_forms(6)
    assert canonical_form(zoo.prism()) in found
    assert canonical_form(zoo.theta_graph()) in found
