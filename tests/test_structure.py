import random
import time

import networkx as nx
import pytest
from hypothesis import given

import oracles
import zoo
from starline import (
    build,
    enumerate_graphs,
    classify,
    covers_cube,
    lemma_audit,
    strip_ones,
    verify_cover,
)
from starline.structure import BAD, GOOD
from strategies import subcubic_multigraphs

FIXTURE_D = build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 2), (5, 3)])
FIXTURE_E = build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4), (3, 5)])

ALL_CHECKS = [
    "L-deg1(a)", "L-deg1(b)", "L-deg1(c)", "L-deg1(d)", "L-deg1(e)",
    "L-deg2(pre)", "L-deg2(a)", "L-deg2(b)", "L-deg2(c)", "L-deg2(d)",
    "L-2nbr", "L-3nbr", "L-noC3", "L-noC4(cycle)", "L-noC4(path)",
    "L-noBad", "L-main(nonadjacent)", "L-main(z-class)",
]


# ----------------------------------------------------------------------
# vertex classification
# ----------------------------------------------------------------------

def test_classify_path():
    profiles = classify(zoo.path(4))
    assert [p.degree for p in profiles] == [1, 2, 2, 1]
    assert profiles[1].two_status == BAD
    assert profiles[2].two_status == BAD
    assert profiles[0].two_status is None


def test_classify_k4():
    profiles = classify(zoo.complete(4))
    assert all(p.degree == 3 and p.class3k == 0 and not p.bad32 for p in profiles)


def test_classify_paw():
    profiles = classify(zoo.paw())
    hub = profiles[2]
    assert hub.degree == 3
    assert hub.class3k == 2
    assert hub.bad32
    assert profiles[0].two_status == BAD


def test_classify_good_two_vertices():
    profiles = classify(zoo.diamond())
    assert profiles[2].two_status == GOOD
    assert profiles[3].two_status == GOOD
    assert profiles[0].class3k == 2
    assert not profiles[0].bad32


def test_classify_counts_parallel_edges_to_one_neighbor():
    g = build(3, [(0, 1), (0, 1), (1, 2)])
    profiles = classify(g)
    assert profiles[1].degree == 3
    assert profiles[1].class3k == 2
    assert profiles[0].two_status == GOOD
    assert not profiles[1].bad32


def test_classify_rejects_high_degree():
    # build enforces the degree cap, so K5 never reaches classify
    with pytest.raises(ValueError, match="degree 4"):
        classify(zoo.complete(5))


# ----------------------------------------------------------------------
# pendant pruning
# ----------------------------------------------------------------------

def test_strip_ones_star():
    h, vmap = strip_ones(zoo.star(3))
    assert (h.n, h.m) == (1, 0)
    assert vmap == (0,)


def test_strip_ones_path():
    h, vmap = strip_ones(zoo.path(3))
    assert (h.n, h.m) == (1, 0)
    assert vmap == (1,)
    h, vmap = strip_ones(zoo.path(2))
    assert (h.n, h.m) == (0, 0)


def test_strip_ones_single_pass_only():
    h, vmap = strip_ones(zoo.path(4))
    assert (h.n, h.m) == (2, 1)
    assert vmap == (1, 2)


def test_strip_ones_fixed_point_on_min_degree_two():
    h, vmap = strip_ones(zoo.complete_bipartite(3, 3))
    assert h.edges == zoo.complete_bipartite(3, 3).edges
    assert vmap == tuple(range(6))


@given(subcubic_multigraphs(max_n=9))
def test_strip_ones_degree_law(g):
    h, vmap = strip_ones(g)
    assert len(vmap) == h.n
    deg = g.degrees
    for i, old in enumerate(vmap):
        pendant_edges = sum(
            1 for u, _ in g.adjacency[old] if deg[u] == 1
        )
        assert h.degree(i) == g.degree(old) - pendant_edges


# ----------------------------------------------------------------------
# structural predicate audit
# ----------------------------------------------------------------------

def _check(report, name):
    """The predicate outcome called ``name`` in a lemma audit report."""
    return next(c for c in report.checks if c.name == name)


def test_audit_check_names_and_lookup():
    report = lemma_audit(zoo.complete_bipartite(3, 3))
    assert [c.name for c in report.checks] == ALL_CHECKS
    assert _check(report, "L-noBad").passed


@pytest.mark.parametrize(
    "g",
    [
        zoo.complete_bipartite(3, 3),
        zoo.prism(),
        zoo.theta_graph(),
        zoo.complete(4),
        zoo.cube(),
    ],
)
def test_audit_passes_on_obstructionlike_graphs(g):
    assert lemma_audit(g).all_pass


def test_audit_path5():
    report = lemma_audit(zoo.path(5))
    assert not report.all_pass
    assert sorted(c.name for c in report.failures()) == [
        "L-deg1(a)",
        "L-deg2(b)",
        "L-deg2(d)",
    ]
    assert _check(report, "L-deg1(a)").witnesses == ((0, 1), (4, 3))
    assert (1, 0, 2) in _check(report, "L-deg2(b)").witnesses
    assert _check(report, "L-noC4(path)").passed


def test_audit_triangle():
    report = lemma_audit(zoo.cycle(3))
    assert _check(report, "L-noC3").witnesses == ((0, 1, 2),)
    assert not _check(report, "L-noC3").passed


def test_audit_four_cycle():
    report = lemma_audit(zoo.cycle(4))
    bad = _check(report, "L-noC4(cycle)")
    assert not bad.passed
    assert bad.witnesses == ((0, 1, 2, 3),)


def test_audit_five_cycle_bad_path():
    report = lemma_audit(zoo.cycle(5))
    bad = _check(report, "L-noC4(path)")
    assert not bad.passed
    assert (0, 1, 2, 3, 4) in bad.witnesses
    assert _check(report, "L-noC3").passed
    assert _check(report, "L-noC4(cycle)").passed


def test_audit_fixture_d_no_bad_neighbor_rule():
    report = lemma_audit(FIXTURE_D)
    assert _check(report, "L-noBad").witnesses == ((0, 1), (5, 4))
    assert sorted(c.name for c in report.failures()) == ["L-deg2(b)", "L-noBad"]


def test_audit_fixture_e_main_lemma():
    report = lemma_audit(FIXTURE_E)
    nonadj = _check(report, "L-main(nonadjacent)")
    zclass = _check(report, "L-main(z-class)")
    assert nonadj.witnesses == ((0, 1, 2, 3, 4, 5), (3, 4, 5, 0, 1, 2))
    assert zclass.witnesses == ((0, 1, 2, 3), (3, 4, 5, 0))


def test_audit_witnesses_name_real_vertices():
    report = lemma_audit(zoo.path(5))
    for check in report.failures():
        for witness in check.witnesses:
            assert all(0 <= v < 5 for v in witness)


def test_audit_runs_checks_on_pruned_graph():
    pendant = build(7, list(zoo.cycle(3).edges) + [(0, 3), (1, 4), (2, 5), (3, 6)])
    report = lemma_audit(pendant)
    noc3 = _check(report, "L-noC3")
    assert not noc3.passed
    assert noc3.witnesses == ((0, 1, 2),)


def assert_cycle_checks_match_oracle(g):
    report = lemma_audit(g)
    for name, witnesses in oracles.oracle_cycle_checks(g).items():
        check = _check(report, name)
        assert check.witnesses == witnesses
        assert check.passed == (not witnesses)


def test_audit_cycles_match_subset_scan_on_enumerated():
    for mode, top in (("simple", 8), ("multigraph", 7)):
        for g in enumerate_graphs(top, mode):
            assert_cycle_checks_match_oracle(g)


@given(subcubic_multigraphs(min_n=1, max_n=10))
def test_audit_cycles_match_subset_scan(g):
    assert_cycle_checks_match_oracle(g)


def test_audit_orders_several_four_cycles_like_subset_scan():
    # two failing 4-cycles; relabelings put them in every relative order
    g = build(8, [(0, 1), (0, 2), (1, 3), (0, 4), (3, 5), (1, 6), (5, 6), (2, 7), (4, 7)])
    assert len(_check(lemma_audit(g), "L-noC4(cycle)").witnesses) == 2
    rng = random.Random(2024)
    for _ in range(40):
        perm = list(range(8))
        rng.shuffle(perm)
        assert_cycle_checks_match_oracle(zoo.relabel(g, perm))


def test_audit_large_prism():
    g = zoo.circular_ladder(500)
    report = lemma_audit(g)
    assert [c.name for c in report.checks] == ALL_CHECKS
    assert report.all_pass


# ----------------------------------------------------------------------
# cube covers
# ----------------------------------------------------------------------

def test_cube_covers_itself():
    mapping = covers_cube(zoo.cube())
    assert mapping is not None
    assert mapping[0] == 0
    assert verify_cover(zoo.cube(), mapping)


def test_relabeled_cube_covers():
    g = zoo.relabel(zoo.cube(), (3, 6, 0, 5, 7, 1, 4, 2))
    mapping = covers_cube(g)
    assert mapping is not None
    assert verify_cover(g, mapping)


def test_double_cover_found_and_four_colorable():
    g = zoo.twisted_cube_cover()
    assert g.is_connected()
    assert g.degrees == (3,) * 16
    mapping = covers_cube(g)
    assert mapping is not None
    assert verify_cover(g, mapping)
    from starline import star_chromatic_index

    assert star_chromatic_index(g)[0] == 4


@pytest.mark.parametrize(
    "g",
    [
        zoo.complete(4),
        zoo.complete_bipartite(3, 3),
        zoo.prism(),
        zoo.petersen(),
        zoo.path(5),
        zoo.diamond(),
        zoo.parallel(3),
    ],
)
def test_non_covers(g):
    assert covers_cube(g) is None


def test_disconnected_cubic_does_not_cover():
    k4 = list(zoo.complete(4).edges)
    shifted = [(u + 4, v + 4) for u, v in k4]
    assert covers_cube(build(8, k4 + shifted)) is None
    # each component covers the cube on its own
    cube = list(zoo.cube().edges)
    assert covers_cube(build(16, cube + [(u + 8, v + 8) for u, v in cube])) is None


def test_non_bipartite_cubic_is_refused_at_once():
    # the cube is bipartite, so an odd cycle rules a cover out before the
    # search, which on this graph would run for minutes
    h = nx.random_regular_graph(3, 2000, seed=2000)
    assert nx.is_connected(h) and not nx.is_bipartite(h)
    g = build(h.number_of_nodes(), list(h.edges))
    start = time.perf_counter()
    assert covers_cube(g) is None
    assert time.perf_counter() - start < 1.0


def test_long_prism_covers_without_deep_recursion():
    # one search level per vertex: 3000 levels, beyond the recursion limit
    g = zoo.circular_ladder(1500)
    mapping = covers_cube(g)
    assert mapping is not None
    assert verify_cover(g, mapping)


def test_verify_cover_rejects_wrong_map():
    mapping = covers_cube(zoo.cube())
    broken = dict(mapping)
    broken[3], broken[5] = broken[5], broken[3]
    assert not verify_cover(zoo.cube(), broken)
    assert not verify_cover(zoo.cube(), {v: 0 for v in range(8)})
