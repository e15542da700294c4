import itertools
import pickle
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import oracles
import zoo
from starline import (
    FormatError,
    build,
    canonical_form,
    decode_canonical,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from strategies import random_subcubic, subcubic_multigraphs


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_triple_edge():
    g = zoo.parallel(3)
    assert g.n == 2
    assert g.m == 3
    assert g.degrees == (3, 3)
    assert g.multiplicity(0, 1) == 3
    assert g.neighbors(0) == (1,)


def test_k33_degrees():
    g = zoo.complete_bipartite(3, 3)
    assert g.degrees == (3,) * 6
    assert g.m == 9
    assert g.is_simple


def test_build_rejects_loop():
    with pytest.raises(ValueError):
        build(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build(2, [(0, 2)])
    with pytest.raises(ValueError):
        build(2, [(-1, 0)])


def test_build_rejects_bad_vertex_count():
    with pytest.raises(ValueError):
        build(-1, [])


def test_build_multiplicity_cap():
    with pytest.raises(ValueError):
        build(2, [(0, 1)] * 4)
    assert not zoo.star(4).is_subcubic


def test_endpoints_normalized_and_other_end():
    g = build(3, [(2, 0), (1, 2)])
    assert g.edges[0] == (0, 2)
    assert g.other_end(0, 0) == 2
    assert g.other_end(0, 2) == 0
    assert g.edges[1] == (1, 2)


@given(subcubic_multigraphs(max_n=8))
def test_handshake(g):
    assert sum(g.degrees) == 2 * g.m


@given(subcubic_multigraphs(max_n=8))
def test_adjacency_consistent_with_edges(g):
    seen_from = {eid: [] for eid in range(g.m)}
    for v in range(g.n):
        for u, eid in g.adjacency[v]:
            assert g.other_end(eid, v) == u
            seen_from[eid].append(v)
    for eid, (u, v) in enumerate(g.edges):
        assert sorted(seen_from[eid]) == sorted((u, v))


# ----------------------------------------------------------------------
# deletion
# ----------------------------------------------------------------------

def test_delete_vertex_k33():
    g = zoo.complete_bipartite(3, 3).delete_vertex(0)
    assert sorted(g.degrees) == [2, 2, 2, 3, 3]
    assert g.m == 6


def test_delete_vertex_tiny():
    assert zoo.path(2).delete_vertex(1).degrees == (0,)
    assert zoo.path(3).delete_vertex(1).m == 0


@given(subcubic_multigraphs(min_n=2, max_n=8), st.data())
def test_delete_vertex_degree_law(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    h = g.delete_vertex(v)
    assert h.n == g.n - 1
    for old in range(g.n):
        if old == v:
            continue
        new = old if old < v else old - 1
        assert h.degree(new) == g.degree(old) - g.multiplicity(old, v)


def test_delete_edge():
    g = zoo.parallel(3).delete_edge(1)
    assert g.m == 2
    assert g.multiplicity(0, 1) == 2
    with pytest.raises(ValueError):
        g.delete_edge(5)


def test_components():
    g = build(5, [(0, 1), (3, 4)])
    assert g.components() == ((0, 1), (2,), (3, 4))
    assert not g.is_connected()
    assert zoo.cycle(4).is_connected()
    assert build(0, []).is_connected()


def test_neighbors_cache_changes_no_equality_hash_or_pickle():
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    twin = build(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    pickled = pickle.dumps(g)
    assert [g.neighbors(v) for v in range(4)] == [(1,), (0, 2), (1, 3), (2,)]
    assert pickle.dumps(g) == pickled
    assert g == twin and hash(g) == hash(twin)
    assert pickle.loads(pickled).neighbors(1) == (0, 2)


# ----------------------------------------------------------------------
# edge-list format
# ----------------------------------------------------------------------

def test_parse_edge_list_example():
    g = parse_edge_list("3\n0 1\n0 1\n1 2\n")
    assert g.n == 3
    assert g.m == 3
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 2) == 1


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# leading\n4\n\n0 1  # trailing\n2 3\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0 1\n",
        "3\n0\n",
        "3\n0 a\n",
        "3\n0 3\n",
        "3\n1 1\n",
        "-2\n",
    ],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


def test_parse_edge_list_error_cites_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_edge_list("3\n0 1\n0 5\n")


@given(subcubic_multigraphs(max_n=9))
def test_edge_list_roundtrip(g):
    text = emit_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == g.n
    assert h.edges == g.edges
    assert emit_edge_list(h) == text


# ----------------------------------------------------------------------
# graph6
# ----------------------------------------------------------------------

def test_graph6_k4():
    assert emit_graph6(zoo.complete(4)) == "C~"
    g = parse_graph6("C~")
    assert g.n == 4
    assert g.m == 6


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<C~").m == 6


def test_graph6_rejects_parallel_edges():
    with pytest.raises(FormatError):
        emit_graph6(zoo.parallel(2))


@pytest.mark.parametrize("text", ["C", "C~~", chr(30) * 2, ""])
def test_graph6_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_graph6(text)


def _nx_graph6(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_graph6_matches_networkx():
    rng = random.Random(1729)
    sizes = [1, 2, 5, 8, 12, 30, 61, 62, 63, 70, 100]
    for n in sizes:
        g = random_subcubic(rng, n, simple=True)
        encoded = emit_graph6(g)
        assert encoded == _nx_graph6(g)
        back = parse_graph6(encoded)
        assert back.n == g.n
        assert sorted(back.edges) == sorted(g.edges)


def test_graph6_parses_networkx_output():
    rng = random.Random(99)
    for _ in range(100):
        g = random_subcubic(rng, rng.randint(1, 20), simple=True)
        back = parse_graph6(_nx_graph6(g))
        assert sorted(back.edges) == sorted(g.edges)


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

def test_canonical_relabeling_equal():
    c4 = zoo.cycle(4)
    relabeled = build(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    assert canonical_form(c4) == canonical_form(relabeled)


def test_canonical_distinguishes():
    assert canonical_form(zoo.path(4)) != canonical_form(zoo.star(3))
    assert canonical_form(zoo.parallel(2)) != canonical_form(zoo.path(2))
    assert canonical_form(zoo.complete_bipartite(3, 3)) != canonical_form(zoo.prism())


def test_canonical_size_guard():
    with pytest.raises(ValueError):
        canonical_form(zoo.path(13))
    assert canonical_form(zoo.path(12))


@given(subcubic_multigraphs(max_n=7), st.data())
def test_canonical_permutation_invariance(g, data):
    perm = tuple(data.draw(st.permutations(range(g.n)))) if g.n else ()
    assert canonical_form(g) == canonical_form(zoo.relabel(g, perm))


def test_canonical_agrees_with_exhaustive_label():
    rng = random.Random(7)
    graphs = [random_subcubic(rng, rng.randint(1, 6)) for _ in range(60)]
    for g1, g2 in itertools.combinations(graphs, 2):
        if (g1.n, g1.m, sorted(g1.degrees)) != (g2.n, g2.m, sorted(g2.degrees)):
            continue
        same_canon = canonical_form(g1) == canonical_form(g2)
        assert same_canon == (oracles.min_perm_label(g1) == oracles.min_perm_label(g2))
        assert same_canon == oracles.isomorphic(g1, g2)


@given(subcubic_multigraphs(max_n=7))
def test_decode_canonical_spells_an_isomorphic_graph(g):
    form = canonical_form(g)
    h = decode_canonical(form)
    assert (h.n, h.m) == (g.n, g.m)
    assert canonical_form(h) == form


@pytest.mark.parametrize(
    "form",
    [b"", b"\x03\x01", b"\x02\x01\x00", b"\x02\x04", b"\x03\x01\x00\xff"],
)
def test_decode_canonical_rejects_malformed(form):
    with pytest.raises(FormatError):
        decode_canonical(form)
