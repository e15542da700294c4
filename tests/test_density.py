import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
import zoo
from oracles import mad_brute
from starline import build, enumerate_graphs, mad
from strategies import random_subcubic, subcubic_multigraphs


def edges_inside(g, subset):
    inside = set(subset)
    return sum(1 for u, v in g.edges if u in inside and v in inside)


def densest_union(g):
    """Union of every vertex set attaining the maximum ``e(S) / |S|``,
    found by scanning all nonempty subsets."""
    best, union = Fraction(-1), set()
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            density = Fraction(edges_inside(g, subset), size)
            if density > best:
                best, union = density, set(subset)
            elif density == best:
                union.update(subset)
    return tuple(sorted(union))


# ----------------------------------------------------------------------
# mad examples
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_mad_cycle(n):
    assert mad(zoo.cycle(n))[0] == 2


def test_mad_values():
    assert mad(zoo.complete(4))[0] == 3
    assert mad(zoo.parallel(3))[0] == 3
    assert mad(zoo.complete_bipartite(3, 3))[0] == 3
    assert mad(zoo.path(4))[0] == Fraction(3, 2)
    assert mad(build(1, []))[0] == 0


def test_mad_witness_is_optimal_subset():
    g = zoo.paw()
    density, witness = mad(g)
    assert density == 2
    assert Fraction(2 * edges_inside(g, witness), len(witness)) == density


def test_mad_dense_core_found():
    edges = list(zoo.diamond().edges) + [(2, 4), (4, 5)]
    g = build(6, edges)
    density, witness = mad(g)
    assert density == Fraction(5, 2)
    assert sorted(witness) == [0, 1, 2, 3]


def test_mad_witness_is_union_of_densest_sets():
    for mode, top in (("simple", 8), ("multigraph", 6)):
        for g in enumerate_graphs(top, mode):
            assert mad(g)[1] == densest_union(g), g.edges


def test_mad_errors():
    with pytest.raises(ValueError):
        mad(build(0, []))
    with pytest.raises(ValueError):
        mad_brute(zoo.path(21))


@given(subcubic_multigraphs(min_n=1, max_n=8))
def test_mad_equals_brute_and_oracle(g):
    exact, witness = mad(g)
    brute, brute_witness = mad_brute(g)
    assert exact == brute
    assert Fraction(2 * edges_inside(g, witness), len(witness)) == exact
    assert Fraction(2 * edges_inside(g, brute_witness), len(brute_witness)) == exact


def test_mad_flow_equals_brute_on_enumerated():
    for mode, top in (("simple", 10), ("multigraph", 7)):
        for g in enumerate_graphs(top, mode):
            assert mad(g)[0] == mad_brute(g)[0]


@given(subcubic_multigraphs(min_n=2, max_n=8), st.data())
def test_mad_monotone_under_deletion(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    assert mad(g.delete_vertex(v))[0] <= mad(g)[0]
    if g.m:
        e = data.draw(st.integers(0, g.m - 1))
        assert mad(zoo.delete_edge(g, e))[0] <= mad(g)[0]


@given(subcubic_multigraphs(min_n=1, max_n=10))
def test_mad_at_least_average(g):
    assert mad(g)[0] >= Fraction(2 * g.m, g.n)


def test_mad_long_path_with_chords():
    # the first cut routes flow along augmenting paths over a thousand arcs
    # long, past the interpreter's recursion limit
    n = 3000
    g = build(n, [(i, i + 1) for i in range(n - 1)] + [(0, 10), (5, 15)])
    density, witness = mad(g)
    assert density == Fraction(17, 8)
    assert witness == tuple(range(16))
    assert Fraction(2 * edges_inside(g, witness), len(witness)) == density


@pytest.mark.parametrize("g,delta", [(zoo.cube(), 3), (zoo.petersen(), 3), (zoo.cycle(6), 2)])
def test_mad_regular(g, delta):
    assert mad(g)[0] == delta


def test_mad_500_random_samples():
    rng = random.Random(20260815)
    for _ in range(500):
        g = random_subcubic(rng, rng.randint(1, 12))
        assert mad(g)[0] == mad_brute(g)[0]
