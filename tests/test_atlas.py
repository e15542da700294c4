from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given

import oracles
import zoo
from starline import (
    build,
    canonical_form,
    enumerate_graphs,
    find_critical,
    load_cache,
    mad,
    star_chromatic_index,
    summary_text,
    sweep,
)
from starline.atlas import CACHE_HEADER, CHECKS, _cut_vertices, _levels
from strategies import subcubic_multigraphs

SIMPLE_LEVELS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64}
MULTI_LEVELS = {1: 1, 2: 3, 3: 4, 4: 12, 5: 22, 6: 68, 7: 166}


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def test_simple_level_counts():
    counts = Counter(g.n for g in enumerate_graphs(7, "simple"))
    assert dict(counts) == SIMPLE_LEVELS


def test_multigraph_level_counts():
    counts = Counter(g.n for g in enumerate_graphs(7, "multigraph"))
    assert dict(counts) == MULTI_LEVELS


def test_counts_match_labeled_brute_force():
    simple = Counter(g.n for g in enumerate_graphs(5, "simple"))
    for n in range(1, 6):
        assert simple[n] == oracles.brute_connected_classes(n, "simple")
    multi = Counter(g.n for g in enumerate_graphs(4, "multigraph"))
    for n in range(1, 5):
        assert multi[n] == oracles.brute_connected_classes(n, "multigraph")


def test_disconnected_mode_counts():
    counts = Counter(g.n for g in enumerate_graphs(3, "simple", connected=False))
    assert dict(counts) == {1: 1, 2: 2, 3: 4}


def test_enumerated_graphs_are_valid_and_distinct():
    seen = set()
    for g in enumerate_graphs(6, "multigraph"):
        assert g.is_subcubic
        assert g.is_connected()
        form = canonical_form(g)
        assert form not in seen
        seen.add(form)


def test_simple_mode_yields_simple_graphs():
    assert all(g.is_simple for g in enumerate_graphs(6, "simple"))


def test_enumeration_is_deterministic():
    first = [g.edges for g in enumerate_graphs(6, "multigraph")]
    second = [g.edges for g in enumerate_graphs(6, "multigraph")]
    assert first == second


def test_known_graphs_are_enumerated():
    forms = {canonical_form(g) for g in enumerate_graphs(6, "simple")}
    for g in (zoo.complete(4), zoo.complete_bipartite(3, 3), zoo.prism(), zoo.cycle(6)):
        assert canonical_form(g) in forms


def _levels_canonizing_every_child(max_n, mode, connected):
    """Per-level canonical forms without the canonical-deletion filter:
    every child of every class is canonized and deduplicated."""
    cap = 1 if mode == "simple" else 3
    single = build(1, [])
    level = {canonical_form(single): single}
    forms = [sorted(level)]
    for n in range(1, max_n):
        grown = {}
        for g in level.values():
            for r in range(1 if connected else 0, 4):
                for attach in combinations_with_replacement(range(n), r):
                    counts = Counter(attach)
                    if all(c <= min(cap, 3 - g.degree(v)) for v, c in counts.items()):
                        child = build(n + 1, list(g.edges) + [(v, n) for v in attach])
                        grown.setdefault(canonical_form(child), child)
        level = grown
        forms.append(sorted(level))
    return forms


@pytest.mark.parametrize("mode,max_n", [("simple", 8), ("multigraph", 7)])
@pytest.mark.parametrize("connected", [True, False])
def test_levels_match_canonizing_every_child(mode, max_n, connected):
    forms = [[key for key, _ in level] for level in _levels(max_n, mode, connected)]
    assert forms == _levels_canonizing_every_child(max_n, mode, connected)


@given(subcubic_multigraphs(max_n=10))
def test_cut_vertices_match_vertex_deletion(g):
    nbrs = [[u for u, _ in entries] for entries in g.adjacency]
    parts = len(g.components())
    expected = {v for v in range(g.n) if len(g.delete_vertex(v).components()) > parts}
    assert _cut_vertices(nbrs) == expected
    if g.n > 1 and g.is_connected():
        assert expected == {v for v in range(g.n) if not g.delete_vertex(v).is_connected()}


def test_cut_vertices_with_parallel_edges():
    # a double edge 0=1 with a pendant 2 at 1, and a triple edge 3=4
    g = build(5, [(0, 1), (0, 1), (1, 2), (3, 4), (3, 4), (3, 4)])
    nbrs = [[u for u, _ in entries] for entries in g.adjacency]
    assert _cut_vertices(nbrs) == {1}


def test_enumeration_guards():
    with pytest.raises(ValueError):
        list(enumerate_graphs(13, "simple"))
    with pytest.raises(ValueError):
        list(enumerate_graphs(10, "multigraph"))
    with pytest.raises(ValueError):
        list(enumerate_graphs(4, "sparse"))
    assert list(enumerate_graphs(0, "simple")) == []


# ----------------------------------------------------------------------
# sweeps and checks
# ----------------------------------------------------------------------

def test_sweep_clean_at_small_scale():
    summary = sweep(6, "simple")
    assert summary.total == sum(SIMPLE_LEVELS[n] for n in range(1, 7))
    by_name = {c.name: c for c in summary.checks}
    assert set(by_name) == set(CHECKS)
    assert all(c.holds for c in summary.checks)
    assert by_name["thm13a"].checked == summary.total
    assert by_name["cube-equiv"].checked == 3


def test_sweep_records_match_direct_solves():
    summary = sweep(5, "simple")
    records = {r.canon: r for r in summary.records}
    for g in (zoo.complete(4), zoo.cycle(5), zoo.theta_graph()):
        rec = records[canonical_form(g)]
        assert rec.n == g.n
        assert rec.m == g.m
        assert rec.density == mad(g)[0]
        assert rec.chi == star_chromatic_index(g)[0]
        assert rec.simple


def test_sweep_check_subset_and_validation():
    summary = sweep(4, "simple", checks=("thm13a",))
    assert [c.name for c in summary.checks] == ["thm13a"]
    with pytest.raises(ValueError):
        sweep(4, "simple", checks=("thm99",))
    with pytest.raises(ValueError):
        sweep(4, "simple", jobs=0)


def test_sweep_multigraph_mode():
    summary = sweep(5, "multigraph")
    assert summary.total == sum(MULTI_LEVELS[n] for n in range(1, 6))
    assert any(not r.simple for r in summary.records)
    assert all(c.holds for c in summary.checks)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

def test_cache_cold_then_warm(tmp_path):
    path = str(tmp_path / "results.cache")
    cold = sweep(5, "simple", cache=path)
    assert (cold.cache_hits, cold.cache_misses) == (0, 20)
    lines = (tmp_path / "results.cache").read_text().splitlines()
    assert lines[0] == CACHE_HEADER
    assert len(lines) == 21
    warm = sweep(5, "simple", cache=path)
    assert (warm.cache_hits, warm.cache_misses) == (20, 0)
    assert summary_text(warm) == summary_text(cold)
    assert warm.records == cold.records


def test_cache_partial_reuse(tmp_path):
    path = str(tmp_path / "results.cache")
    sweep(4, "simple", cache=path)
    grown = sweep(5, "simple", cache=path)
    assert (grown.cache_hits, grown.cache_misses) == (10, 10)
    assert summary_text(grown) == summary_text(sweep(5, "simple"))


def test_cache_load_roundtrip(tmp_path):
    path = str(tmp_path / "results.cache")
    summary = sweep(4, "multigraph", cache=path)
    entries, warnings = load_cache(path)
    assert warnings == []
    assert len(entries) == summary.total
    for record in summary.records:
        entry = entries[record.canon]
        assert (entry.n, entry.m, entry.chi) == (record.n, record.m, record.chi)
        assert entry.density == record.density
        assert entry.simple == record.simple


def test_cache_detects_corruption(tmp_path):
    path = str(tmp_path / "results.cache")
    cold = sweep(5, "simple", cache=path)
    lines = (tmp_path / "results.cache").read_text().splitlines()
    body = lines[3].split()
    body[5] = str(int(body[5]) + 1)
    lines[3] = " ".join(body)
    lines[7] = "garbled line"
    (tmp_path / "results.cache").write_text("\n".join(lines) + "\n")

    entries, warnings = load_cache(path)
    assert len(entries) == 18
    assert len(warnings) == 2

    healed = sweep(5, "simple", cache=path)
    assert (healed.cache_hits, healed.cache_misses) == (18, 2)
    assert len(healed.warnings) == 2
    assert summary_text(healed) == summary_text(cold)
    reloaded, _ = load_cache(path)
    assert len(reloaded) == 20


def test_cache_rejects_missing_header(tmp_path):
    path = tmp_path / "results.cache"
    path.write_text("not a cache\n")
    entries, warnings = load_cache(str(path))
    assert entries == {}
    assert warnings


def test_missing_cache_is_empty():
    entries, warnings = load_cache("/nonexistent/path/results.cache")
    assert entries == {}
    assert warnings == []


def test_parallel_sweep_matches_serial(tmp_path):
    serial = sweep(6, "simple")
    parallel = sweep(6, "simple", jobs=2)
    assert serial.records == parallel.records
    assert summary_text(serial) == summary_text(parallel)


# ----------------------------------------------------------------------
# criticality hunt
# ----------------------------------------------------------------------

def test_find_critical_simple_n6():
    findings = find_critical(6, "simple")
    assert len(findings) == 3
    forms = {f.canon for f in findings}
    assert forms == {
        canonical_form(zoo.theta_graph()),
        canonical_form(zoo.complete_bipartite(3, 3)),
        canonical_form(zoo.prism()),
    }
    for f in findings:
        assert f.criticality.critical
        assert f.lemmas.all_pass
        assert f.charge.all_nonnegative
        assert f.charge.conserved


def test_find_critical_multigraph_includes_parallel_obstruction():
    findings = find_critical(6, "multigraph")
    assert len(findings) == 4
    nonsimple = [f for f in findings if not f.graph.is_simple]
    assert len(nonsimple) == 1
    g = nonsimple[0].graph
    assert (g.n, g.m) == (6, 9)
    assert g.degrees == (3,) * 6
    assert nonsimple[0].lemmas.all_pass
    assert nonsimple[0].charge.all_nonnegative


def test_find_critical_small_scales():
    assert find_critical(5, "multigraph") and len(find_critical(5, "multigraph")) == 1
    assert find_critical(4, "simple") == []
    assert find_critical(2, "simple", k=1) == []


def test_critical_graphs_have_high_density():
    for f in find_critical(6, "multigraph"):
        assert mad(f.graph)[0] >= Fraction(12, 5)
