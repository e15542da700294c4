import hashlib
import os
import zlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given

import oracles
import zoo
from starline import (
    atlas,
    build,
    canonical_form,
    decode_canonical,
    enumerate_graphs,
    find_critical,
    load_cache,
    mad,
    star_chromatic_index,
    summary_text,
    sweep,
)
from starline.atlas import CACHE_HEADER, CHECKS, _levels, _splits
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


def test_enumerated_graphs_are_valid_and_distinct():
    seen = set()
    for g in enumerate_graphs(6, "multigraph"):
        assert g.max_degree <= 3
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


def _levels_canonizing_every_child(max_n, mode):
    """Per-level canonical forms without the canonical-deletion filter:
    every child of every class is canonized and deduplicated."""
    cap = 1 if mode == "simple" else 3
    single = build(1, [])
    level = {canonical_form(single): single}
    forms = [sorted(level)]
    for n in range(1, max_n):
        grown = {}
        for g in level.values():
            for r in range(1, 4):
                for attach in combinations_with_replacement(range(n), r):
                    counts = Counter(attach)
                    if all(c <= min(cap, 3 - g.degree(v)) for v, c in counts.items()):
                        child = build(n + 1, list(g.edges) + [(v, n) for v in attach])
                        grown.setdefault(canonical_form(child), child)
        level = grown
        forms.append(sorted(level))
    return forms


@pytest.mark.parametrize("mode,max_n", [("simple", 8), ("multigraph", 7)])
def test_levels_match_canonizing_every_child(mode, max_n):
    assert list(_levels(max_n, mode)) == _levels_canonizing_every_child(max_n, mode)


@pytest.mark.parametrize("max_n,mode", [(7, "simple"), (6, "multigraph")])
def test_enumerated_graphs_are_their_decoded_forms(max_n, mode):
    for g in enumerate_graphs(max_n, mode):
        assert decode_canonical(canonical_form(g)) == g


@given(subcubic_multigraphs(max_n=10))
def test_splits_matches_vertex_deletion(g):
    # _splits takes a connected graph: check it on every component
    for comp in g.components():
        if len(comp) < 2:
            continue
        index = {v: i for i, v in enumerate(comp)}
        part = build(len(comp), [(index[a], index[b]) for a, b in g.edges if a in index])
        nbrs = [[u for u, _ in entries] for entries in part.adjacency]
        for w in range(part.n):
            assert _splits(nbrs, w) == (not part.delete_vertex(w).is_connected())


def test_splits_with_parallel_edges():
    # a double edge 0=1, a single edge 1-2 and a double edge 2=3
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
    nbrs = [[u for u, _ in entries] for entries in g.adjacency]
    assert [_splits(nbrs, w) for w in range(g.n)] == [False, True, True, False]
    for w in range(g.n):
        assert _splits(nbrs, w) == (not g.delete_vertex(w).is_connected())


@pytest.fixture(scope="module")
def acceptance_levels():
    """Each level's canonical forms at acceptance scale, per mode."""
    return {
        mode: list(_levels(max_n, mode))
        for mode, max_n in (("simple", 10), ("multigraph", 8))
    }


def test_decode_canonical_roundtrips_acceptance_forms(acceptance_levels):
    for levels in acceptance_levels.values():
        for forms in levels:
            for form in forms:
                assert canonical_form(decode_canonical(form)) == form


def test_frozen_catalogue_rows_match_enumeration(acceptance_levels):
    for mode, levels in acceptance_levels.items():
        rows = [(len(forms), hashlib.sha256(b"".join(forms)).hexdigest()) for forms in levels]
        assert rows == list(atlas._CATALOGUE[mode][: len(levels)])


def test_enumeration_guards():
    with pytest.raises(ValueError):
        list(enumerate_graphs(13, "simple"))
    with pytest.raises(ValueError):
        list(enumerate_graphs(10, "multigraph"))
    with pytest.raises(ValueError):
        list(enumerate_graphs(4, "sparse"))
    for max_n, mode in ((-3, "simple"), (-1, "multigraph")):
        with pytest.raises(ValueError):
            list(enumerate_graphs(max_n, mode))
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


def test_cache_hit_must_match_simple_flag(tmp_path):
    path = str(tmp_path / "results.cache")
    cold = sweep(5, "simple", cache=path)
    lines = (tmp_path / "results.cache").read_text().splitlines()
    fields = lines[5].split()
    fields[3] = str(1 - int(fields[3]))
    body = " ".join(fields[:6])
    lines[5] = f"{body} {zlib.crc32(body.encode()):08x}"
    (tmp_path / "results.cache").write_text("\n".join(lines) + "\n")

    warm = sweep(5, "simple", cache=path)
    assert warm.warnings == (
        f"{path}:6: fields disagree with the canonical form, skipped",
    )
    assert (warm.cache_hits, warm.cache_misses) == (19, 1)
    assert summary_text(warm) == summary_text(cold)
    assert warm.records == cold.records
    # the rewrite carries the re-solved record and drops the bad line
    entries, warnings = load_cache(path)
    assert (len(entries), warnings) == (20, [])
    healed = sweep(5, "simple", cache=path)
    assert (healed.cache_hits, healed.cache_misses, healed.warnings) == (20, 0, ())


def test_cache_rejects_missing_header(tmp_path):
    path = tmp_path / "results.cache"
    path.write_text("not a cache\n")
    entries, warnings = load_cache(str(path))
    assert entries == {}
    assert warnings


# the 4-vertex path's form with a forged chi of 7 (its true chi is 3)
FORGED_PATH_LINE = "04010100000100 4 3 1 3/2 7"


def _with_checksum(body):
    return f"{body} {zlib.crc32(body.encode()):08x}"


def test_cache_lines_that_disagree_are_all_skipped(tmp_path):
    path = tmp_path / "results.cache"
    cold = sweep(6, "simple", cache=str(path))
    form = FORGED_PATH_LINE.split()[0]
    genuine = [line for line in path.read_text().splitlines() if line.startswith(form)]
    assert len(genuine) == 1
    with open(path, "a") as fh:
        fh.write(_with_checksum(FORGED_PATH_LINE) + "\n")
    lineno = cold.total + 2

    entries, warnings = load_cache(str(path))
    assert bytes.fromhex(form) not in entries
    assert len(entries) == cold.total - 1
    assert warnings == [f"{path}:{lineno}: another line disagrees on this form, all skipped"]
    healed = sweep(6, "simple", cache=str(path))
    assert (healed.cache_hits, healed.cache_misses) == (cold.total - 1, 1)
    assert summary_text(healed) == summary_text(cold)
    assert [line for line in path.read_text().splitlines() if line.startswith(form)] == genuine


def test_cache_lines_that_repeat_one_record_agree(tmp_path):
    path = tmp_path / "results.cache"
    cold = sweep(5, "simple", cache=str(path))
    lines = path.read_text().splitlines()
    with open(path, "a") as fh:
        fh.write(lines[3] + "\n" + lines[3] + "\n")
    entries, warnings = load_cache(str(path))
    assert (len(entries), warnings) == (cold.total, [])
    warm = sweep(5, "simple", cache=str(path))
    assert (warm.cache_hits, warm.cache_misses, warm.warnings) == (cold.total, 0, ())


def test_missing_cache_is_empty():
    entries, warnings = load_cache("/nonexistent/path/results.cache")
    assert entries == {}
    assert warnings == []


@pytest.fixture
def enumerations(monkeypatch):
    """Record each call to ``_levels`` that a sweep makes."""
    calls = []
    levels = atlas._levels

    def spy(*args):
        calls.append(args)
        return levels(*args)

    monkeypatch.setattr(atlas, "_levels", spy)
    return calls


def test_warm_sweep_reads_a_full_cache_without_enumerating(tmp_path, monkeypatch):
    path = str(tmp_path / "results.cache")
    sweep(6, "simple", cache=path)
    sweep(5, "multigraph", cache=path)
    # one file holds both modes; a smaller max_n is also served from it
    runs = (("simple", 6), ("multigraph", 5), ("simple", 4))
    uncached = {(mode, n): sweep(n, mode) for mode, n in runs}

    def refuse(*args):
        raise AssertionError("a warm sweep on a full cache enumerated")

    monkeypatch.setattr(atlas, "_levels", refuse)
    for (mode, n), reference in uncached.items():
        warm = sweep(n, mode, cache=path)
        assert (warm.cache_hits, warm.cache_misses, warm.warnings) == (warm.total, 0, ())
        assert warm.records == reference.records
        assert summary_text(warm) == summary_text(reference)


def _rewrite_line(lines, index, change):
    fields = lines[index].split()
    change(fields)
    body = " ".join(fields[:6])
    lines[index] = f"{body} {zlib.crc32(body.encode()):08x}"


@pytest.mark.parametrize(
    "index,change",
    [
        (1, lambda n: str(int(n) + 1)),
        (2, lambda m: str(int(m) - 1)),
        (3, lambda simple: str(1 - int(simple))),
        (0, lambda form: form + "00"),
    ],
    ids=["n", "m", "simple", "form-length"],
)
def test_load_cache_skips_fields_that_disagree_with_the_form(tmp_path, index, change):
    path = tmp_path / "results.cache"
    sweep(4, "multigraph", cache=str(path))
    lines = path.read_text().splitlines()

    def damage(fields):
        fields[index] = change(fields[index])

    _rewrite_line(lines, 5, damage)
    path.write_text("\n".join(lines) + "\n")
    entries, warnings = load_cache(str(path))
    assert len(entries) == 19
    assert warnings == [f"{path}:6: fields disagree with the canonical form, skipped"]


def _delete_entry(lines):
    del lines[5]


def _swap_entry_for_another_class(lines):
    # the last record becomes a valid-CRC record for a disconnected
    # 5-vertex graph: a form of the level's length, but of no class in
    # the connected catalogue
    canon = canonical_form(build(5, [(0, 1), (2, 3)])).hex()

    def forge(fields):
        fields[:4] = [canon, "5", "2", "1"]

    _rewrite_line(lines, len(lines) - 1, forge)


def _add_entry_at_a_level(lines):
    lines.append(lines[-1])
    _swap_entry_for_another_class(lines)


def _misstate_edge_count(lines):
    def bump(fields):
        fields[2] = str(int(fields[2]) + 1)

    _rewrite_line(lines, 5, bump)


@pytest.mark.parametrize(
    "damage,hits,misses,warned",
    [
        (_delete_entry, 19, 1, 0),
        (_add_entry_at_a_level, 20, 0, 0),
        (_swap_entry_for_another_class, 19, 1, 0),
        (_misstate_edge_count, 19, 1, 1),
    ],
)
def test_incomplete_or_inconsistent_cache_falls_back_to_enumeration(
    tmp_path, enumerations, damage, hits, misses, warned
):
    path = tmp_path / "results.cache"
    cold = sweep(5, "simple", cache=str(path))
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    enumerations.clear()

    warm = sweep(5, "simple", cache=str(path))
    assert len(enumerations) == 1
    assert (warm.cache_hits, warm.cache_misses, len(warm.warnings)) == (hits, misses, warned)
    assert warm.records == cold.records
    assert summary_text(warm) == summary_text(cold)


def test_guards_hold_on_a_warm_cache(tmp_path):
    path = str(tmp_path / "results.cache")
    sweep(4, "simple", cache=path)
    sweep(4, "multigraph", cache=path)
    for max_n, mode in (
        (13, "simple"),
        (10, "multigraph"),
        (4, "sparse"),
        (-5, "simple"),
        (-1, "multigraph"),
    ):
        with pytest.raises(ValueError):
            sweep(max_n, mode, cache=path)


def test_a_file_without_the_header_is_never_written(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("my notes\n")
    for _ in range(2):
        summary = sweep(4, "simple", cache=str(path))
        assert path.read_bytes() == b"my notes\n"
        assert summary.warnings == (
            f"{path}: missing '{CACHE_HEADER}' header, ignoring file",
        )
        assert summary_text(summary) == summary_text(sweep(4, "simple"))


def test_cache_rewrite_replaces_a_cut_last_line(tmp_path):
    path = tmp_path / "results.cache"
    sweep(5, "simple", cache=str(path))
    cold = path.read_bytes()
    # a crash mid-write: the last line loses the end of its checksum
    path.write_bytes(cold[:-5])
    healed = sweep(5, "simple", cache=str(path))
    assert (healed.cache_hits, healed.cache_misses) == (19, 1)
    assert healed.warnings == (f"{path}:21: checksum mismatch, skipped",)
    assert path.read_bytes() == cold


def test_cache_rewrite_drops_a_line_that_names_no_form(tmp_path):
    path = tmp_path / "results.cache"
    sweep(5, "simple", cache=str(path))
    cold = path.read_bytes()
    with open(path, "a", encoding="ascii") as fh:
        fh.write("planted bad cache line\n")
    warm = sweep(5, "simple", cache=str(path))
    assert (warm.cache_hits, warm.cache_misses) == (20, 0)
    assert warm.warnings == (f"{path}:22: expected 7 fields, skipped",)
    assert path.read_bytes() == cold
    assert sweep(5, "simple", cache=str(path)).warnings == ()


def test_cache_rewrite_keeps_the_records_of_both_modes(tmp_path):
    path = tmp_path / "results.cache"
    simple = {r.canon for r in sweep(5, "simple", cache=str(path)).records}
    multi = {r.canon for r in sweep(4, "multigraph", cache=str(path)).records}
    assert set(load_cache(str(path))[0]) == simple | multi
    # a simple sweep that re-solves one form rewrites the shared file
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    assert sweep(5, "simple", cache=str(path)).cache_misses == 1
    assert set(load_cache(str(path))[0]) == simple | multi
    again = sweep(4, "multigraph", cache=str(path))
    assert (again.cache_misses, again.warnings) == (0, ())


def test_clean_warm_sweep_leaves_the_cache_untouched(tmp_path):
    path = tmp_path / "results.cache"
    sweep(5, "simple", cache=str(path))
    os.utime(path, ns=(10**18, 10**18))
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    sweep(5, "simple", cache=str(path))
    sweep(3, "simple", cache=str(path))
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before


def test_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "results.cache"
    sweep(4, "simple", cache=str(path))
    cold = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        sweep(5, "simple", cache=str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.cache"]
    assert path.read_bytes() == cold


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the worker pool with an in-process map that records the
    size each pool is opened with."""
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(atlas, "_WorkerPool", FakePool)
    return sizes


@pytest.mark.parametrize(
    "max_n,jobs,cpus,size",
    [
        (5, 64, 4, 4),  # 20 misses: no more workers than CPUs
        (5, 3, 4, 3),  # no more than asked for
        (3, 64, 64, 4),  # no more than misses (4 graphs at n <= 3)
        (5, 64, 1, None),  # one worker: solved in this process
        (5, 64, None, None),  # CPU count unknown: as for one CPU
    ],
)
def test_sweep_bounds_its_workers(pool_sizes, monkeypatch, max_n, jobs, cpus, size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    summary = sweep(max_n, "simple", jobs=jobs)
    assert pool_sizes == ([] if size is None else [size])
    assert summary.records == sweep(max_n, "simple").records


def test_warm_sweep_opens_no_pool(pool_sizes, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cache = str(tmp_path / "results.cache")
    sweep(5, "simple", cache=cache, jobs=2)
    assert pool_sizes == [2]
    sweep(5, "simple", cache=cache, jobs=2)
    assert pool_sizes == [2]


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
        assert max(f.deletion_chi) <= 5
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


@pytest.mark.parametrize("k", [3, 4])
def test_find_critical_stops_at_the_first_deletion_over_k(monkeypatch, k):
    reference = find_critical(6, "simple", k=k)
    colorable = atlas.is_star_k_colorable
    solve = atlas.star_chromatic_index
    solved = []  # per graph tested, the chi_s of each deletion solved

    def decide(g, palette):
        solved.append([])
        return colorable(g, palette)

    def solve_deletion(g):
        found = solve(g)
        solved[-1].append(found[0])
        return found

    monkeypatch.setattr(atlas, "is_star_k_colorable", decide)
    monkeypatch.setattr(atlas, "star_chromatic_index", solve_deletion)
    findings = find_critical(6, "simple", k=k)
    assert any(chis and chis[-1] > k for chis in solved)
    for chis in solved:
        assert all(chi <= k for chi in chis[:-1])
    assert [(f.canon, f.deletion_chi) for f in findings] == [
        (f.canon, f.deletion_chi) for f in reference
    ]
    for f in findings:
        assert len(f.deletion_chi) == f.graph.n


def test_critical_graphs_have_high_density():
    for f in find_critical(6, "multigraph"):
        assert mad(f.graph)[0] >= Fraction(12, 5)
