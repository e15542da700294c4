"""Isomorph-free enumeration of subcubic multigraphs, theorem sweeps, and
a persistent, human-auditable result cache.

Enumeration grows graphs one vertex at a time: every connected graph on
n vertices has a vertex whose removal keeps it connected, so attaching a
new vertex by 1..3 edges to every smaller connected graph reaches every
connected isomorphism class; with disconnected graphs allowed the new
vertex may also arrive isolated, and then plain vertex deletion gives
the induction.

Most duplicate children are rejected before they are built, by McKay's
canonical-deletion test (McKay 1998, "Isomorph-free exhaustive
generation"): a child is kept only if its new vertex x could be the
vertex deleted to reach the previous level.  With ``f(v) = (degree,
sorted degrees of v's neighbours)``, a connected child is rejected when
some non-cut vertex w has ``f(w) > f(x)`` (x itself is never a cut
vertex, since deleting it leaves the connected parent); with
disconnected graphs allowed every vertex may be deleted, so the child is
rejected when any w has ``f(w) > f(x)``.  No class is lost: let v be a
deletable vertex of a class C with the largest ``f``.  C - v is in the
previous level, and attaching a new vertex to that representative as v
is attached in C gives a child isomorphic to C whose new vertex attains
the largest ``f``, so that child is kept.  The children that pass are
canonized, and a dict keyed by canonical form removes the duplicates
that remain (ties in ``f`` and equivalent attachments to one parent).

Each level is emitted sorted by canonical form, so the sequence of forms
is a pure function of (max_n, mode, connected).  The representative of a
class is the first accepted child with that form; its labelling is
deterministic but is not part of that contract.

Sweeps solve every enumerated graph for its exact density and star
chromatic index, verify each certificate against the definitional
checker, and evaluate the requested claims.  Results keyed by canonical
form are appended to a cache file whose lines carry their own checksums;
a warm cache changes the work done but never the summary produced.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from multiprocessing import Pool as _WorkerPool
from typing import Iterator

from .density import mad
from .discharge import FIVE_COLOR_DENSITY, AuditReport, apply_rules, audit
from .multigraph import Multigraph, build, canonical_form
from .starcolor import (
    CriticalityReport,
    is_star_coloring,
    is_star_critical,
    star_chromatic_index,
)
from .structure import LemmaReport, covers_cube, lemma_audit, strip_ones, verify_cover

SIMPLE_MAX_N = 12
MULTI_MAX_N = 9
MODES = ("simple", "multigraph")
CHECKS = ("thm13a", "conj6", "main5", "cube-equiv")
CACHE_HEADER = "starline-cache v1"


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def _attachments(g: Multigraph, mode: str) -> Iterator[tuple[int, ...]]:
    """Ways to wire one new vertex into g with 1..3 edges, respecting the
    degree cap on both sides."""
    room = [3 - d for d in g.degrees]
    if mode == "simple":
        avail = [v for v in range(g.n) if room[v] >= 1]
        for r in (1, 2, 3):
            yield from combinations(avail, r)
    else:
        for r in (1, 2, 3):
            for combo in combinations_with_replacement(range(g.n), r):
                if all(combo.count(v) <= room[v] for v in set(combo)):
                    yield combo


def _cut_vertices(nbrs: list[list[int]]) -> set[int]:
    """Cut vertices of the graph with integer neighbour lists ``nbrs``
    (a vertex joined by parallel edges is listed once per edge), by an
    iterative low-link depth-first search.  Edges back to the DFS parent
    are skipped; a parallel pair to the parent could not lower the
    parent's test value anyway, so parallel edges need no other care."""
    n = len(nbrs)
    disc = [-1] * n
    low = [0] * n
    cuts: set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            v, parent, rest = stack[-1]
            for u in rest:
                if u == parent:
                    continue
                if disc[u] < 0:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, v, iter(nbrs[u])))
                    break
                low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
    return cuts


def _last_may_be_deleted(nbrs: list[list[int]], connected: bool) -> bool:
    """Canonical-deletion test for a child whose new vertex x is the last.

    False when some vertex w with ``f(w) > f(x)``, where ``f(v) = (degree,
    sorted degrees of v's neighbours)``, could be deleted in place of x:
    any w when disconnected graphs are allowed, a non-cut w otherwise."""
    deg = [len(entries) for entries in nbrs]
    x = len(nbrs) - 1
    dx = deg[x]
    around_x = sorted(deg[u] for u in nbrs[x])
    larger = [
        w
        for w in range(x)
        if deg[w] > dx
        or (deg[w] == dx and sorted(deg[u] for u in nbrs[w]) > around_x)
    ]
    if not larger:
        return True
    if not connected:
        return False
    cuts = _cut_vertices(nbrs)
    return all(w in cuts for w in larger)


def _levels(
    max_n: int, mode: str, connected: bool
) -> Iterator[list[tuple[bytes, Multigraph]]]:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    guard = SIMPLE_MAX_N if mode == "simple" else MULTI_MAX_N
    if not isinstance(max_n, int) or max_n > guard:
        raise ValueError(f"max_n {max_n!r} exceeds the {mode} guard of {guard}")
    if max_n < 1:
        return
    single = build(1, [])
    level = [(canonical_form(single), single)]
    yield level
    for _ in range(2, max_n + 1):
        grown: dict[bytes, Multigraph] = {}
        for _, parent in level:
            x = parent.n
            base = [[u for u, _ in entries] for entries in parent.adjacency]
            variants = list(_attachments(parent, mode))
            if not connected:
                variants.append(())
            for attach in variants:
                nbrs = [list(entries) for entries in base]
                nbrs.append(list(attach))
                for v in attach:
                    nbrs[v].append(x)
                if not _last_may_be_deleted(nbrs, connected):
                    continue
                child = build(x + 1, list(parent.edges) + [(v, x) for v in attach])
                key = canonical_form(child)
                if key not in grown:
                    grown[key] = child
        level = sorted(grown.items())
        yield level


def enumerate_graphs(
    max_n: int, mode: str = "simple", connected: bool = True
) -> Iterator[Multigraph]:
    """One representative per isomorphism class of loopless graphs with
    maximum degree 3 and 1 <= n <= max_n, smallest first; multigraph mode
    admits edge multiplicities up to 3.

    Each level grows the previous one by a vertex, and a child is kept
    only if its new vertex passes the canonical-deletion test of the
    module docstring, so that most duplicates are never canonized.  The
    classes and their order (by vertex count, then canonical form) are
    fixed; the labelling of each representative is not."""
    for level in _levels(max_n, mode, connected):
        for _, g in level:
            yield g


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheEntry:
    canon: bytes
    n: int
    m: int
    simple: bool
    density: Fraction
    chi: int


def _cache_line(entry: CacheEntry) -> str:
    body = (
        f"{entry.canon.hex()} {entry.n} {entry.m} {int(entry.simple)} "
        f"{entry.density.numerator}/{entry.density.denominator} {entry.chi}"
    )
    return f"{body} {zlib.crc32(body.encode()):08x}"


def load_cache(path: str) -> tuple[dict[bytes, CacheEntry], list[str]]:
    """Read a cache file, skipping (and reporting) anything corrupt."""
    entries: dict[bytes, CacheEntry] = {}
    warnings: list[str] = []
    if not os.path.exists(path):
        return entries, warnings
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != CACHE_HEADER:
        warnings.append(f"{path}: missing '{CACHE_HEADER}' header, ignoring file")
        return entries, warnings
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            warnings.append(f"{path}:{lineno}: expected 7 fields, skipped")
            continue
        body = " ".join(fields[:6])
        if f"{zlib.crc32(body.encode()):08x}" != fields[6]:
            warnings.append(f"{path}:{lineno}: checksum mismatch, skipped")
            continue
        try:
            canon = bytes.fromhex(fields[0])
            n, m, simple_flag, chi = (
                int(fields[1]),
                int(fields[2]),
                int(fields[3]),
                int(fields[5]),
            )
            num, den = fields[4].split("/")
            density = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            warnings.append(f"{path}:{lineno}: unparsable fields, skipped")
            continue
        if simple_flag not in (0, 1):
            warnings.append(f"{path}:{lineno}: bad simple flag, skipped")
            continue
        entries[canon] = CacheEntry(canon, n, m, bool(simple_flag), density, chi)
    return entries, warnings


def _append_cache(path: str, new_entries: list[CacheEntry]) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="ascii") as fh:
        if fresh:
            fh.write(CACHE_HEADER + "\n")
        for entry in new_entries:
            fh.write(_cache_line(entry) + "\n")


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    canon: bytes
    n: int
    m: int
    density: Fraction
    chi: int
    simple: bool
    critical5: bool | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    checked: int
    counterexamples: tuple[tuple[str, str], ...]  # (canonical hex, reason)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class SweepSummary:
    mode: str
    max_n: int
    records: tuple[SweepRecord, ...]
    checks: tuple[CheckResult, ...]
    cache_hits: int
    cache_misses: int
    warnings: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.records)


def _solve_graph(g: Multigraph) -> tuple[Fraction, int]:
    density, _ = mad(g)
    chi, cert = star_chromatic_index(g)
    if not is_star_coloring(g, cert):
        raise RuntimeError("solver produced a certificate the verifier rejects")
    return density, chi


# checks that bound chi_s on every graph: the proved bound of 7 and the
# conjectured bound of 6
_CHI_BOUNDS = {"thm13a": 7, "conj6": 6}


def _evaluate_check(
    name: str, pairs: list[tuple[Multigraph, SweepRecord]]
) -> CheckResult:
    bad: list[tuple[str, str]] = []
    checked = 0
    if name in _CHI_BOUNDS:
        bound = _CHI_BOUNDS[name]
        checked = len(pairs)
        for _, rec in pairs:
            if rec.chi > bound:
                bad.append((rec.canon.hex(), f"chi_s={rec.chi} exceeds {bound}"))
    elif name == "main5":
        for _, rec in pairs:
            if rec.density < FIVE_COLOR_DENSITY:
                checked += 1
                if rec.chi > 5:
                    bad.append(
                        (
                            rec.canon.hex(),
                            f"mad={rec.density} below 12/5 but chi_s={rec.chi}",
                        )
                    )
    elif name == "cube-equiv":
        for g, rec in pairs:
            if not (rec.simple and all(d == 3 for d in g.degrees)):
                continue
            checked += 1
            if rec.chi < 4:
                bad.append((rec.canon.hex(), f"cubic with chi_s={rec.chi} below 4"))
                continue
            cover = covers_cube(g)
            if cover is not None and not verify_cover(g, cover):
                bad.append((rec.canon.hex(), "cover found but failed verification"))
            elif (rec.chi == 4) != (cover is not None):
                side = "covers" if cover is not None else "does not cover"
                bad.append(
                    (rec.canon.hex(), f"chi_s={rec.chi} but {side} the cube")
                )
    else:
        raise ValueError(f"unknown check {name!r}")
    return CheckResult(name, checked, tuple(bad))


def sweep(
    max_n: int,
    mode: str = "simple",
    checks: tuple[str, ...] = CHECKS,
    cache: str | None = None,
    jobs: int = 1,
) -> SweepSummary:
    """Enumerate, solve (or recall), verify, and judge.

    Graphs already present in the cache are not re-solved.  New results
    are appended in enumeration order through this single process, so
    the cache grows deterministically and the summary is independent of
    both the cache temperature and the worker count.
    """
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    pairs = [pair for level in _levels(max_n, mode, True) for pair in level]
    cached: dict[bytes, CacheEntry] = {}
    warnings: list[str] = []
    if cache is not None:
        cached, warnings = load_cache(cache)

    graphs: list[Multigraph] = []
    records: list[SweepRecord | None] = []
    misses: list[int] = []
    for canon, g in pairs:
        graphs.append(g)
        entry = cached.get(canon)
        if entry is not None and entry.n == g.n and entry.m == g.m:
            records.append(
                SweepRecord(canon, g.n, g.m, entry.density, entry.chi, g.is_simple)
            )
        else:
            if entry is not None:
                warnings.append(
                    f"cache entry for {canon.hex()} disagrees with the graph, resolving"
                )
            records.append(None)
            misses.append(len(records) - 1)

    if misses:
        todo = [graphs[i] for i in misses]
        if jobs > 1:
            with _WorkerPool(jobs) as pool:
                solved = list(pool.imap(_solve_graph, todo, chunksize=8))
        else:
            solved = [_solve_graph(g) for g in todo]
        new_entries = []
        for i, (density, chi) in zip(misses, solved):
            g = graphs[i]
            canon = pairs[i][0]
            records[i] = SweepRecord(canon, g.n, g.m, density, chi, g.is_simple)
            new_entries.append(
                CacheEntry(canon, g.n, g.m, g.is_simple, density, chi)
            )
        if cache is not None:
            _append_cache(cache, new_entries)

    full_records = [r for r in records if r is not None]
    assert len(full_records) == len(pairs)
    graph_record_pairs = list(zip(graphs, full_records))
    results = tuple(_evaluate_check(name, graph_record_pairs) for name in checks)
    return SweepSummary(
        mode,
        max_n,
        tuple(full_records),
        results,
        cache_hits=len(pairs) - len(misses),
        cache_misses=len(misses),
        warnings=tuple(warnings),
    )


def summary_text(summary: SweepSummary) -> str:
    """Stable rendering of a sweep: identical for warm and cold caches, so
    cache temperature can never change what a run reports."""
    lines = [
        f"sweep mode={summary.mode} max-n={summary.max_n}",
        f"graphs enumerated: {summary.total}",
    ]
    for check in summary.checks:
        lines.append(
            f"check {check.name}: {check.checked} checked, "
            f"{len(check.counterexamples)} counterexamples"
        )
        for canon_hex, reason in check.counterexamples:
            lines.append(f"  counterexample {canon_hex}: {reason}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# criticality hunt
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalFinding:
    graph: Multigraph
    canon: bytes
    criticality: CriticalityReport
    lemmas: LemmaReport
    charge: AuditReport


def find_critical(max_n: int, mode: str = "simple", k: int = 5) -> list[CriticalFinding]:
    """All enumerated connected graphs that are star k-critical, each with
    its structural predicate report and discharging audit attached."""
    findings: list[CriticalFinding] = []
    for level in _levels(max_n, mode, True):
        for canon, g in level:
            report = is_star_critical(g, k)
            if not report.critical:
                continue
            h, _ = strip_ones(g)
            ledger = apply_rules(h)
            findings.append(
                CriticalFinding(g, canon, report, lemma_audit(g), audit(h, ledger))
            )
    return findings
