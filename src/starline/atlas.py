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
canonized, and a set of canonical forms removes the duplicates that
remain (ties in ``f`` and equivalent attachments to one parent).

A level is the sorted list of its canonical forms, and the form is the
only identity a class has: the next level grows from each form's decoded
graph (``decode_canonical``, vertices numbered in form order), and that
decoded graph is the representative ``enumerate_graphs`` and
``find_critical`` report.  So both the forms and the edge lists are a
pure function of (max_n, mode, connected).

Sweeps solve every catalogue graph for its exact density and star
chromatic index, verify each certificate against the definitional
checker, and evaluate the requested claims.  Results keyed by canonical
form are kept in a cache file whose lines carry their own checksums, and
which a sweep that learns something rewrites whole, in form order; a warm
cache changes the work done but never the summary produced.

A sweep's catalogue is a list of forms.  For every level (mode, n) the
module freezes the number of classes and the SHA-256 of their sorted,
concatenated forms; when the cached forms of every level up to max_n
match their row, they are the catalogue and nothing is enumerated,
otherwise enumeration supplies it.  Either way, each form the cache
lacks is solved from its decoded graph.  A record holds only its form,
density and chi; its n, m and simplicity are read off the form, and
``load_cache`` skips any line whose stored fields disagree with its
form.  A forged or damaged cache therefore cannot change which classes a
sweep reports (the solved values in a line with a valid checksum are
still trusted).
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterator

from .density import mad
from .discharge import FIVE_COLOR_DENSITY, AuditReport, apply_rules, audit
from .multigraph import Multigraph, build, canonical_form, decode_canonical
from .starcolor import is_star_coloring, is_star_k_colorable, star_chromatic_index
from .structure import LemmaReport, covers_cube, lemma_audit, strip_ones, verify_cover

MODES = ("simple", "multigraph")
CHECKS = ("thm13a", "conj6", "main5", "cube-equiv")
CACHE_HEADER = "starline-cache v1"

# Per vertex count n = 1, 2, ...: the number of connected classes and the
# SHA-256 of their canonical forms, sorted and concatenated (all forms of
# one level have 1 + n(n-1)/2 bytes, so the concatenation is unambiguous).
# Frozen from full enumeration; tests re-derive the rows at acceptance
# scale.  The rows also set how far each mode may be enumerated.
_CATALOGUE = {
    "simple": (
        (1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
        (1, "25dfd29c09617dcc9852281c030e5b3037a338a4712a42a21c907f259c6412a0"),
        (2, "df21ee35d67a541a9073706c2b627ea97f47318e8664aa7047abd7153e2aa264"),
        (6, "9341bacbeb0451c7d2297e6aafd86537d8f4599ac16959e4e598d854ccfd295e"),
        (10, "6dac60930a4925be2370f1b9963ae6f903976f0f1b0b1cb36107b7f124b7e329"),
        (29, "3114cea5825cd7d59a9f51305ef9d81b616a62876b08887f510ea5755318dd2d"),
        (64, "ab081cc7ba21dfdf87e66d3ea225048ceab7998d0f93d87adea54853e7dae47f"),
        (194, "fe3ca68b793ca2bbedfb5733feeee34514832e941722190e3588425bae7715bf"),
        (531, "1cd91aeab9819ac00354e16661fc692ddf0b8c694b82c18649e5267cf590f541"),
        (1733, "8d1263dcda17a47d6445bd28aa268ed8929923293f74c64934055ec4daaf9b1e"),
        (5524, "a03d5b72b15d6b4afc585969c7ef074dd3bef9b0b14732f2a9ab90c0f2a9656f"),
        (19430, "5ff8657070d8ef7eb1eff6ec76e17752cd2bd1f758087ec44405022e98c30f7c"),
    ),
    "multigraph": (
        (1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
        (3, "f3ce6fb435e41fae0b716df7be6c339f5c9f096508523a1809bd967dc21c7db4"),
        (4, "f2097bcec3548e3938c50571ed358e3706c97ae76ecde3a6d3ecb6e233d54009"),
        (12, "c65ad696e0337c5ebaaff196e34f30b850e84c4b84c2f97034223d6ee4325b31"),
        (22, "1fefd208554fcb56cbd932cd7fbd2005b5610379a42e4d855c26cdc2e75ea334"),
        (68, "c74921000e89b31c1903ed37a005a2f0d28aee056bf8fcbec23c406710df3261"),
        (166, "c35dd43c89fed9d5efa0d9462482707349e6329842f835ac14ce1dbffc270474"),
        (534, "d5ecda5e568377486dafb161a119ce3d91c252f1eadb83ce49c5e809b190d018"),
        (1589, "c36063713fccadc1c0a627174b104401b268d357713f2f72926ac112d34ba022"),
    ),
}


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


def _splits(nbrs: list[list[int]], w: int) -> bool:
    """True when deleting ``w`` disconnects the connected graph (at least
    two vertices) with integer neighbour lists ``nbrs``: a breadth-first
    search from another vertex, with ``w`` counted as seen, misses some
    vertex."""
    start = 1 if w == 0 else 0
    seen = [False] * len(nbrs)
    seen[w] = seen[start] = True
    queue = [start]
    for v in queue:
        for u in nbrs[v]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return len(queue) < len(nbrs) - 1


def _last_may_be_deleted(nbrs: list[list[int]], connected: bool) -> bool:
    """Canonical-deletion test for a child whose new vertex x is the last.

    False when some vertex w with ``f(w) > f(x)``, where ``f(v) = (degree,
    sorted degrees of v's neighbours)``, could be deleted in place of x:
    any w when disconnected graphs are allowed; otherwise a w that does
    not split the connected child, asked of one w at a time (``_splits``)
    until the first such w."""
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
    return all(_splits(nbrs, w) for w in larger)


def _check_scale(max_n: int, mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    guard = len(_CATALOGUE[mode])
    if not isinstance(max_n, int) or not 0 <= max_n <= guard:
        raise ValueError(
            f"max_n must be between 0 and the {mode} guard of {guard}, got {max_n!r}"
        )


def _levels(max_n: int, mode: str, connected: bool) -> Iterator[list[bytes]]:
    """The sorted canonical forms of each level n = 1..max_n."""
    _check_scale(max_n, mode)
    if max_n < 1:
        return
    level = [canonical_form(build(1, []))]
    yield level
    for _ in range(2, max_n + 1):
        grown: set[bytes] = set()
        for form in level:
            parent = decode_canonical(form)
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
                grown.add(canonical_form(child))
        level = sorted(grown)
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
    classes come by vertex count, then canonical form, and each is the
    graph its form spells (``decode_canonical``): vertices are numbered
    in form order."""
    for level in _levels(max_n, mode, connected):
        for form in level:
            yield decode_canonical(form)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """What a sweep knows about one graph; also one line of the cache.
    The vertex count, edge count and simplicity are read off the form."""

    canon: bytes
    density: Fraction
    chi: int

    @property
    def n(self) -> int:
        return self.canon[0]

    @property
    def m(self) -> int:
        return sum(self.canon[1:])

    @property
    def simple(self) -> bool:
        return max(self.canon[1:], default=0) <= 1


def _cache_line(entry: SweepRecord) -> str:
    body = (
        f"{entry.canon.hex()} {entry.n} {entry.m} {int(entry.simple)} "
        f"{entry.density.numerator}/{entry.density.denominator} {entry.chi}"
    )
    return f"{body} {zlib.crc32(body.encode()):08x}"


def load_cache(path: str) -> tuple[dict[bytes, SweepRecord], list[str]]:
    """Read a cache file, skipping (and reporting) anything corrupt: a
    line whose ``n m simple`` fields, or whose form's length, disagree
    with its canonical form is corrupt too."""
    entries: dict[bytes, SweepRecord] = {}
    warnings: list[str] = []
    if not os.path.exists(path):
        return entries, warnings
    # surrogateescape keeps each non-ASCII byte inside its own line, so one
    # such line is skipped like any other corrupt line
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii", "surrogateescape").splitlines()
    if not lines or lines[0].strip() != CACHE_HEADER:
        warnings.append(f"{path}: missing '{CACHE_HEADER}' header, ignoring file")
        return entries, warnings
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.isascii():
            warnings.append(f"{path}:{lineno}: not ASCII, skipped")
            continue
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
            n, m, simple, chi = (int(fields[i]) for i in (1, 2, 3, 5))
            num, den = fields[4].split("/")
            record = SweepRecord(canon, Fraction(int(num), int(den)), chi)
        except (ValueError, ZeroDivisionError):
            warnings.append(f"{path}:{lineno}: unparsable fields, skipped")
            continue
        spelled = (record.n, record.m, int(record.simple))
        if (n, m, simple) != spelled or len(canon) != 1 + n * (n - 1) // 2:
            warnings.append(
                f"{path}:{lineno}: fields disagree with the canonical form, skipped"
            )
            continue
        entries[canon] = record
    return entries, warnings


def _write_cache(path: str, records: dict[bytes, SweepRecord]) -> None:
    """Replace a cache file by the header and one line per record, in form
    order (which is catalogue order: a form starts with its vertex count).
    The lines go to ``<path>.<pid>.tmp`` beside the file, which is then
    renamed over it, so a reader sees the old file or the new one whole.
    A non-empty file whose first line (as ``load_cache`` reads it) is not
    the header is not a cache and is left untouched."""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            first = fh.readline().decode("ascii", "surrogateescape").splitlines()
        if first and first[0].strip() != CACHE_HEADER:
            return
    text = CACHE_HEADER + "\n" + "".join(
        _cache_line(records[form]) + "\n" for form in sorted(records)
    )
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(text.encode("ascii"))
        os.replace(temporary, path)
    finally:
        # left behind only when the write or the rename failed
        if os.path.exists(temporary):
            os.remove(temporary)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

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
    if not (cert.is_total(g.m) and is_star_coloring(g, cert)):
        raise RuntimeError("solver produced a certificate the verifier rejects")
    return density, chi


# checks that bound chi_s on every graph: the proved bound of 7 and the
# conjectured bound of 6
_CHI_BOUNDS = {"thm13a": 7, "conj6": 6}


def _evaluate_check(name: str, records: tuple[SweepRecord, ...]) -> CheckResult:
    bad: list[tuple[str, str]] = []
    checked = 0
    if name in _CHI_BOUNDS:
        bound = _CHI_BOUNDS[name]
        checked = len(records)
        for rec in records:
            if rec.chi > bound:
                bad.append((rec.canon.hex(), f"chi_s={rec.chi} exceeds {bound}"))
    elif name == "main5":
        for rec in records:
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
        for rec in records:
            # a subcubic graph is cubic exactly when it has 3n/2 edges
            if not (rec.simple and 2 * rec.m == 3 * rec.n):
                continue
            checked += 1
            if rec.chi < 4:
                bad.append((rec.canon.hex(), f"cubic with chi_s={rec.chi} below 4"))
                continue
            g = decode_canonical(rec.canon)
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


def _catalogue(known: dict[bytes, SweepRecord], max_n: int, mode: str) -> list[bytes]:
    """The forms of every connected class with 1..max_n vertices, in
    catalogue order: the cached forms when those of every level are
    exactly its frozen ``_CATALOGUE`` row (only simple records count in
    simple mode), otherwise the enumerated ones."""
    levels: dict[int, list[bytes]] = {}
    for canon, rec in known.items():
        if rec.simple or mode != "simple":
            levels.setdefault(rec.n, []).append(canon)
    forms: list[bytes] = []
    for n, (count, digest) in enumerate(_CATALOGUE[mode][:max_n], start=1):
        cached = sorted(levels.get(n, ()))
        if len(cached) != count or hashlib.sha256(b"".join(cached)).hexdigest() != digest:
            return [form for level in _levels(max_n, mode, True) for form in level]
        forms += cached
    return forms


def _WorkerPool(processes: int):
    """A process pool, imported only when a sweep opens workers."""
    from multiprocessing import Pool

    return Pool(processes)


def sweep(
    max_n: int,
    mode: str = "simple",
    checks: tuple[str, ...] = CHECKS,
    cache: str | None = None,
    jobs: int = 1,
) -> SweepSummary:
    """Enumerate, solve (or recall), verify, and judge.

    When the cache holds every class of every level up to ``max_n``, as
    the frozen per-level counts and digests in ``_CATALOGUE`` attest, the
    catalogue is read from the cache with no enumeration; otherwise it is
    enumerated.  Each form the cache lacks is solved as its decoded graph
    by at most ``jobs`` worker processes, and by no more than there are
    CPUs or graphs to solve; with one, in this process.  The summary is
    independent of both the cache temperature and the worker count.

    When it solved a form or ``load_cache`` skipped a line, this process
    rewrites the cache once, after solving (``_write_cache``): every
    record it loaded, of either mode, and every one it solved, in form
    order, without the skipped lines.  A clean warm sweep writes nothing.
    """
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    _check_scale(max_n, mode)
    known: dict[bytes, SweepRecord] = {}
    warnings: list[str] = []
    if cache is not None:
        known, warnings = load_cache(cache)
    forms = _catalogue(known, max_n, mode)
    todo = [form for form in forms if form not in known]
    if todo:
        graphs = [decode_canonical(form) for form in todo]
        workers = min(jobs, len(graphs), os.cpu_count() or 1)
        if workers > 1:
            with _WorkerPool(workers) as pool:
                solved = list(pool.imap(_solve_graph, graphs, chunksize=8))
        else:
            solved = [_solve_graph(g) for g in graphs]
        known.update(
            (form, SweepRecord(form, density, chi))
            for form, (density, chi) in zip(todo, solved)
        )
    if cache is not None and (todo or warnings):
        _write_cache(cache, known)
    records = tuple(known[form] for form in forms)
    return SweepSummary(
        mode,
        max_n,
        records,
        tuple(_evaluate_check(name, records) for name in checks),
        cache_hits=len(records) - len(todo),
        cache_misses=len(todo),
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
    """A star k-critical graph: ``deletion_chi[v]`` is the star chromatic
    index of ``graph - v``, at most k for every vertex v."""

    graph: Multigraph
    canon: bytes
    deletion_chi: tuple[int, ...]
    lemmas: LemmaReport
    charge: AuditReport


def find_critical(max_n: int, mode: str = "simple", k: int = 5) -> list[CriticalFinding]:
    """All enumerated connected graphs that are star k-critical (not star
    k-colorable, while every single-vertex deletion is), each with its
    structural predicate report and discharging audit attached."""
    findings: list[CriticalFinding] = []
    for level in _levels(max_n, mode, True):
        for canon in level:
            g = decode_canonical(canon)
            if is_star_k_colorable(g, k) is not None:
                continue
            deletion_chi = tuple(
                star_chromatic_index(g.delete_vertex(v))[0] for v in range(g.n)
            )
            if not all(c <= k for c in deletion_chi):
                continue
            h, _ = strip_ones(g)
            ledger = apply_rules(h)
            findings.append(
                CriticalFinding(g, canon, deletion_chi, lemma_audit(g), audit(h, ledger))
            )
    return findings
