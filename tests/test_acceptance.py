"""Acceptance gate: one test per criterion, each ending in a single
verdict line written through the terminal reporter so it is visible
under a plain ``pytest -v`` run.

The sweeps behind criteria 2-5 run once per session at slightly larger
scale than required (simple n <= 10, multigraph n <= 8) and are shared.
"""

import random
import time
from fractions import Fraction

import pytest

import oracles
import zoo
from starline import (
    apply_rules,
    audit,
    build,
    canonical_form,
    covers_cube,
    enumerate_graphs,
    find_critical,
    is_star_coloring,
    mad,
    star_chromatic_index,
    sweep,
    verify_cover,
)
from oracles import mad_brute
from strategies import random_subcubic

FIVE_COLOR_DENSITY = Fraction(12, 5)


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _grab_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def verdict(criterion, detail):
    line = f"\nACCEPTANCE {criterion}: PASS - {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line)


@pytest.fixture(scope="module")
def sweeps():
    t0 = time.perf_counter()
    simple = sweep(10, "simple")
    multi = sweep(8, "multigraph")
    elapsed = time.perf_counter() - t0
    return simple, multi, elapsed


def check_named(summary, name):
    return next(c for c in summary.checks if c.name == name)


def test_c1_known_values():
    cases = [
        ("K33", zoo.complete_bipartite(3, 3), 6),
        ("Q3", zoo.cube(), 4),
        ("C4", zoo.cycle(4), 3),
        ("P5", zoo.path(5), 3),
        ("K4", zoo.complete(4), 5),
    ]
    slowest = 0.0
    for _, g, expected in cases:
        t0 = time.perf_counter()
        chi, cert = star_chromatic_index(g)
        elapsed = time.perf_counter() - t0
        assert chi == expected
        assert is_star_coloring(g, cert)
        assert elapsed < 5.0
        slowest = max(slowest, elapsed)
    verdict(
        "C1 (known values)",
        "K33=6 Q3=4 C4=3 P5=3 K4=5, slowest solve "
        f"{slowest * 1000:.0f} ms (limit 5 s each)",
    )


def test_c2_seven_color_bound(sweeps):
    simple, multi, elapsed = sweeps
    assert simple.max_n >= 9 and multi.max_n >= 7
    for summary in (simple, multi):
        chk = check_named(summary, "thm13a")
        assert chk.checked == summary.total
        assert chk.holds
        assert max(r.chi for r in summary.records) <= 7
    assert elapsed < 600.0
    verdict(
        "C2 (chi_s <= 7 sweep)",
        f"{simple.total} simple (n<=10) + {multi.total} multigraphs (n<=8), "
        f"0 counterexamples, sweeps took {elapsed:.1f} s (limit 600 s)",
    )


def test_c3_sparse_five_color_theorem(sweeps):
    simple, multi, _ = sweeps
    sparse = 0
    for summary in (simple, multi):
        assert check_named(summary, "main5").holds
        for record in summary.records:
            if record.density < FIVE_COLOR_DENSITY:
                sparse += 1
                assert record.chi <= 5
    verdict(
        "C3 (mad < 12/5 implies chi_s <= 5)",
        f"{sparse} sparse graphs across both sweeps, 0 counterexamples",
    )


def test_c4_six_color_conjecture_report(sweeps):
    simple, multi, _ = sweeps
    violations = sum(
        len(check_named(summary, "conj6").counterexamples)
        for summary in (simple, multi)
    )
    checked = simple.total + multi.total
    verdict(
        "C4 (chi_s <= 6 conjecture, reported not asserted)",
        f"{checked} graphs checked, {violations} violations",
    )


def test_c5_cube_cover_equivalence(sweeps):
    simple, _, _ = sweeps
    chk = check_named(simple, "cube-equiv")
    assert chk.holds
    cubic = 0
    for g in enumerate_graphs(10, "simple"):
        if g.degrees != (3,) * g.n:
            continue
        cubic += 1
        chi = star_chromatic_index(g)[0]
        assert chi >= 4
        mapping = covers_cube(g)
        assert (chi == 4) == (mapping is not None)
        if mapping is not None:
            assert verify_cover(g, mapping)
    assert chk.checked == cubic
    verdict(
        "C5 (chi_s = 4 iff covers the cube)",
        f"{cubic} connected cubic simple graphs with n <= 10, 0 discrepancies",
    )


def test_c6_mad_flow_equals_brute():
    compared = 0
    for mode in ("simple", "multigraph"):
        for g in enumerate_graphs(8, mode):
            assert mad(g)[0] == mad_brute(g)[0]
            compared += 1
    rng = random.Random(61251)
    for _ in range(500):
        g = random_subcubic(rng, rng.randint(1, 12), simple=rng.random() < 0.5)
        assert mad(g)[0] == mad_brute(g)[0]
        compared += 1
    verdict(
        "C6 (flow mad = brute mad)",
        f"{compared} graphs (all enumerated n<=8 in both modes + 500 random n<=12)",
    )


def test_c7_discharging_conservation_and_counting():
    conserved = 0
    counted = 0
    for mode in ("simple", "multigraph"):
        for g in enumerate_graphs(8, mode):
            deg = g.degrees
            if min(deg) >= 2:
                ledger = apply_rules(g)
                assert sum(ledger.final) == 2 * g.m - Fraction(12, 5) * g.n
                assert audit(g, ledger).conserved
                conserved += 1
            if min(deg) >= 1 and mad(g)[0] < FIVE_COLOR_DENSITY:
                # 5 * 2m < 12n with 2m = n1 + 2*n2 + 3*n3 and n = n1 + n2 + n3
                n1, n2, n3 = (deg.count(d) for d in (1, 2, 3))
                assert 3 * n3 < 2 * n2 + 7 * n1
                counted += 1
    verdict(
        "C7 (charge conservation + counting inequality)",
        f"{conserved} graphs with min degree 2 conserve charge exactly; "
        f"3n3 < 2n2 + 7n1 on all {counted} sparse graphs with min degree 1",
    )


def test_c8_critical_graphs_satisfy_all_predicates():
    simple_findings = find_critical(8, "simple")
    multi_findings = find_critical(8, "multigraph")
    assert len(simple_findings) == 3
    assert len(multi_findings) == 4
    for finding in simple_findings + multi_findings:
        assert max(finding.deletion_chi) <= 5
        assert finding.graph.is_connected()
        assert finding.lemmas.all_pass, finding.lemmas.failures()
        assert finding.charge.conserved
        assert finding.charge.all_nonnegative
        assert mad(finding.graph)[0] >= FIVE_COLOR_DENSITY
    verdict(
        "C8 (structural audit of critical graphs)",
        f"{len(simple_findings)} simple + {len(multi_findings)} multigraph "
        "star-5-critical graphs at n <= 8; every predicate and charge audit passes",
    )


def test_c9_property_suites(sweeps):
    simple, multi, _ = sweeps
    certified = 0
    for mode, top in (("simple", 7), ("multigraph", 6)):
        for g in enumerate_graphs(top, mode):
            chi, cert = star_chromatic_index(g)
            assert is_star_coloring(g, cert)
            assert oracles.oracle_is_star(g, dict(cert.assignment))
            certified += 1

    rng = random.Random(90125)
    for _ in range(200):
        g = random_subcubic(rng, rng.randint(2, 9))
        chi = star_chromatic_index(g)[0]
        assert star_chromatic_index(g.delete_vertex(rng.randrange(g.n)))[0] <= chi
        if g.m:
            assert star_chromatic_index(g.delete_edge(rng.randrange(g.m)))[0] <= chi

    for _ in range(1000):
        g = random_subcubic(rng, rng.randint(1, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(zoo.relabel(g, perm))

    verdict(
        "C9 (property suites)",
        f"{certified} certificates re-verified against the definition "
        f"(all {simple.total + multi.total} sweep certificates verified in-process), "
        "monotonicity on 200 samples, canonical invariance on 1000 samples",
    )
