from fractions import Fraction

import pytest
from hypothesis import given

import zoo
from starline import apply_rules, audit, build, classify, initial_charges
from starline.discharge import FIVE_COLOR_DENSITY, Transfer
from starline.structure import BAD
from strategies import subcubic_multigraphs

FIFTH = Fraction(1, 5)

FIXTURE_A = build(6, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (3, 4), (3, 5), (4, 5)])
FIXTURE_B = build(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)])
FIXTURE_C = build(
    8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (3, 7), (4, 6), (5, 7), (6, 7)]
)
FIXTURE_D = build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 2), (5, 3)])
FIXTURE_E = build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4), (3, 5)])


def transfer_tuples(ledger):
    return [(t.rule, t.giver, t.taker, t.amount) for t in ledger.transfers]


def naive_final_charges(h):
    """Independent restatement of the rules, vertex by vertex."""
    profiles = classify(h)
    deg = h.degrees
    final = [Fraction(d) - FIVE_COLOR_DENSITY for d in deg]
    for v in range(h.n):
        if profiles[v].bad32:
            donors = sorted(
                u
                for u in h.neighbors(v)
                if deg[u] == 3 and profiles[u].class3k == 0
            )
            if donors:
                final[donors[0]] -= FIFTH
                final[v] += FIFTH
    for v in range(h.n):
        if deg[v] != 3:
            continue
        two_neighbors = sorted(u for u in h.neighbors(v) if deg[u] == 2)
        if profiles[v].class3k == 1 and len(two_neighbors) == 1:
            final[v] -= 3 * FIFTH
            final[two_neighbors[0]] += 3 * FIFTH
        elif profiles[v].class3k == 2:
            for u in two_neighbors:
                amount = 2 * FIFTH if profiles[u].two_status == BAD else FIFTH
                final[v] -= amount
                final[u] += amount
        elif profiles[v].class3k == 3:
            for u in two_neighbors:
                final[v] -= FIFTH
                final[u] += FIFTH
    return final


# ----------------------------------------------------------------------
# initial charges
# ----------------------------------------------------------------------

def test_initial_charges_by_degree():
    charges = initial_charges(zoo.path(4))
    assert charges == (Fraction(-7, 5), Fraction(-2, 5), Fraction(-2, 5), Fraction(-7, 5))
    assert initial_charges(zoo.complete(4)) == (Fraction(3, 5),) * 4


def test_initial_charges_sum_is_invariant():
    g = zoo.cycle(5)
    assert sum(initial_charges(g)) == 2 * g.m - FIVE_COLOR_DENSITY * g.n == -2


def test_initial_charges_reject_high_degree():
    with pytest.raises(ValueError):
        initial_charges(zoo.complete(5))


# ----------------------------------------------------------------------
# frozen ledgers
# ----------------------------------------------------------------------

def test_rules_two_good_runs_of_two():
    ledger = apply_rules(FIXTURE_A)
    assert transfer_tuples(ledger) == [
        ("R2", 0, 1, 3 * FIFTH),
        ("R2", 3, 2, 3 * FIFTH),
    ]
    assert ledger.final == (0, FIFTH, FIFTH, 0, 3 * FIFTH, 3 * FIFTH)
    assert [(p.members, p.total) for p in ledger.pools] == [((1, 2), 2 * FIFTH)]
    assert ledger.flags == ()
    report = audit(FIXTURE_A, ledger)
    assert report.conserved
    assert report.all_nonnegative
    assert report.total == Fraction(8, 5)


def test_rules_run_of_three():
    ledger = apply_rules(FIXTURE_B)
    assert transfer_tuples(ledger) == [
        ("R2", 0, 1, 3 * FIFTH),
        ("R2", 4, 3, 3 * FIFTH),
    ]
    assert ledger.final == (0, FIFTH, -2 * FIFTH, FIFTH, 0, 3 * FIFTH, 3 * FIFTH)
    assert [(p.members, p.total) for p in ledger.pools] == [((1, 2, 3), 0)]
    assert audit(FIXTURE_B, ledger).all_nonnegative


def test_rules_bad_32_takes_through_r1():
    ledger = apply_rules(FIXTURE_C)
    assert transfer_tuples(ledger) == [
        ("R1", 3, 0, FIFTH),
        ("R2", 6, 4, 3 * FIFTH),
        ("R2", 7, 5, 3 * FIFTH),
        ("R3", 0, 1, 2 * FIFTH),
        ("R3", 0, 2, 2 * FIFTH),
    ]
    assert ledger.final == (0, 0, 0, 2 * FIFTH, FIFTH, FIFTH, 0, 0)
    assert [(p.members, p.total) for p in ledger.pools] == [
        ((1, 4), FIFTH),
        ((2, 5), FIFTH),
    ]
    assert audit(FIXTURE_C, ledger).all_nonnegative


def test_rules_33_with_bad_neighbor_goes_negative():
    ledger = apply_rules(FIXTURE_D)
    assert transfer_tuples(ledger) == [
        ("R4", 0, 1, FIFTH),
        ("R4", 0, 2, FIFTH),
        ("R4", 0, 3, FIFTH),
        ("R4", 5, 2, FIFTH),
        ("R4", 5, 3, FIFTH),
        ("R4", 5, 4, FIFTH),
    ]
    assert ledger.final == (0, -FIFTH, 0, 0, -FIFTH, 0)
    assert [(p.members, p.total) for p in ledger.pools] == [((1, 4), -2 * FIFTH)]
    report = audit(FIXTURE_D, ledger)
    assert report.conserved
    assert not report.all_nonnegative
    assert report.negative_vertices == ()
    assert [p.members for p in report.negative_pools] == [(1, 4)]


def test_rules_r1_without_donor_is_flagged():
    ledger = apply_rules(FIXTURE_E)
    assert ledger.flags == ("R1-inapplicable:0", "R1-inapplicable:3")
    assert ledger.final == (-FIFTH, 0, 0, -FIFTH, 0, 0)
    report = audit(FIXTURE_E, ledger)
    assert report.negative_vertices == ((0, -FIFTH), (3, -FIFTH))
    assert report.negative_pools == ()
    assert not report.all_nonnegative


def test_rules_diamond():
    ledger = apply_rules(zoo.diamond())
    assert transfer_tuples(ledger) == [
        ("R3", 0, 2, FIFTH),
        ("R3", 0, 3, FIFTH),
        ("R3", 1, 2, FIFTH),
        ("R3", 1, 3, FIFTH),
    ]
    assert ledger.final == (FIFTH, FIFTH, 0, 0)
    assert ledger.pools == ()
    assert audit(zoo.diamond(), ledger).total == 2 * FIFTH


def test_rules_no_transfers_on_regular_graphs():
    for g, total in [(zoo.complete(4), Fraction(12, 5)), (zoo.complete_bipartite(3, 3), Fraction(18, 5))]:
        ledger = apply_rules(g)
        assert ledger.transfers == ()
        report = audit(g, ledger)
        assert report.all_nonnegative
        assert report.total == total


def test_cycle_of_bad_vertices_is_flagged_not_pooled():
    ledger = apply_rules(zoo.cycle(5))
    assert ledger.transfers == ()
    assert ledger.pools == ()
    assert ledger.flags == ("bad-run:0,1,2,3,4",)
    report = audit(zoo.cycle(5), ledger)
    assert report.conserved
    assert report.total == -2
    assert len(report.negative_vertices) == 5


def test_low_degree_vertices_are_flagged():
    ledger = apply_rules(zoo.path(4))
    assert "low-degree:0" in ledger.flags
    assert "low-degree:3" in ledger.flags
    assert [(p.members, p.total) for p in ledger.pools] == [((1, 2), -4 * FIFTH)]


# ----------------------------------------------------------------------
# audit validation
# ----------------------------------------------------------------------

def test_audit_rejects_tampered_finals():
    ledger = apply_rules(FIXTURE_A)
    forged = type(ledger)(
        ledger.initial,
        ledger.transfers,
        (FIFTH,) + ledger.final[1:],
        ledger.pools,
        ledger.flags,
    )
    with pytest.raises(ValueError):
        audit(FIXTURE_A, forged)


def test_audit_rejects_foreign_transfers():
    ledger = apply_rules(zoo.complete(4))
    alien = Transfer("R2", 0, 1, Fraction(1, 3))
    forged = type(ledger)(
        ledger.initial, (alien,), ledger.final, ledger.pools, ledger.flags
    )
    with pytest.raises(ValueError):
        audit(zoo.complete(4), forged)


def test_audit_rejects_nonadjacent_transfer():
    g = zoo.cycle(6)
    ledger = apply_rules(g)
    far = Transfer("R2", 0, 3, 3 * FIFTH)
    final = list(ledger.final)
    final[0] -= 3 * FIFTH
    final[3] += 3 * FIFTH
    forged = type(ledger)(
        ledger.initial, (far,), tuple(final), ledger.pools, ledger.flags
    )
    with pytest.raises(ValueError):
        audit(g, forged)


def test_audit_rejects_wrong_graph():
    ledger = apply_rules(FIXTURE_A)
    with pytest.raises(ValueError):
        audit(zoo.cycle(5), ledger)


# ----------------------------------------------------------------------
# rule properties
# ----------------------------------------------------------------------

@given(subcubic_multigraphs(max_n=9))
def test_conservation(g):
    ledger = apply_rules(g)
    assert sum(ledger.final) == 2 * g.m - FIVE_COLOR_DENSITY * g.n
    assert audit(g, ledger).conserved


@given(subcubic_multigraphs(max_n=9))
def test_rules_are_local_and_quantized(g):
    ledger = apply_rules(g)
    for t in ledger.transfers:
        assert t.rule in {"R1", "R2", "R3", "R4"}
        assert t.amount in {FIFTH, 2 * FIFTH, 3 * FIFTH}
        assert t.taker in g.neighbors(t.giver)


@given(subcubic_multigraphs(max_n=9))
def test_rules_match_independent_restatement(g):
    assert list(apply_rules(g).final) == naive_final_charges(g)


def test_rules_match_restatement_on_enumerated():
    from starline import enumerate_graphs

    for mode, top in (("simple", 6), ("multigraph", 5)):
        for g in enumerate_graphs(top, mode):
            assert list(apply_rules(g).final) == naive_final_charges(g)
