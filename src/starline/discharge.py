"""Exact discharging engine over subcubic multigraphs.

Every vertex starts with charge d(v) - 12/5, so the total equals
2e - (12/5)n and is negative exactly when the graph is sparser on
average than 12/5.  Four local rules then move charge from 3-vertices
toward 2-vertices:

  R1  every bad 3-vertex of class 2 takes 1/5 from its 3-neighbor of
      class 0 (unique in the intended inputs);
  R2  every 3-vertex of class 1 gives 3/5 to its 2-neighbor;
  R3  every 3-vertex of class 2 gives 1/5 to each good and 2/5 to each
      bad 2-neighbor;
  R4  every 3-vertex of class 3 gives 1/5 to each 2-neighbor.

Transfers are derived from one up-front classification, in rule order,
iterating vertices in index order, so the ledger is a pure function of
the graph.  Inputs where R1's donor is missing or ambiguous are legal:
the engine takes from the least-indexed donor if any and flags the
anomaly instead of failing, since sweeps run it on arbitrary graphs.

All arithmetic is exact rational arithmetic; nothing is floated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .multigraph import Multigraph
from .structure import BAD, classify

# the mad bound of the main theorem (below it, 5 colours suffice); each
# vertex starts with its degree minus this value
FIVE_COLOR_DENSITY = Fraction(12, 5)
RULES = ("R1", "R2", "R3", "R4")
AMOUNTS = frozenset(Fraction(i, 5) for i in (1, 2, 3))  # every legal transfer


@dataclass(frozen=True)
class Transfer:
    rule: str
    giver: int
    taker: int
    amount: Fraction


@dataclass(frozen=True)
class Pool:
    """A run of adjacent bad 2-vertices whose final charges are judged
    jointly, in path order."""

    members: tuple[int, ...]
    total: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    initial: tuple[Fraction, ...]
    transfers: tuple[Transfer, ...]
    final: tuple[Fraction, ...]
    pools: tuple[Pool, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport:
    """Conservation plus pooled nonnegativity.

    ``negative_vertices`` lists unpooled vertices with negative final
    charge; ``negative_pools`` lists pools with negative totals.  The
    verdict ``all_nonnegative`` is true when both lists are empty.
    """

    conserved: bool
    total: Fraction
    pools: tuple[Pool, ...]
    negative_vertices: tuple[tuple[int, Fraction], ...]
    negative_pools: tuple[Pool, ...]
    flags: tuple[str, ...]

    @property
    def all_nonnegative(self) -> bool:
        return not self.negative_vertices and not self.negative_pools


def initial_charges(h: Multigraph) -> tuple[Fraction, ...]:
    """Charge d(v) - 12/5 per vertex; the sum is 2e - (12/5)n exactly."""
    if h.max_degree > 3:
        raise ValueError(f"maximum degree {h.max_degree} exceeds 3")
    return tuple(Fraction(d) - FIVE_COLOR_DENSITY for d in h.degrees)


def _bad_runs(h: Multigraph, profiles) -> tuple[list[tuple[int, ...]], list[str]]:
    """Connected groups of bad 2-vertices.  Paths on 2 or 3 vertices come
    back as runs (in path order, lesser endpoint first); anything else is
    flagged, since the intended inputs never produce it."""
    bad = [v for v in range(h.n) if profiles[v].two_status == BAD]
    badset = set(bad)
    seen: set[int] = set()
    runs: list[tuple[int, ...]] = []
    flags: list[str] = []
    for v in bad:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            cur = stack.pop()
            for u in h.neighbors(cur):
                if u in badset and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        inner_deg = {
            u: sum(h.multiplicity(u, w) for w in comp if w != u) for u in comp
        }
        is_path = (
            len(comp) in (2, 3)
            and sum(inner_deg.values()) == 2 * (len(comp) - 1)
            and max(inner_deg.values()) <= 2
        )
        if not is_path:
            flags.append("bad-run:" + ",".join(map(str, sorted(comp))))
            continue
        ends = sorted(u for u in comp if inner_deg[u] == 1)
        walk = [ends[0]]
        while len(walk) < len(comp):
            walk.append(
                next(
                    u
                    for u in h.neighbors(walk[-1])
                    if u in comp and u not in walk
                )
            )
        runs.append(tuple(walk))
    return runs, flags


def apply_rules(h: Multigraph) -> ChargeLedger:
    """Run R1 through R4 and return the full transfer ledger."""
    profiles = classify(h)
    deg = h.degrees
    initial = initial_charges(h)
    flags = [f"low-degree:{v}" for v in range(h.n) if deg[v] < 2]
    transfers: list[Transfer] = []

    fifth = Fraction(1, 5)
    for v in range(h.n):
        if profiles[v].bad32:
            donors = [
                u
                for u in h.neighbors(v)
                if deg[u] == 3 and profiles[u].class3k == 0
            ]
            if not donors:
                flags.append(f"R1-inapplicable:{v}")
                continue
            if len(donors) > 1:
                flags.append(f"R1-multiple:{v}")
            transfers.append(Transfer("R1", donors[0], v, fifth))
    for v in range(h.n):
        if deg[v] == 3 and profiles[v].class3k == 1:
            w = next(u for u, _ in h.adjacency[v] if deg[u] == 2)
            transfers.append(Transfer("R2", v, w, 3 * fifth))
    for v in range(h.n):
        if deg[v] == 3 and profiles[v].class3k == 2:
            for w in h.neighbors(v):
                if deg[w] == 2:
                    amount = 2 * fifth if profiles[w].two_status == BAD else fifth
                    transfers.append(Transfer("R3", v, w, amount))
    for v in range(h.n):
        if deg[v] == 3 and profiles[v].class3k == 3:
            for w in h.neighbors(v):
                if deg[w] == 2:
                    transfers.append(Transfer("R4", v, w, fifth))

    final = list(initial)
    for t in transfers:
        final[t.giver] -= t.amount
        final[t.taker] += t.amount
    runs, run_flags = _bad_runs(h, profiles)
    pools = tuple(
        Pool(run, sum((final[v] for v in run), Fraction(0))) for run in runs
    )
    return ChargeLedger(
        initial, tuple(transfers), tuple(final), pools, tuple(flags + run_flags)
    )


def audit(h: Multigraph, ledger: ChargeLedger) -> AuditReport:
    """Re-derive and judge the ledger: exact conservation, transfer sanity,
    and nonnegativity of every unpooled vertex and every pool."""
    if len(ledger.initial) != h.n or len(ledger.final) != h.n:
        raise ValueError("ledger does not match graph: vertex count differs")
    if ledger.initial != initial_charges(h):
        raise ValueError("ledger does not match graph: initial charges differ")
    movement = [Fraction(0)] * h.n
    for t in ledger.transfers:
        if t.rule not in RULES:
            raise ValueError(f"unknown rule {t.rule!r}")
        if t.amount not in AMOUNTS:
            raise ValueError(f"illegal transfer amount {t.amount}")
        if h.multiplicity(t.giver, t.taker) == 0:
            raise ValueError(
                f"transfer between non-adjacent vertices {t.giver}, {t.taker}"
            )
        movement[t.giver] -= t.amount
        movement[t.taker] += t.amount
    if tuple(a + b for a, b in zip(ledger.initial, movement)) != ledger.final:
        raise ValueError("ledger does not match graph: finals differ from transfers")

    total = sum(ledger.final, Fraction(0))
    conserved = total == sum(ledger.initial, Fraction(0)) and total == 2 * h.m - FIVE_COLOR_DENSITY * h.n
    pooled = {v for pool in ledger.pools for v in pool.members}
    negative_vertices = tuple(
        (v, ledger.final[v])
        for v in range(h.n)
        if v not in pooled and ledger.final[v] < 0
    )
    negative_pools = tuple(p for p in ledger.pools if p.total < 0)
    return AuditReport(
        conserved,
        total,
        ledger.pools,
        negative_vertices,
        negative_pools,
        ledger.flags,
    )
