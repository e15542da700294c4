"""Exact density invariants: maximum average degree and girth.

Every verdict here is computed in exact rational arithmetic (stdlib
``fractions.Fraction``); no floating point enters any comparison.

``mad`` runs Dinkelbach's iteration for the fractional program
``max e(S) / |S|``: starting from the whole graph, each step asks an
integer max-flow cut (Goldberg's density network) for a strictly denser
vertex set and moves to it, and the last set found is the witness.  An
independent subset scan that cross-checks it lives in the test suite
(``tests/oracles.py``), not here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .multigraph import Multigraph


class _MaxFlow:
    """Dinic max-flow on integer capacities (exact with Python ints)."""

    def __init__(self, size: int):
        self.size = size
        self.adj: list[list[list[int]]] = [[] for _ in range(size)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def _levels(self, s: int, t: int) -> list[int]:
        """Breadth-first distances from ``s`` in the residual network, -1
        where unreached.  Vertices no nearer than ``t`` are not expanded:
        no shortest augmenting path passes through them."""
        level = [-1] * self.size
        level[s] = 0
        queue = [s]
        for v in queue:
            if level[t] >= 0 and level[v] >= level[t] - 1:
                break
            for arc in self.adj[v]:
                if arc[1] > 0 and level[arc[0]] < 0:
                    level[arc[0]] = level[v] + 1
                    queue.append(arc[0])
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along one ``s``-``t`` path of the level graph and
        return its amount, or 0 when the phase is blocked.

        Depth-first with an explicit stack, so the path length is not
        bounded by the interpreter's recursion limit; ``it[v]`` is the
        next arc of ``v`` to try, and arcs leading to dead ends are never
        tried again in the same phase.
        """
        adj = self.adj
        path: list[list[int]] = []  # arcs from s to v
        walk = [s]  # vertices of that path, s first
        v = s
        while True:
            if v == t:
                got = min(arc[1] for arc in path)
                for arc in path:
                    arc[1] -= got
                    adj[arc[0]][arc[2]][1] += got
                return got
            arcs = adj[v]
            i = it[v]
            nxt = level[v] + 1
            while i < len(arcs) and not (arcs[i][1] > 0 and level[arcs[i][0]] == nxt):
                i += 1
            it[v] = i
            if i < len(arcs):
                path.append(arcs[i])
                v = arcs[i][0]
                walk.append(v)
            elif path:
                # dead end: retreat and skip the arc that led here
                path.pop()
                walk.pop()
                v = walk[-1]
                it[v] += 1
            else:
                return 0

    def source_side(self, s: int, t: int) -> set[int]:
        """Push a maximum flow from ``s`` to ``t`` and return the source
        side of the minimum cut: the vertices reachable from ``s`` in the
        final residual network, which the last search (the one that
        misses ``t``) expands in full."""
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                return {v for v in range(self.size) if level[v] >= 0}
            it = [0] * self.size
            while self._augment(s, t, level, it):
                pass


def _denser_subset(g: Multigraph, density: Fraction) -> set[int] | None:
    """A nonempty vertex set with ``e(G[S]) / |S| > density``, else None.

    Goldberg's network, each vertex's two terminal arcs reduced by their
    common part: vertex ``v`` has supply ``d(v)*q - 2*p`` for
    ``density = p/q``, an arc from the source when it is positive, to the
    sink when it is negative.  The cut with source side ``{s} | S`` has
    capacity ``supply - 2*(q*e(S) - p*|S|)``, where ``supply`` is the
    total source capacity, so a set denser than ``p/q`` exists exactly
    when a maximum flow leaves some source arc unsaturated.  Then the
    residual source side reaches past ``s`` and names such a set; it is
    the same for every maximum flow.
    """
    p, q = density.numerator, density.denominator
    n = g.n
    net = _MaxFlow(n + 2)
    s, t = n, n + 1
    for v in range(n):
        excess = g.degree(v) * q - 2 * p
        if excess > 0:
            net.add_edge(s, v, excess)
        elif excess < 0:
            net.add_edge(v, t, -excess)
    for u, v in g.edges:
        net.add_edge(u, v, q)
        net.add_edge(v, u, q)
    side = net.source_side(s, t)
    side.discard(s)
    return side or None


def mad(g: Multigraph) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum average degree ``max 2 e(G[S]) / |S|`` over nonempty S.

    Ranging over induced subgraphs suffices: on a fixed vertex set,
    dropping edges never raises ``2 e / |S|``.  Dinkelbach iteration:
    start from ``S = V`` and ``lam = m / n``; while a min cut finds a set
    denser than ``lam``, move to it and set ``lam = e(S) / |S|``.  Each
    step raises ``lam`` strictly, within the finite set of ratios
    ``a / b``, and the loop stops exactly when nothing beats ``lam``, so
    ``S`` attains the maximum.  Each cut maximises ``e(S) - lam |S|``, so
    the final ``S`` is the largest densest set.  Returns
    ``(value, witness)``, the witness sorted.
    """
    if g.n == 0:
        raise ValueError("mad requires at least one vertex")
    witness = set(range(g.n))
    lam = Fraction(g.m, g.n)
    while (denser := _denser_subset(g, lam)) is not None:
        witness = denser
        lam = Fraction(sum(u in denser and v in denser for u, v in g.edges), len(denser))
    return 2 * lam, tuple(sorted(witness))


def girth(g: Multigraph) -> int | float:
    """Length of a shortest cycle; a parallel pair is a 2-cycle; ``inf``
    for forests."""
    if not g.is_simple:
        return 2
    n = g.n
    best: int | float = math.inf
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            if 2 * dist[u] >= best - 1:
                break
            for w in g.neighbors(u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    # closed walk through s; never shorter than the girth
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best
