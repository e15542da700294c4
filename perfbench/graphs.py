"""Seeded generator of connected subcubic graphs as edge-list text.

The graphs stand for user input to the per-graph tools (``chi``, ``mad``,
``audit``, ``discharge``).  Only the wiring depends on the seed: graph ``i``
always has ``n = lo + (i // 2) % span`` vertices, where ``span = hi - lo +
1``, is a multigraph exactly when ``i`` is odd, and aims at ``n // 4 + (i //
(2 * span)) % (n // 4 + 1)`` edges beyond its spanning tree.  Fixing order, kind and size per index
keeps the amount of work close between seeds, because the cost of the
structural audit grows with ``n**4`` and would otherwise follow the luck of
the draw.
"""

from __future__ import annotations

import random


def _connected_subcubic(rng: random.Random, n: int, multi: bool, extra: int) -> tuple[int, list[tuple[int, int]]]:
    degree = [0] * n
    edges: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        edges.append((u, v) if u < v else (v, u))
        degree[u] += 1
        degree[v] += 1

    if multi:
        # a parallel pair at the root, so every multigraph input has one
        add(0, 1)
    # a random spanning tree of maximum degree 3 keeps the graph connected
    for v in range(1, n):
        add(rng.choice([u for u in range(v) if degree[u] < 3]), v)
    target = n - 1 + extra
    present = set(edges)
    for _ in range(20 * n):
        if len(edges) >= target:
            break
        free = [v for v in range(n) if degree[v] < 3]
        if len(free) < 2:
            break
        u, v = rng.sample(free, 2)
        pair = (u, v) if u < v else (v, u)
        if pair in present and not multi:
            continue
        add(u, v)
        present.add(pair)
    labels = list(range(n))
    rng.shuffle(labels)
    relabelled = [(labels[u], labels[v]) for u, v in edges]
    rng.shuffle(relabelled)
    return n, relabelled


def edge_list_texts(seed: int, count: int, lo: int, hi: int) -> list[str]:
    """``count`` graphs in the edge-list text format that ``starline`` reads:
    a vertex-count line, then one ``u v`` line per edge."""
    rng = random.Random(seed)
    texts = []
    span = hi - lo + 1
    for i in range(count):
        n = lo + (i // 2) % span
        extra = n // 4 + (i // (2 * span)) % (n // 4 + 1)
        n, edges = _connected_subcubic(rng, n, i % 2 == 1, extra)
        texts.append(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return texts
