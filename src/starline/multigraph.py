"""Loopless multigraphs with stable edge identities.

This is the data model for the whole package.  Vertices are the integers
``0..n-1``.  Every edge owns a dense id ``0..m-1`` given by its position in
the edge tuple, so parallel edges are distinct entries sharing an endpoint
pair and a coloring can address each copy separately.  Loops are rejected.

Graphs are immutable: every operation that changes a graph returns a new
one.  That makes instances safe to share across worker processes and usable
as dictionary keys.

Two textual formats are supported:

* edge-list text: the first meaningful line is the vertex count, every
  further line is ``u v`` with ``0 <= u, v < n`` and ``u != v``; repeated
  lines encode parallel edges; ``#`` starts a comment.
* graph6 (simple graphs only), per the standard format description.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

MAX_MULTIPLICITY = 3
CANONICAL_MAX_N = 12


class FormatError(ValueError):
    """Malformed textual graph input or unserializable graph."""


@dataclass(frozen=True)
class Multigraph:
    """Immutable loopless multigraph.

    ``edges[i]`` is the unordered endpoint pair of the edge with id ``i``,
    stored as ``(min, max)``.  ``adjacency[v]`` lists ``(neighbor, edge_id)``
    once per incident edge, in edge-id order.  Use :func:`build` to
    construct instances; it derives the adjacency index and validates.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(entries) for entries in self.adjacency)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbors of ``v``, ascending."""
        return self._neighbor_tuples[v]

    @cached_property
    def _neighbor_tuples(self) -> tuple[tuple[int, ...], ...]:
        # derived on first use, so build() pays nothing for it; kept out of
        # the dataclass fields, so equality and hashing ignore it
        return tuple(
            tuple(sorted({u for u, _ in entries})) for entries in self.adjacency
        )

    def __getstate__(self) -> dict:
        # pickle the fields only: the cache is rebuilt on demand
        state = dict(self.__dict__)
        state.pop("_neighbor_tuples", None)
        return state

    def multiplicity(self, u: int, v: int) -> int:
        return sum(1 for w, _ in self.adjacency[u] if w == v)

    def other_end(self, edge_id: int, v: int) -> int:
        a, b = self.edges[edge_id]
        return b if v == a else a

    @property
    def is_simple(self) -> bool:
        return len(set(self.edges)) == self.m

    @property
    def is_subcubic(self) -> bool:
        return self.max_degree <= 3

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets of connected components, each ascending, ordered by
        smallest member.  Isolated vertices form singleton components."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = [start]
            while stack:
                v = stack.pop()
                for u, _ in self.adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        stack.append(u)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    def delete_vertex(self, v: int) -> "Multigraph":
        """Remove ``v`` and its incident edges; survivors are re-indexed
        order-preservingly (old index order)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        new_of_old = {}
        for old in range(self.n):
            if old != v:
                new_of_old[old] = len(new_of_old)
        kept = [
            (new_of_old[a], new_of_old[b])
            for a, b in self.edges
            if a != v and b != v
        ]
        return build(self.n - 1, kept)

    def delete_edge(self, edge_id: int) -> "Multigraph":
        if not 0 <= edge_id < self.m:
            raise ValueError(f"edge id {edge_id} out of range")
        kept = [pair for i, pair in enumerate(self.edges) if i != edge_id]
        return build(self.n, kept)


def build(n: int, edge_list) -> Multigraph:
    """Assemble a :class:`Multigraph` from endpoint pairs.

    Endpoint pairs are normalized to ``(min, max)``.  Pairwise multiplicity
    above ``MAX_MULTIPLICITY`` and loops are rejected.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"vertex count must be a nonnegative integer, got {n!r}")
    norm: list[tuple[int, int]] = []
    counts: dict[tuple[int, int], int] = {}
    for pair in edge_list:
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge endpoints must be integers, got {pair!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {pair!r} out of range for {n} vertices")
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        key = (u, v) if u < v else (v, u)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] > MAX_MULTIPLICITY:
            raise ValueError(f"multiplicity of {key} exceeds {MAX_MULTIPLICITY}")
        norm.append(key)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(norm):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return Multigraph(n, tuple(norm), tuple(tuple(a) for a in adj))


# ----------------------------------------------------------------------
# canonical form
# ----------------------------------------------------------------------

def canonical_form(g: Multigraph) -> bytes:
    """Isomorphism-invariant byte string for ``n <= CANONICAL_MAX_N``.

    Two graphs receive the same form exactly when some vertex bijection
    preserves edge multiplicities between them.  The form is the byte
    string ``[n] + columns`` where the columns are the multiplicity-matrix
    entries of each vertex against the previously placed ones, maximized
    lexicographically over all placements that respect an iterated
    degree-refinement partition.  Maximizing (rather than minimizing)
    packs edges toward the front, which keeps the tie frontier near the
    automorphism count instead of branching over independent sets.
    Interchangeable vertices (equal rows off the diagonal) are explored
    once per branch.

    The serialization encodes the full matrix, so equality of forms is a
    certificate of isomorphism regardless of the partition used to prune.
    """
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical form limited to n <= {CANONICAL_MAX_N}, got n = {g.n}")
    n = g.n
    if n == 0:
        return b"\x00"
    mult = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        mult[u][v] += 1
        mult[v][u] += 1

    # refinement: start from degrees, repeatedly append the sorted code
    # multiset of incident edges' other endpoints, until classes are stable
    sig: list[tuple] = [(g.degree(v),) for v in range(n)]
    while True:
        rank = {s: r for r, s in enumerate(sorted(set(sig), reverse=True))}
        codes = [rank[sig[v]] for v in range(n)]
        refined = [
            (codes[v], tuple(sorted(codes[u] for u, _ in g.adjacency[v])))
            for v in range(n)
        ]
        if len(set(refined)) == len(set(codes)):
            break
        sig = refined

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(codes[v], []).append(v)
    pos_class: list[int] = []
    for c in sorted(classes):
        pos_class.extend([c] * len(classes[c]))

    # twin vertices: swapping them is an automorphism, so branches that
    # differ only in which twin is placed are interchangeable
    rep = list(range(n))

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    for u in range(n):
        for v in range(u + 1, n):
            if codes[u] != codes[v]:
                continue
            if all(mult[u][x] == mult[v][x] for x in range(n) if x != u and x != v):
                rep[find(v)] = find(u)
    twin = [find(v) for v in range(n)]

    frontier: list[tuple[int, ...]] = [()]
    out = bytearray([n])
    for pos in range(n):
        members = classes[pos_class[pos]]
        best: bytes | None = None
        nxt: list[tuple[int, ...]] = []
        for placed in frontier:
            used = set(placed)
            seen_twins = set()
            for v in members:
                if v in used:
                    continue
                t = twin[v]
                if t in seen_twins:
                    continue
                seen_twins.add(t)
                col = bytes(mult[u][v] for u in placed)
                if best is None or col > best:
                    best = col
                    nxt = [placed + (v,)]
                elif col == best:
                    nxt.append(placed + (v,))
        frontier = nxt
        assert best is not None
        out += best
    return bytes(out)


def decode_canonical(form: bytes) -> Multigraph:
    """The graph a canonical form spells, labelled in the form's order.

    A form is ``[n]`` followed, for each vertex ``v = 1..n-1``, by its
    ``v`` multiplicities against vertices ``0..v-1``, so
    ``canonical_form(decode_canonical(f)) == f`` for every form ``f`` that
    :func:`canonical_form` returns.  A byte string of the wrong length or
    with a multiplicity above ``MAX_MULTIPLICITY`` raises
    :class:`FormatError`.
    """
    if not form:
        raise FormatError("empty canonical form")
    n = form[0]
    size = 1 + n * (n - 1) // 2
    if len(form) != size:
        raise FormatError(
            f"canonical form for n = {n} must have {size} bytes, got {len(form)}"
        )
    if max(form[1:], default=0) > MAX_MULTIPLICITY:
        raise FormatError(f"canonical form has a multiplicity above {MAX_MULTIPLICITY}")
    edges: list[tuple[int, int]] = []
    at = 1
    for v in range(1, n):
        for u in range(v):
            edges += [(u, v)] * form[at]
            at += 1
    return build(n, edges)


# ----------------------------------------------------------------------
# edge-list text format
# ----------------------------------------------------------------------

def parse_edge_list(text: str) -> Multigraph:
    """Parse the edge-list text format (see module docstring)."""
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise FormatError(f"line {lineno}: expected a single vertex count")
            try:
                n = int(fields[0])
            except ValueError:
                raise FormatError(f"line {lineno}: vertex count is not an integer") from None
            if n < 0:
                raise FormatError(f"line {lineno}: negative vertex count")
            continue
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints are not integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise FormatError(f"line {lineno}: loop at vertex {u}")
        pairs.append((u, v))
    if n is None:
        raise FormatError("missing vertex-count header line")
    try:
        return build(n, pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_edge_list(g: Multigraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# graph6 (simple graphs only)
# ----------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_read_n(data: bytes) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("graph6 input truncated in vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    if len(data) < 8:
        raise FormatError("graph6 input truncated in vertex count")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def parse_graph6(text: str) -> Multigraph:
    """Parse one graph6 line into a simple graph."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise FormatError("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("graph6 input contains non-ASCII bytes") from None
    if any(not 63 <= b <= 126 for b in data):
        raise FormatError("graph6 byte out of printable range")
    n, start = _g6_read_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start != nbytes:
        raise FormatError(
            f"graph6 body length {len(data) - start} does not match "
            f"{nbytes} bytes for n = {n}"
        )
    pairs = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[start + k // 6] - 63
            if (byte >> (5 - k % 6)) & 1:
                pairs.append((i, j))
            k += 1
    # padding bits must be zero
    while k < nbytes * 6:
        byte = data[start + k // 6] - 63
        if (byte >> (5 - k % 6)) & 1:
            raise FormatError("graph6 padding bits are not zero")
        k += 1
    return build(n, pairs)


def emit_graph6(g: Multigraph) -> str:
    """Encode a simple graph as one graph6 line."""
    if not g.is_simple:
        raise FormatError("graph6 encodes simple graphs only (parallel edges present)")
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    elif n <= 68719476735:
        head = bytes([126, 126]) + bytes(((n >> s) & 63) + 63 for s in range(30, -1, -6))
    else:
        raise FormatError("graph too large for graph6")
    present = set(g.edges)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytes(
        (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
         | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63
        for i in range(0, len(bits), 6)
    )
    return (head + body).decode("ascii")
