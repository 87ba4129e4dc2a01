"""Undirected simple graphs stored as bit-row adjacency, plus parsers and generators.

Vertices are 0-indexed. Row ``adj[u]`` is an int whose bit ``v`` is set iff
``{u, v}`` is an edge, so neighborhood queries and set algebra are single
int operations.

Two text formats are supported:

* DIMACS-like edge lists: ``c`` comment lines, exactly one ``p edge <n> <m>``
  line (first non-comment line), then exactly ``m`` lines ``e <u> <v>`` with
  1-based endpoints, ``u != v``, no duplicates. ``n`` above
  ``EDGE_LIST_MAX_N`` is refused (ConstraintError) on the ``p`` line. Both
  readers take the text in windows of a str or of a text stream, each ending
  at a line end, so a file is never held whole. Line rules read each line
  and name the first bad one. In a dense list (8m >= n^2) whose lines after
  the ``p`` line are all canonical ``e`` lines (``encode_edge_list``'s
  layout, LF or CRLF), a bulk reader takes them instead, one bit per edge
  and then a transposition a band of rows at a time.
* graph6, one-byte size form only (1 <= n <= 62): printable bytes 63..126
  carrying 6 bits each, upper-triangle adjacency bits in column-major order
  (0,1), (0,2), (1,2), (0,3), ...  The multi-byte size forms (leading byte
  126) are rejected.

Seeded generation uses the xorshift64* generator so corpora reproduce
bit-for-bit everywhere::

    s ^= s >> 12;  s ^= s << 25 (mod 2**64);  s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) mod 2**64

A zero seed is replaced by 0x9E3779B97F4A7C15 because the all-zero state is
a fixed point of the update. ``xorshift64star(seed)`` yields the outputs;
a bounded draw is ``output % bound`` and G(n, p) keeps an edge iff
``output < int(p * 2**64)``.
"""

from __future__ import annotations

import io
import os
from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import chain

from .errors import ConstraintError, GraphParseError

GRAPH6_HEADER = ">>graph6<<"
FAMILIES = ("path", "cycle", "star", "complete", "tree", "gnp")

_MASK64 = (1 << 64) - 1

# Largest vertex count of graph6's one-byte size form, the only one supported.
GRAPH6_MAX_N = 62

# Largest vertex count of an edge list or a generated family: bit-row adjacency
# takes up to n**2 / 8 bytes, 512 MiB here, and both are refused before any
# row or edge is built.
EDGE_LIST_MAX_N = 1 << 16


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph(namedtuple("Graph", "n adj")):
    """Simple undirected graph: vertex count plus one adjacency bit-row per vertex."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        adj = tuple(adj)
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {u} has bits beyond vertex {n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
            for v in bit_indices(row):
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        return tuple.__new__(cls, (n, adj))

    # ``_replace`` builds through ``_make``, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _from_symmetric_rows(cls, n: int, rows) -> "Graph":
        """Graph from rows that are symmetric, loop-free and within n bits by
        construction; skips the per-edge checks of ``__new__``."""
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        return tuple.__new__(cls, (n, tuple(rows)))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_symmetric_rows(n, rows)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in bit_indices(self.adj[u]) if u < v]

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def induced_subgraph(self, vertices) -> "Graph":
        """Subgraph on the distinct ``vertices``, relabeled 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        kept = ((index[u], index[v]) for u, v in self.edges() if u in index and v in index)
        return Graph.from_edges(len(vertices), kept)


# Both readers take the text a window at a time: _WINDOW_CHARS characters, then
# on to the next line end. That bounds the text, tokens and lines alive at once.
_WINDOW_CHARS = 1 << 13

# The bulk reader writes out this many rows as bits at a time to transpose them.
_BAND_ROWS = 256


def parse_edge_list(source: str | io.TextIOBase) -> Graph:
    """Parse the DIMACS-like edge-list format (see module docstring) by the line
    rules, the only reader that raises or names a line. ``source`` is a str or
    a text stream, read a window at a time either way. A dense list (8m >= n^2,
    with room for m lines: a str of 6m characters, a file of 6m bytes, or a
    stream with no file whose end, found by a seek, lies at 6m or more) is first
    offered, once, to ``_bulk_rows`` from the line after its ``p`` line; if
    that declines, the line rules read on from there: the same graph or the
    same message either way."""
    n = m = None
    found = lineno = pos = 0  # pos: the characters before the next window, a str's index
    windows = _windows(source)
    while (window := next(windows, None)) is not None:
        pos += len(window)
        # Lines end at \n, \r\n or \r only, as in open().
        lines = io.StringIO(window, newline="")
        for raw in lines:
            lineno += 1
            tokens = raw.split()
            if not tokens or tokens[0] == "c":
                continue
            kind = tokens[0]
            if kind == "p":
                if n is not None:
                    raise GraphParseError(f"line {lineno}: duplicate 'p' line")
                if len(tokens) != 4 or tokens[1] != "edge":
                    raise GraphParseError(f"line {lineno}: expected 'p edge <n> <m>'")
                try:
                    n, m = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise GraphParseError(
                        f"line {lineno}: non-integer counts in 'p' line"
                    ) from None
                if n < 1 or m < 0:
                    raise GraphParseError(f"line {lineno}: need n >= 1 and m >= 0")
                if n > EDGE_LIST_MAX_N:
                    raise ConstraintError(
                        f"line {lineno}: edge lists cap at n={EDGE_LIST_MAX_N}, got n={n}"
                    )
                rows = [0] * n
                if 8 * m >= n * n and _size(source) >= 6 * m:  # dense, room for m lines
                    # The body: this window's rest, if any (an empty window is declined), then on.
                    rest = [window[lines.tell():]] if lines.tell() < len(window) else []
                    lines.close()  # frees its buffer, 4 bytes a character, before a bulk read
                    mark = pos if isinstance(source, str) else source.tell()
                    dense = _bulk_rows(chain(rest, _windows(source, mark)), n, m)
                    if dense is not None:
                        return Graph._from_symmetric_rows(n, dense)
                    windows = chain(rest, _windows(source, mark))  # on a decline, read it again
                    break
            elif kind == "e":
                if n is None:
                    raise GraphParseError(f"line {lineno}: 'e' line before 'p' line")
                if len(tokens) != 3:
                    raise GraphParseError(f"line {lineno}: expected 'e <u> <v>'")
                try:
                    u, v = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise GraphParseError(f"line {lineno}: non-integer endpoint") from None
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphParseError(f"line {lineno}: endpoint outside [1, {n}]")
                if u == v:
                    raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
                if rows[u - 1] >> (v - 1) & 1:
                    raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
                rows[u - 1] |= 1 << (v - 1)
                rows[v - 1] |= 1 << (u - 1)
                found += 1
            else:
                raise GraphParseError(f"line {lineno}: unknown line type {kind!r}")
    if n is None:
        raise GraphParseError("missing 'p edge <n> <m>' line")
    if found != m:
        raise GraphParseError(f"'p' line declares {m} edges, found {found}")
    return Graph._from_symmetric_rows(n, rows)


def _windows(source: str | io.TextIOBase, mark: int | None = None) -> Iterator[str]:
    """The windows of a str from index ``mark``, or of a stream from
    ``seek(mark)``, made when first asked for; with no ``mark``, of the whole
    str or of the stream from where it stands. Each is _WINDOW_CHARS characters
    and the rest of the line they end in, cut at the next \\n of a str, or
    ``read(k)`` then ``readline()``."""
    if isinstance(source, str):
        pos = mark or 0
        while pos < len(source):
            stop = source.find("\n", pos + _WINDOW_CHARS) + 1 or len(source)
            yield source[pos:stop]
            pos = stop
    else:
        if mark is not None:
            source.seek(mark)
        while window := source.read(_WINDOW_CHARS):
            yield window + source.readline()


def _size(source: str | io.TextIOBase) -> int:
    """The length of a str; a stream's end position by a seek there and back
    (bytes of a file, characters of an ``io.StringIO``); 0 if it cannot seek,
    and the bulk reader never meets it."""
    if isinstance(source, str):
        return len(source)
    try:
        mark = source.tell()
        size = source.seek(0, os.SEEK_END)
        source.seek(mark)
    except (AttributeError, OSError):
        return 0
    return size


def _bulk_rows(windows: Iterator[str], n: int, m: int) -> list[int] | None:
    """The rows of a body, given as ``windows`` that each end at a line end,
    of exactly m canonical lines ``e <u> <v>`` (``encode_edge_list``'s layout,
    LF or CRLF, in any order) with no self-loop or duplicate, else None.

    Each window is split as ``(window + "e").split(" ")``: its j lines are
    canonical iff its odd tokens are keys of ``odd`` (1..n spelt out, so also
    the range check) and its even ones of ``even`` (those plus ``\\ne``, to
    the bit of v). One bit per edge is ORed in and the rows are transposed at
    the end, a band of rows at a time; a self-loop or duplicate sets fewer
    bits than it counts, so a popcount total of 2m rules both out.
    """
    odd = dict(zip(map(str, range(1, n + 1)), range(n)))
    even = dict(zip([v + "\ne" for v in odd], map((1).__lshift__, range(n))))
    rows = [0] * n
    found = 0
    for window in windows:
        tokens = (window.replace("\r\n", "\n").removesuffix("\n") + "\ne").split(" ")
        if tokens[0] != "e":
            return None
        try:
            us = list(map(odd.__getitem__, tokens[1::2]))
            for u, bit in zip(us, map(even.__getitem__, tokens[2::2])):
                rows[u] |= bit
        except KeyError:  # a line that is not canonical
            return None
        found += len(us)
    if found != m:
        return None
    # A band of rows u in [a, a + _BAND_ROWS), written out as bits highest u
    # first, holds the band's part of column v as every n-th character, so
    # each row v gains it by one int(s, 2). A bit that an earlier band added
    # is the transpose of a bit held already, so reading it back adds nothing.
    for a in range(0, n, _BAND_ROWS):
        bits = "".join([format(row, f"0{n}b") for row in reversed(rows[a : a + _BAND_ROWS])])
        for v in range(n):
            rows[v] |= int(bits[n - 1 - v :: n], 2) << a
    return rows if sum(row.bit_count() for row in rows) == 2 * m else None


def edge_list_chunks(g: Graph):
    """``encode_edge_list``'s text in pieces: the ``p`` line, then per vertex u
    its ``e u v`` lines with v > u, so a writer holds one row's lines at a time."""
    yield f"p edge {g.n} {g.m}\n"
    for u, row in enumerate(g.adj):
        yield "".join([f"e {u + 1} {v + 1}\n" for v in bit_indices(row >> u << u)])


def encode_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted sorted with u < v, 1-based."""
    return "".join(edge_list_chunks(g))


def parse_graph6(text: str) -> Graph:
    """Parse a one-line graph6 string (one-byte size form, n <= 62)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    values = []
    for ch in s:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise GraphParseError(f"graph6 byte {code} outside [63, 126]")
        values.append(code - 63)
    if values[0] == 63:
        raise GraphParseError("multi-byte graph6 size forms (n >= 63) are not supported")
    n = values[0]
    if n < 1:
        raise GraphParseError("graph6 string declares an empty graph")
    nbits = n * (n - 1) // 2
    payload = values[1:]
    if len(payload) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 payload has {len(payload)} bytes, expected {(nbits + 5) // 6} for n={n}"
        )
    bits = "".join(f"{c:06b}" for c in payload)
    return Graph.from_edges(n, (uv for uv, bit in zip(_graph6_pairs(n), bits) if bit == "1"))


def _graph6_pairs(n: int):
    """The vertex pairs (u, v), u < v, in graph6's bit order: column-major."""
    return ((u, v) for v in range(1, n) for u in range(v))


def check_graph6_size(n: int) -> None:
    """Refuse (ConstraintError) an n beyond graph6's one-byte size form."""
    if n > GRAPH6_MAX_N:
        raise ConstraintError(f"graph6 one-byte size form caps at n={GRAPH6_MAX_N}, got n={n}")


def graph6_detail(g: Graph) -> str:
    """`` graph6=<g>`` when g fits graph6's one-byte size form (n <= 62), else empty."""
    return f" graph6={encode_graph6(g)}" if g.n <= GRAPH6_MAX_N else ""


def encode_graph6(g: Graph) -> str:
    """Inverse of parse_graph6; requires n <= 62."""
    check_graph6_size(g.n)
    bits = "".join("01"[g.has_edge(u, v)] for u, v in _graph6_pairs(g.n))
    bits += "0" * (-len(bits) % 6)
    groups = [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in [g.n, *groups])


def _reach(g: Graph, start: int) -> int:
    """Bit set of the vertices reachable from ``start``, one frontier per step."""
    seen = frontier = 1 << start
    while frontier:
        grown = 0
        for u in bit_indices(frontier):
            grown |= g.adj[u]
        frontier = grown & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    return _reach(g, 0) == (1 << g.n) - 1


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each ascending, ordered by minimum."""
    unvisited = (1 << g.n) - 1
    components = []
    while unvisited:
        seen = _reach(g, (unvisited & -unvisited).bit_length() - 1)
        components.append(bit_indices(seen))
        unvisited &= ~seen
    return components


def twin_classes(g: Graph) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Degree-1 vertices, then classes of >= 2 vertices with equal rows
    ``adj[a]`` (open twins) and with equal ``adj[a] | 1 << a`` (closed twins).

    All lists ascend, and the classes by first member. Isolated vertices share
    the empty row but are no twins, so they are left out; no other vertices of
    two components share a row.

    One pass buckets each vertex by the signature (popcount, lowest bit, bit
    length) of its open row, and by that of its closed row, which follows by
    arithmetic: popcount + 1 and the extremes widened to ``a``. Each signature
    is one int, its three fields the digits of base n + 1, popcount highest.
    The leaves are the popcounts of 1. No row is copied; ``_classes`` rereads
    only the rows of the buckets of two or more.
    """
    adj = g.adj
    radix = g.n + 1  # each field is at most n
    top = radix * radix
    leaves: list[int] = []
    open_first, closed_first, open_shared, closed_shared = {}, {}, {}, {}
    for a, row in enumerate(adj):
        if not row:
            continue
        count, low, length = row.bit_count(), (row & -row).bit_length() - 1, row.bit_length()
        if count == 1:
            leaves.append(a)
        # A list only for a signature met again: most vertices cost none.
        signature = count * top + low * radix + length
        b = open_first.setdefault(signature, a)
        if b != a:
            open_shared.setdefault(signature, [b]).append(a)
        # Bit a joins the closed row below its lowest bit or above its top one, or between.
        if a < low:
            signature -= (low - a) * radix
        elif a >= length:
            signature += a + 1 - length
        signature += top
        b = closed_first.setdefault(signature, a)
        if b != a:
            closed_shared.setdefault(signature, [b]).append(a)
    open_classes = _classes(open_shared.values(), partial(map, adj.__getitem__))
    return leaves, open_classes, _classes(closed_shared.values(), partial(_closed_rows, adj))


def _closed_rows(adj: tuple[int, ...], members: list[int]) -> Iterator[int]:
    """The rows ``adj[a] | 1 << a`` of ``members``, made in C."""
    return map(int.__or__, map(adj.__getitem__, members), map((1).__lshift__, members))


def _classes(buckets, rows_of) -> list[list[int]]:
    """The classes of >= 2 vertices with equal rows, which ``rows_of(members)``
    gives in turn, each class ascending and ordered by first member: the one
    rule of both twin kinds.

    Each of ``buckets`` lists two or more ascending vertices whose rows may be
    equal. A bucket whose rows all equal its first row is a class; one of two
    unequal rows, a sparse graph's usual shared bucket, holds none. Any other
    bucket is split by each row's residue modulo ``_RESIDUE_PRIME``, which
    copies no row, and each part of two or more is judged by the same rule;
    a part left unsettled there is split by ``_row_key`` bytes made for its
    rows alone, and each part of those is a class.
    """
    classes = []
    for key in (_RESIDUE_PRIME.__rmod__, _row_key):
        unsettled = []
        for members in buckets:
            rows = rows_of(members)
            if all(map(next(rows).__eq__, rows)):  # each row against the first
                classes.append(members)
            elif len(members) > 2:  # two unequal rows are no class
                parts = {}
                for a, k in zip(members, map(key, rows_of(members))):
                    parts.setdefault(k, []).append(a)
                unsettled += [part for part in parts.values() if len(part) > 1]
        buckets = unsettled
    classes += buckets  # rows of equal bytes are equal
    # The classes are disjoint, so their distinct first members decide the order.
    classes.sort()
    return classes


# A prime below 2**30, so a residue is one C division by one digit. Modulo it 2
# has an order past 2**17 > EDGE_LIST_MAX_N, so rows that differ in one bit
# leave different residues. CPython's int hash is a residue modulo 2**61 - 1,
# where bits a and a + 61 count alike: the rows of a complete graph, each the
# full set less one bit, would share a hash in threes.
_RESIDUE_PRIME = 1073741789


def _row_key(row: int) -> bytes:
    """``row``'s bytes, empty for 0, as a dict key: CPython hashes an int modulo
    2**61 - 1, so the rows of banded graphs share a few dozen int hashes."""
    return row.to_bytes((row.bit_length() + 7) // 8, "little")


def xorshift64star(seed: int) -> Iterator[int]:
    """The xorshift64* outputs of ``seed``, endlessly; equations in the module docstring."""
    s = (seed & _MASK64) or 0x9E3779B97F4A7C15
    while True:
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        yield (s * 0x2545F4914F6CDD1D) & _MASK64


def _random_tree_edges(n: int, rng: Iterator[int]) -> Iterator[tuple[int, int]]:
    # Uniform labeled tree from a random Pruefer sequence, one edge at a time.
    if n == 1:
        return
    seq = [next(rng) % n for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        yield heapq.heappop(leaves), v
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    yield heapq.heappop(leaves), heapq.heappop(leaves)


def check_family(family: str, n: int, p: float | None = None) -> None:
    """Refuse (ConstraintError) what ``generate`` cannot build; builds nothing."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if n < 1:
        raise ConstraintError(f"family {family!r} needs n >= 1, got {n}")
    if n > EDGE_LIST_MAX_N:
        raise ConstraintError(f"family {family!r} caps at n={EDGE_LIST_MAX_N}, got n={n}")
    if family == "cycle" and n < 3:
        raise ConstraintError(f"cycle needs n >= 3, got {n}")
    if family == "gnp" and (p is None or not 0.0 <= p <= 1.0):
        raise ConstraintError(f"gnp needs a probability p in [0, 1], got {p!r}")


def generate(family: str, n: int, p: float | None = None, seed: int = 0) -> Graph:
    """Deterministically generate a named family or seeded random graph.

    path = 0-1-...-(n-1); cycle = path plus (n-1, 0); star = center 0 joined
    to all others; complete = all pairs; tree = uniform random labeled tree;
    gnp = each pair kept independently with probability p. ``check_family``
    runs first, so its refusals come before any edge is built. Every family
    streams its edges into ``Graph.from_edges``: no edge list is held.
    """
    check_family(family, n, p)
    if family == "path":
        edges = ((i, i + 1) for i in range(n - 1))
    elif family == "cycle":
        edges = chain(((i, i + 1) for i in range(n - 1)), [(n - 1, 0)])
    elif family == "star":
        edges = ((0, i) for i in range(1, n))
    elif family == "complete":
        edges = ((u, v) for u in range(n) for v in range(u + 1, n))
    elif family == "tree":
        edges = _random_tree_edges(n, xorshift64star(seed))
    else:  # gnp
        rng = xorshift64star(seed)
        threshold = int(p * 2**64)
        edges = ((u, v) for u in range(n) for v in range(u + 1, n) if next(rng) < threshold)
    return Graph.from_edges(n, edges)
