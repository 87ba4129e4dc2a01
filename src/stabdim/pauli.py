"""Pauli strings in symplectic (x, z) bit form with exact i**k phase tracking.

A ``PauliString`` denotes ``i**phase_exp * prod_a X_a**x_a * Z_a**z_a`` with
the X factor written left of the Z factor on every qubit. Bit ``a`` of ``x``
(resp. ``z``) is the X (resp. Z) component on qubit ``a``; a lone ``Y_a`` is
stored as ``x_a = z_a = 1`` with ``phase_exp = 1`` since ``Y = i X Z``.

Rendered text is a sign ("+", "+i", "-", "-i") followed by one letter per
qubit from {I, X, Y, Z}, qubit 0 leftmost.

Exponent vectors are plain ints: bit ``i`` is the exponent of the i-th graph
generator, so GF(2) row reduction works directly on them.
"""

from __future__ import annotations

from collections import namedtuple

# g2_rank lives next to slot_span_rank; stabdim and perfbench's pauli.g2_rank use it from here.
from .configurations import detect_configurations, exponent_vector, g2_rank
from .errors import ConsistencyError
from .graphs import Graph, bit_indices, graph6_detail

_SIGNS = ("+", "+i", "-", "-i")
# Letter of one qubit, indexed by x_bit | z_bit << 1.
_LETTERS = "IXZY"
# A hex digit d of base-4 letter indices holds two qubits: the lower one in d & 3.
_HEX_LETTERS = str.maketrans({f"{d:x}": _LETTERS[d & 3] + _LETTERS[d >> 2] for d in range(16)})


class PauliString(namedtuple("PauliString", "n x z phase_exp")):
    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int, phase_exp: int = 0) -> "PauliString":
        full = (1 << n) - 1
        if x & ~full or z & ~full:
            raise ValueError(f"x/z bits beyond qubit {n - 1}")
        return tuple.__new__(cls, (n, x, z, phase_exp % 4))

    # ``_replace`` builds through ``_make``, so it runs the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def support(self) -> int:
        """Bit vector of qubits acted on non-trivially."""
        return self.x | self.z

    def weight(self) -> int:
        return self.support().bit_count()

    def letter(self, qubit: int) -> str:
        return _LETTERS[(self.x >> qubit) & 1 | ((self.z >> qubit) & 1) << 1]

    def letters(self) -> str:
        # Read as base 4, the binary digits of x and z put bit a at base-4 digit a,
        # so digit a of the sum is qubit a's index into _LETTERS; its hex digits,
        # lowest first, are two qubits each. Base 4 is a power of two, so int(s, 4)
        # has no digit limit, unlike int(s) past 4300 digits since Python 3.11.
        n = self.n
        indices = int(format(self.x, "b"), 4) + 2 * int(format(self.z, "b"), 4)
        return format(indices, f"0{(n + 1) // 2}x")[::-1].translate(_HEX_LETTERS)[:n]

    def sign(self) -> str:
        # Each Y qubit holds X*Z = -i*Y, so the displayed phase gains i**3 per Y.
        return _SIGNS[(self.phase_exp + 3 * (self.x & self.z).bit_count()) % 4]

    def __str__(self) -> str:
        return self.sign() + self.letters()


def element(g: Graph, exponents: int) -> PauliString:
    """Product of the graph generators g_i = X_i Z_N(i) over the set bits of
    ``exponents``, read off ``g.adj`` and built once.

    The X part is ``exponents`` itself and the Z part is the XOR of the rows
    of its bits. Taking the factors in ascending order, the phase gains 2
    (a factor -1) for each factor i whose X_i meets a Z_i accumulated so far.
    """
    z = phase = 0
    for i in bit_indices(exponents):
        phase += 2 * (z >> i & 1)
        z ^= g.adj[i]
    return PauliString(g.n, exponents, z, phase)


def low_weight_elements(g: Graph, mode: str = "brute") -> list[tuple[int, PauliString]]:
    """All non-identity stabilizer elements with support of size <= 2.

    Returned as (exponent vector, element) pairs sorted by exponent vector.
    ``brute`` works for any graph and reads ``g.adj`` only: the X part of a
    product of generators is its exponent vector, so it tests the n singles
    and n(n-1)/2 pairs of generators, O(n**2) row XORs, and nothing that
    groups vertices into classes. ``fast`` maps each configuration of
    ``detect_configurations(g)`` to its exponent vector, so it refuses what
    that refuses (a disconnected graph or n < 2); it takes O(n + m + output)
    row operations, each O(n/w) words on n-bit rows (see ROADMAP item 9).
    The modes differ only in how they pick the exponent vectors and return
    identical lists, so comparing them checks the configuration detector.
    Both build each element with ``element(g, e)`` from the adjacency rows
    alone. Only an isolated vertex's generator has weight < 2, so any other
    such element raises ConsistencyError, on a connected graph or not.
    Neither mode limits n.
    """
    if mode == "brute":
        exponents = _brute_exponents(g.adj)
    elif mode == "fast":
        exponents = [exponent_vector(c) for c in detect_configurations(g)]
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'brute' or 'fast'")
    out = [(e, element(g, e)) for e in sorted(exponents)]
    for e, p in out:
        if p.weight() < 2 and (e & (e - 1) or g.adj[e.bit_length() - 1]):
            raise ConsistencyError(
                f"weight-{p.weight()} stabilizer element {p} from exponent vector "
                f"{format(e, f'0{g.n}b')[::-1]}, which is not one isolated vertex{graph6_detail(g)}"
            )
    return out


def _brute_exponents(adj: tuple[int, ...]) -> list[int]:
    # The X part of prod_{i in e} g_i is e itself, so weight <= 2 needs |e| <= 2:
    # {i} has support {i} | adj[i], so it qualifies iff deg(i) <= 1, and {i, j}
    # has support {i, j} | (adj[i] ^ adj[j]), so it qualifies iff the rows
    # differ only inside {i, j}. Rows never hold their own vertex, so there
    # they differ in both of i and j (i ~ j) or in neither.
    hits = [1 << i for i, row in enumerate(adj) if row.bit_count() <= 1]
    for j in range(1, len(adj)):
        row_j, bit_j = adj[j], 1 << j
        for i in range(j):
            diff = adj[i] ^ row_j
            if not diff or diff == 1 << i | bit_j:
                hits.append(1 << i | bit_j)
    return hits
