"""Brute-force ground truth over exact Gaussian integers.

The statevector keeps unnormalized integer amplitudes (the physical state
carries an implicit 2**(-n/2) which cancels out of every check here); basis
index x stores qubit a in bit a, least significant bit first.

The stabilization system asks for real coefficients (theta, t_ax, t_ay,
t_az) with ``(theta + sum_a t_a . sigma_a) |psi> = 0``. Its matrix has the
3n+1 columns [v0 | X_a v0 | Y_a v0 | Z_a v0]; splitting complex rows into
real and imaginary blocks gives an integer matrix whose rank over the
rationals we need. For a graph state every column is a +-1 vector (real for
theta/X/Z, imaginary for Y), so each column packs into a 2**n-bit sign mask
(bit y set iff amplitude y is negative). The masks are built directly with
big-int operations from the graph's edges, never amplitude by amplitude:
v0 is the XOR over edges (u, v) of the masks "bits u and v of y are set",
Z_a flips the signs where bit a of y is set, and X_a swaps the blocks of
2**a amplitudes that differ in bit a. Every Gram inner product is then one
XOR plus a popcount. The rank is read off the two small Gram blocks
G = A^T A (real columns and imaginary columns never mix), using fraction-free
Bareiss elimination on integers; rank(A^T A) = rank(A) holds exactly over
the rationals, and the nullity is 3n+1 minus that rank.

Both routes cost 2**n time and memory, so each refuses n > ``ORACLE_CEILING``,
a limit no caller can raise.
``build_statevector`` and ``apply_pauli`` are an amplitude-level reference
for tests; the nullity route does not use them. The module imports only
``graphs`` and ``errors``, so it shares no code with the configuration and
Pauli routes it checks: ``apply_pauli`` takes any object with a
``PauliString``'s fields, and no annotation names a type the module does not
import, so ``typing.get_type_hints`` resolves every signature.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConstraintError
from .graphs import Graph

ORACLE_CEILING = 20


class ExactStateVector(namedtuple("ExactStateVector", "n re im")):
    """2**n Gaussian-integer amplitudes, stored as parallel re/im tuples."""

    __slots__ = ()


def _check_ceiling(n: int) -> None:
    """Refuse (ConstraintError) an n past ``ORACLE_CEILING``: both routes hold 2**n."""
    if n > ORACLE_CEILING:
        raise ConstraintError(f"statevector oracle caps at n={ORACLE_CEILING}, got n={n}")


def build_statevector(g: Graph) -> ExactStateVector:
    """amp[x] = (-1)**(number of edges with both endpoints set in x)."""
    _check_ceiling(g.n)
    size = 1 << g.n
    re = [1] * size
    full = size - 1
    for u, v in g.edges():
        pair = (1 << u) | (1 << v)
        rest = full & ~pair
        x = 0
        while True:
            y = x | pair
            re[y] = -re[y]
            if x == rest:
                break
            x = (x - rest) & rest
    return ExactStateVector(g.n, tuple(re), (0,) * size)


def apply_pauli(p, v: ExactStateVector) -> ExactStateVector:
    """Exact action of ``p``, a ``PauliString`` (fields n, x, z, phase_exp):
    Z signs by source bits, X permutes, i**phase_exp rotates."""
    if p.n != v.n:
        raise ValueError(f"size mismatch: operator on {p.n} qubits, state on {v.n}")
    size = 1 << v.n
    re = [0] * size
    im = [0] * size
    for y in range(size):
        src = y ^ p.x
        if (src & p.z).bit_count() & 1:
            a, b = -v.re[src], -v.im[src]
        else:
            a, b = v.re[src], v.im[src]
        re[y] = a
        im[y] = b
    for _ in range(p.phase_exp):  # each factor i is a quarter turn
        re, im = [-b for b in im], re
    return ExactStateVector(v.n, tuple(re), tuple(im))


def matrix_rank(rows) -> int:
    """Exact rank over the rationals of an integer matrix, by fraction-free
    Bareiss elimination (every division is exact)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead, tail = m[r][c], m[r][c + 1:]
        for row in m[r + 1:]:
            head = row[c]
            row[c + 1:] = [(lead * x - head * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = lead
        r += 1
    return r


def _bit_pattern(n: int, a: int) -> int:
    """2**n-bit mask with bit y set iff bit a of y is set."""
    half = 1 << a
    pattern = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << n:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _gram_blocks(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Gram matrices of the real [theta, X_a, Z_a] and imaginary [Y_a] column blocks."""
    _check_ceiling(g.n)
    n = g.n
    size = 1 << n
    full = (1 << size) - 1
    bit_set = [_bit_pattern(n, a) for a in range(n)]
    v0 = 0
    for u, v in g.edges():
        v0 ^= bit_set[u] & bit_set[v]

    def flip(m: int, a: int) -> int:
        # X_a: amplitude y moves to y ^ 2**a.
        shift = 1 << a
        return ((m & bit_set[a]) >> shift) | ((m & ~bit_set[a] & full) << shift)

    z_masks = [v0 ^ bit_set[a] for a in range(n)]
    real_masks = [v0] + [flip(v0, a) for a in range(n)] + z_masks
    # Y_a = i X_a Z_a, so on a real state its column is imaginary.
    imag_masks = [flip(z_masks[a], a) for a in range(n)]

    def gram(masks):
        k = len(masks)
        out = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                dot = size - 2 * (masks[i] ^ masks[j]).bit_count()
                out[i][j] = out[j][i] = dot
        return out

    return gram(real_masks), gram(imag_masks)


def local_algebra_nullity(g: Graph) -> int:
    """Dimension of the solution space of the stabilization system (3n+1 unknowns)."""
    real_block, imag_block = _gram_blocks(g)
    rank = matrix_rank(real_block) + matrix_rank(imag_block)
    return (3 * g.n + 1) - rank
