"""Hodge diamonds, and the character bookkeeping the bench still hooks.

The serving path uses :class:`HodgeDiamond`, a table of dimensions h^{p,q}
for 0 <= p,q <= d, its drawing :func:`pictogram` and
:func:`euler_characteristic`.

The rest is a test oracle that stays here only because ``bench/tracer.py``
hooks ``CharacterVector`` and ``kunneth_character_product``:
:class:`CharacterVector`, the multiplicities of the characters of a cyclic
group C_n relative to one fixed generator, with :class:`ModulusMismatch`;
and :func:`kunneth_character_product`, the character-refined Kuenneth
product of two square grids of such vectors, whose character-0 slice the
tests compare with the engine's untwisted part.

A grid attached to a single eigenspace is genuinely asymmetric in (p, q);
symmetry is asserted only for final quotient invariants, never here.  No
floating point is used anywhere.  The value types check shapes, moduli and
signs but keep their entries as given, so a ``Fraction`` stays a ``Fraction``.
"""

from __future__ import annotations

from .record import Record, setfield


class ModulusMismatch(ValueError):
    """Raised when combining character data over different cyclic groups."""


class CharacterVector(Record):
    """Multiplicities ``c[j]`` of the characters of C_n in a representation.

    Index ``j`` stands for the character sending the fixed generator to
    exp(2*pi*i*j/n); all index arithmetic is mod n.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        setfield(self, "n", n)
        setfield(self, "c", tuple(c))
        if len(self.c) != self.n:
            raise ValueError(f"expected {self.n} multiplicities, got {len(self.c)}")
        if min(self.c) < 0:
            raise ValueError(f"negative multiplicity in {self.c}")

    @classmethod
    def zero(cls, n: int) -> "CharacterVector":
        return cls(n, (0,) * n)

    def total(self) -> int:
        return sum(self.c)

    def __add__(self, other: "CharacterVector") -> "CharacterVector":
        if self.n != other.n:
            raise ModulusMismatch(f"modulus mismatch: {self.n} != {other.n}")
        return CharacterVector(self.n, tuple(a + b for a, b in zip(self.c, other.c)))

    def convolve(self, other: "CharacterVector") -> "CharacterVector":
        """Character vector of the tensor product of the two representations."""
        if self.n != other.n:
            raise ModulusMismatch(f"modulus mismatch: {self.n} != {other.n}")
        n = self.n
        out = [0] * n
        for j1, m1 in enumerate(self.c):
            if not m1:
                continue
            for j2, m2 in enumerate(other.c):
                if m2:
                    out[(j1 + j2) % n] += m1 * m2
        return CharacterVector(n, tuple(out))


class HodgeDiamond(Record):
    """Nonnegative bigraded dimension table ``table[p][q]``, 0 <= p,q <= d."""

    __slots__ = ("d", "table")

    def __init__(self, d: int, table: tuple[tuple[int, ...], ...]):
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        rows = tuple(map(tuple, table))
        setfield(self, "d", d)
        setfield(self, "table", rows)
        if len(rows) != d + 1 or set(map(len, rows)) != {d + 1}:
            raise ValueError(f"table must be {d + 1} x {d + 1}")
        if min(map(min, rows)) < 0:
            raise ValueError("all entries must be nonnegative")

    def entry(self, p: int, q: int) -> int:
        return self.table[p][q]

    def is_pq_symmetric(self) -> bool:
        """h^{p,q} = h^{q,p}.  Holds for Kaehler-type diamonds only."""
        return tuple(zip(*self.table)) == self.table

    def is_self_dual(self) -> bool:
        """h^{p,q} = h^{d-p,d-q}: the entries read backwards, row after row, are the same."""
        flat = sum(self.table, ())
        return flat[::-1] == flat

    def pictogram(self) -> str:
        """Diamond-shaped rendering; see :func:`pictogram`."""
        return pictogram(self.table)


#: ``_PICTOGRAM_ROWS[d]``: the (p, q) cells of each row of a d-dimensional drawing, once drawn
_PICTOGRAM_ROWS: dict[int, tuple] = {}


def pictogram(table) -> str:
    """Diamond-shaped rendering of a square table, one row per total degree p+q.

    Row k lists h^{p,q} with p+q = k, p descending, so the top row is
    h^{0,0} and the middle row of a threefold reads h^{3,0} h^{2,1}
    h^{1,2} h^{0,3}.
    """
    d = len(table) - 1
    rows = _PICTOGRAM_ROWS.get(d)
    if rows is None:
        rows = _PICTOGRAM_ROWS[d] = tuple(
            tuple((p, k - p) for p in range(min(k, d), max(k - d, 0) - 1, -1))
            for k in range(2 * d + 1))
    cells = [list(map(str, row)) for row in table]
    width = max(map(len, sum(cells, []))) + 2
    lines = []
    for row in rows:
        line = ""
        for p, q in row:
            line += cells[p][q].center(width)
        lines.append(line.center((2 * d + 1) * width).rstrip())
    return "\n".join(lines)


def euler_characteristic(diamond: HodgeDiamond) -> int:
    """Alternating sum sum_{p,q} (-1)^{p+q} h^{p,q}."""
    # row p adds its entries at q of the parity of p and takes away the others
    e = 0
    for p, row in enumerate(diamond.table):
        e += (-1) ** p * (sum(row[::2]) - sum(row[1::2]))
    return e


#: a square grid ``grid[p][q]`` of character vectors, one per bidegree, over one modulus
Grid = tuple[tuple[CharacterVector, ...], ...]


def kunneth_character_product(a: Grid, b: Grid) -> Grid:
    """Character-refined Kuenneth product of two square grids.

    At bidegree (p, q) the character j collects every way of writing
    p = p1+p2, q = q1+q2, j = j1+j2 (mod n) from the two factors.
    """
    n = a[0][0].n
    if b[0][0].n != n:
        raise ModulusMismatch(f"modulus mismatch: {n} != {b[0][0].n}")
    d = len(a) + len(b) - 2
    zero = CharacterVector.zero(n)
    grid = [[zero] * (d + 1) for _ in range(d + 1)]
    for p1, row_a in enumerate(a):
        for q1, va in enumerate(row_a):
            if va.total() == 0:
                continue
            for p2, row_b in enumerate(b):
                for q2, vb in enumerate(row_b):
                    if vb.total() == 0:
                        continue
                    p, q = p1 + p2, q1 + q2
                    grid[p][q] = grid[p][q] + va.convolve(vb)
    return tuple(map(tuple, grid))
