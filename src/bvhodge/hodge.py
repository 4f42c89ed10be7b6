"""Bigraded dimension tables and cyclic-group character bookkeeping.

Three building blocks, all exact data:

* :class:`HodgeDiamond`, a table of dimensions h^{p,q} for 0 <= p,q <= d;
* :class:`CharacterVector`, multiplicities of the characters of a cyclic
  group C_n relative to one fixed generator;
* :class:`BigradedCharacterTable`, a Hodge-type table refined by characters,
  used for the eigenspace decomposition of the cohomology of a variety with
  a C_n action.

The engine and the CLI use only the diamond; the character types and the
Kuenneth product are test oracles, kept here while the bench hooks them.

Tables attached to a single eigenspace are genuinely asymmetric in (p, q);
symmetry is asserted only for final quotient invariants, never here.  No
floating point is used anywhere.  The value types check shapes, moduli and
signs but keep their entries as given, so a ``Fraction`` stays a ``Fraction``.
"""

from __future__ import annotations

from typing import Mapping

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

    @classmethod
    def delta(cls, n: int, j: int, mult: int = 1) -> "CharacterVector":
        """``mult`` copies of the single character of index ``j``."""
        c = [0] * n
        c[j % n] = mult
        return cls(n, tuple(c))

    @classmethod
    def orbit(cls, n: int, size: int) -> "CharacterVector":
        """Permutation character of C_n acting on an orbit of ``size`` points.

        The characters that occur are exactly those trivial on the orbit
        stabilizer, i.e. the multiples of n/size, each with multiplicity one.
        """
        if size < 1 or n % size != 0:
            raise ValueError(f"orbit size {size} does not divide {n}")
        step = n // size
        c = [0] * n
        for t in range(size):
            c[t * step] = 1
        return cls(n, tuple(c))

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
        """h^{p,q} = h^{d-p,d-q}."""
        return tuple(row[::-1] for row in reversed(self.table)) == self.table

    def pictogram(self) -> str:
        """Diamond-shaped rendering; see :func:`pictogram`."""
        return pictogram(self.table)


def pictogram(table) -> str:
    """Diamond-shaped rendering of a square table, one row per total degree p+q.

    Row k lists h^{p,q} with p+q = k, p descending, so the top row is
    h^{0,0} and the middle row of a threefold reads h^{3,0} h^{2,1}
    h^{1,2} h^{0,3}.
    """
    d = len(table) - 1
    cells = [list(map(str, row)) for row in table]
    width = max(map(len, sum(cells, []))) + 2
    return "\n".join(
        "".join([cells[p][k - p].center(width) for p in range(min(k, d), max(k - d, 0) - 1, -1)])
        .center((2 * d + 1) * width).rstrip()
        for k in range(2 * d + 1))


def euler_characteristic(diamond: HodgeDiamond) -> int:
    """Alternating sum sum_{p,q} (-1)^{p+q} h^{p,q}."""
    # row p adds its entries at q of the parity of p and takes away the others
    return sum(sum(row[p % 2::2]) - sum(row[1 - p % 2::2])
               for p, row in enumerate(diamond.table))


class BigradedCharacterTable(Record):
    """A CharacterVector for every bidegree (p, q), 0 <= p,q <= d.

    Houses the eigenspace-refined cohomology of a variety with a C_n action;
    the invariant part of any bidegree is the character-0 slice.
    """

    __slots__ = ("n", "d", "grid")

    def __init__(self, n: int, d: int, grid: tuple[tuple[CharacterVector, ...], ...]):
        setfield(self, "n", n)
        setfield(self, "d", d)
        setfield(self, "grid", grid)
        if len(grid) != d + 1 or any(len(r) != d + 1 for r in grid):
            raise ValueError(f"grid must be {d + 1} x {d + 1}")
        for row in grid:
            for vec in row:
                if vec.n != n:
                    raise ModulusMismatch(f"modulus mismatch inside table: {vec.n} != {n}")

    @classmethod
    def from_entries(
        cls, n: int, d: int, entries: Mapping[tuple[int, int], CharacterVector]
    ) -> "BigradedCharacterTable":
        grid = [[CharacterVector.zero(n) for _ in range(d + 1)] for _ in range(d + 1)]
        for (p, q), vec in entries.items():
            if not (0 <= p <= d and 0 <= q <= d):
                raise ValueError(f"entry ({p},{q}) outside 0..{d}")
            grid[p][q] = vec
        return cls(n, d, tuple(tuple(row) for row in grid))

    @classmethod
    def one_point(cls, n: int) -> "BigradedCharacterTable":
        """The table of a point: dimension 0, trivial character, total 1."""
        return cls(n, 0, ((CharacterVector.delta(n, 0),),))

    def vector(self, p: int, q: int) -> CharacterVector:
        return self.grid[p][q]

    def total_diamond(self) -> HodgeDiamond:
        """Forget the characters: per-(p,q) total dimensions."""
        return HodgeDiamond(
            self.d, tuple(tuple(vec.total() for vec in row) for row in self.grid)
        )


def kunneth_character_product(
    a: BigradedCharacterTable, b: BigradedCharacterTable
) -> BigradedCharacterTable:
    """Character-refined Kuenneth product of two bigraded tables.

    At bidegree (p, q) the character j collects every way of writing
    p = p1+p2, q = q1+q2, j = j1+j2 (mod n) from the two factors.
    """
    if a.n != b.n:
        raise ModulusMismatch(f"modulus mismatch: {a.n} != {b.n}")
    n, d = a.n, a.d + b.d
    grid = [[CharacterVector.zero(n) for _ in range(d + 1)] for _ in range(d + 1)]
    for p1 in range(a.d + 1):
        for q1 in range(a.d + 1):
            va = a.grid[p1][q1]
            if va.total() == 0:
                continue
            for p2 in range(b.d + 1):
                for q2 in range(b.d + 1):
                    vb = b.grid[p2][q2]
                    if vb.total() == 0:
                        continue
                    p, q = p1 + p2, q1 + q2
                    grid[p][q] = grid[p][q] + va.convolve(vb)
    return BigradedCharacterTable(n, d, tuple(tuple(row) for row in grid))

