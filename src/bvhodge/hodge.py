"""Bigraded dimension tables and cyclic-group character bookkeeping.

Three building blocks, all exact data:

* :class:`HodgeDiamond`, a table of dimensions h^{p,q} for 0 <= p,q <= d;
* :class:`CharacterVector`, multiplicities of the characters of a cyclic
  group C_n relative to one fixed generator;
* :class:`BigradedCharacterTable`, a Hodge-type table refined by characters,
  used for the eigenspace decomposition of the cohomology of a variety with
  a C_n action.

Tables attached to a single eigenspace are genuinely asymmetric in (p, q);
symmetry is asserted only for final quotient invariants, never here.  No
floating point is used anywhere.  The value types check shapes, moduli and
signs but keep their entries as given, so a ``Fraction`` stays a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


class ModulusMismatch(ValueError):
    """Raised when combining character data over different cyclic groups."""


@dataclass(frozen=True)
class CharacterVector:
    """Multiplicities ``c[j]`` of the characters of C_n in a representation.

    Index ``j`` stands for the character sending the fixed generator to
    exp(2*pi*i*j/n); all index arithmetic is mod n.
    """

    n: int
    c: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be at least 1, got {self.n}")
        object.__setattr__(self, "c", tuple(self.c))
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

    def __mul__(self, scalar: int) -> "CharacterVector":
        if scalar < 0:
            raise ValueError("multiplicities stay nonnegative")
        return CharacterVector(self.n, tuple(scalar * m for m in self.c))

    __rmul__ = __mul__

    def shift(self, e: int) -> "CharacterVector":
        """Tensor with the character of index ``e``: c'[j] = c[j - e]."""
        n = self.n
        return CharacterVector(n, tuple(self.c[(j - e) % n] for j in range(n)))

    def conjugate(self) -> "CharacterVector":
        """Complex-conjugate representation: c'[j] = c[-j]."""
        n = self.n
        return CharacterVector(n, tuple(self.c[(-j) % n] for j in range(n)))

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


def invariant_pairing(a: CharacterVector, b: CharacterVector) -> int:
    """Dimension of the C_n-invariant subspace of the tensor product.

    A character j of one factor pairs with the character -j of the other,
    so the invariant dimension is sum_j a[j] * b[(n-j) mod n].
    """
    if a.n != b.n:
        raise ModulusMismatch(f"modulus mismatch: {a.n} != {b.n}")
    n = a.n
    return sum(a.c[j] * b.c[(n - j) % n] for j in range(n))


@dataclass(frozen=True)
class HodgeDiamond:
    """Nonnegative bigraded dimension table ``table[p][q]``, 0 <= p,q <= d."""

    d: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("dimension must be nonnegative")
        rows = tuple(map(tuple, self.table))
        object.__setattr__(self, "table", rows)
        if len(rows) != self.d + 1 or set(map(len, rows)) != {self.d + 1}:
            raise ValueError(f"table must be {self.d + 1} x {self.d + 1}")
        if min(map(min, rows)) < 0:
            raise ValueError("all entries must be nonnegative")

    @classmethod
    def zero(cls, d: int) -> "HodgeDiamond":
        return cls(d, tuple((0,) * (d + 1) for _ in range(d + 1)))

    @classmethod
    def from_entries(cls, d: int, entries: Mapping[tuple[int, int], int]) -> "HodgeDiamond":
        table = [[0] * (d + 1) for _ in range(d + 1)]
        for (p, q), v in entries.items():
            if not (0 <= p <= d and 0 <= q <= d):
                raise ValueError(f"entry ({p},{q}) outside 0..{d}")
            table[p][q] = v
        return cls(d, tuple(tuple(row) for row in table))

    def entry(self, p: int, q: int) -> int:
        return self.table[p][q]

    def total(self) -> int:
        return sum(sum(row) for row in self.table)

    def __add__(self, other: "HodgeDiamond") -> "HodgeDiamond":
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} != {other.d}")
        return HodgeDiamond(
            self.d,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.table, other.table)
            ),
        )

    def is_pq_symmetric(self) -> bool:
        """h^{p,q} = h^{q,p}.  Holds for Kaehler-type diamonds only."""
        return all(
            self.table[p][q] == self.table[q][p]
            for p in range(self.d + 1)
            for q in range(self.d + 1)
        )

    def is_self_dual(self) -> bool:
        """h^{p,q} = h^{d-p,d-q}."""
        d = self.d
        return all(
            self.table[p][q] == self.table[d - p][d - q]
            for p in range(d + 1)
            for q in range(d + 1)
        )

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
    width = max(len(str(v)) for row in table for v in row) + 2
    lines = []
    for k in range(2 * d + 1):
        ps = [p for p in range(d, -1, -1) if 0 <= k - p <= d]
        cells = "".join(str(table[p][k - p]).center(width) for p in ps)
        lines.append(cells.center((2 * d + 1) * width).rstrip())
    return "\n".join(lines)


def euler_characteristic(diamond: HodgeDiamond) -> int:
    """Alternating sum sum_{p,q} (-1)^{p+q} h^{p,q}."""
    return sum(
        (-1) ** (p + q) * diamond.table[p][q]
        for p in range(diamond.d + 1)
        for q in range(diamond.d + 1)
    )


def add_shifted(diamond: HodgeDiamond, contribution: HodgeDiamond, shift: int) -> HodgeDiamond:
    """Add ``contribution`` into ``diamond`` with both indices moved up by ``shift``.

    A nonzero entry pushed outside 0..d is an error: for the geometries
    handled here it signals non-crepant local data, never a rounding issue.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    table = [list(row) for row in diamond.table]
    for p in range(contribution.d + 1):
        for q in range(contribution.d + 1):
            v = contribution.table[p][q]
            if not v:
                continue
            tp, tq = p + shift, q + shift
            if tp > diamond.d or tq > diamond.d:
                raise ValueError(
                    f"shifted entry ({tp},{tq}) falls outside 0..{diamond.d}"
                )
            table[tp][tq] += v
    return HodgeDiamond(diamond.d, tuple(tuple(row) for row in table))


@dataclass(frozen=True)
class BigradedCharacterTable:
    """A CharacterVector for every bidegree (p, q), 0 <= p,q <= d.

    Houses the eigenspace-refined cohomology of a variety with a C_n action;
    the invariant part of any bidegree is the character-0 slice.
    """

    n: int
    d: int
    grid: tuple[tuple[CharacterVector, ...], ...]

    def __post_init__(self):
        if len(self.grid) != self.d + 1 or any(len(r) != self.d + 1 for r in self.grid):
            raise ValueError(f"grid must be {self.d + 1} x {self.d + 1}")
        for row in self.grid:
            for vec in row:
                if vec.n != self.n:
                    raise ModulusMismatch(
                        f"modulus mismatch inside table: {vec.n} != {self.n}"
                    )

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

    def total(self) -> int:
        return sum(vec.total() for row in self.grid for vec in row)

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


def invariant_diamond(table: BigradedCharacterTable) -> HodgeDiamond:
    """Extract the character-0 multiplicity at every bidegree."""
    return HodgeDiamond(
        table.d, tuple(tuple(vec.c[0] for vec in row) for row in table.grid)
    )
