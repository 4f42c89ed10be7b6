"""Independent oracle for the sector invariants: Burnside trace averaging.

The engine computes invariant dimensions by pairing character tuples with
per-order weights.  This oracle recomputes every component class from first
principles instead: the trace of each group power on the component sum is
evaluated pointwise (a permuted component contributes nothing, a fixed one
contributes its residual character sum), the products of the two factor
traces are averaged over the group, and the result must be a plain integer.
Each class's dims, shifted by its age and taken count times, add up to
the table :func:`bvhodge.engine.sector_contribution` serves.
All arithmetic happens in the quadratic cyclotomic fields of the supported
orders, represented exactly over Fraction; no call into the engine's
pairing machinery is made.
"""

from fractions import Fraction
from math import gcd

from bvhodge.engine import sector_contribution
from bvhodge.fixed_locus import ELLIPTIC_ORBITS
from generators import samples
from oracles import curve_character_dims, eager_sector_components


class Cyc:
    """Exact a + b * zeta_n for n in {2, 3, 4, 6} (zeta rational for n = 2)."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n, a=0, b=0):
        self.n, self.a, self.b = n, Fraction(a), Fraction(b)

    def __add__(self, other):
        return Cyc(self.n, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        c0 = self.a * other.a
        c1 = self.a * other.b + self.b * other.a
        c2 = self.b * other.b
        n = self.n
        if n == 2:      # zeta^2 = 1 (zeta is kept rational, b stays 0)
            return Cyc(n, c0 + c2, c1)
        if n == 3:      # zeta^2 = -1 - zeta
            return Cyc(n, c0 - c2, c1 - c2)
        if n == 4:      # zeta^2 = -1
            return Cyc(n, c0 - c2, c1)
        if n == 6:      # zeta^2 = zeta - 1
            return Cyc(n, c0 - c2, c1 + c2)
        raise ValueError(n)

    def as_integer(self):
        assert self.b == 0, f"non-rational value {self.a} + {self.b} zeta"
        assert self.a.denominator == 1, f"non-integral value {self.a}"
        return int(self.a)


def zeta_pow(n, k):
    if n == 2:
        return Cyc(2, 1 if k % 2 == 0 else -1)
    out = Cyc(n, 1)
    for _ in range(k % n):
        out = out * Cyc(n, 0, 1)
    return out


def character_sum(n, dims, j):
    """Trace of the j-th power on a module with the given character dims."""
    out = Cyc(n, 0)
    for t, mult in enumerate(dims):
        if mult:
            out = out + Cyc(n, mult) * zeta_pow(n, j * t)
    return out


def perm_trace(n, orbit_size, j):
    """Fixed components of the j-th power permuting an orbit cyclically."""
    return Cyc(n, orbit_size if j % orbit_size == 0 else 0)


def burnside_average(n, s_traces, e_traces):
    total = Cyc(n, 0)
    for j in range(n):
        total = total + s_traces[j] * e_traces[j]
    value = total.as_integer()
    assert value % n == 0, f"Burnside sum {value} not divisible by {n}"
    return value // n


def oracle_component_dims(n, comp, e_sizes):
    """Invariant dimensions of one component class, per unshifted bidegree."""
    e_traces = [
        sum((perm_trace(n, s, j) for s in e_sizes), Cyc(n, 0)) for j in range(n)
    ]
    size = comp.source.orbit_size
    fixed = [perm_trace(n, size, j) for j in range(n)]
    if comp.kind == "point":
        return {(0, 0): burnside_average(n, fixed, e_traces)}
    dims = curve_character_dims(comp.source, n)
    conj = tuple(dims[(-t) % n] for t in range(n))
    forms = [fixed[j] * character_sum(n, dims, j) for j in range(n)]
    forms_bar = [fixed[j] * character_sum(n, conj, j) for j in range(n)]
    return {
        (0, 0): burnside_average(n, fixed, e_traces),
        (1, 0): burnside_average(n, forms, e_traces),
        (0, 1): burnside_average(n, forms_bar, e_traces),
        (1, 1): burnside_average(n, fixed, e_traces),
    }


def assert_sector_matches_oracle(config):
    """Every sector's served table against its components' Burnside dims, age-shifted."""
    n = config.n
    for j in range(1, n):
        e_sizes = ELLIPTIC_ORBITS[n][n // gcd(j, n)]
        expected = [[0] * 4 for _ in range(4)]
        for comp in eager_sector_components(config, j):
            for (p, q), dim in oracle_component_dims(n, comp, e_sizes).items():
                expected[p + comp.age][q + comp.age] += comp.source.count * dim
        got = sector_contribution(config, j)
        assert got == tuple(map(tuple, expected)), (n, j, got, expected)


def test_cyclotomic_arithmetic_sanity():
    for n in (2, 3, 4, 6):
        # the n-th power of zeta is 1 and the full character sum vanishes
        assert zeta_pow(n, n).as_integer() == 1
        total = Cyc(n, 0)
        for k in range(n):
            total = total + zeta_pow(n, k)
        assert total.as_integer() == 0


def test_sector_invariants_match_burnside_oracle():
    for order in (2, 3, 4, 6):
        for sample in samples(order, 40, seed=987654):
            assert_sector_matches_oracle(sample.config)
