"""Elements of C_n, linearized local actions and their ages: the engine's test oracle.

The engine never imports it; it stays in ``src/`` while the bench hooks :func:`age`.

Conventions, fixed once for the whole package:

* One generator of C_n is chosen globally; residues, character indices and
  local exponents all refer to it.
* Local actions are recorded on the cotangent space: the exponent tuple
  (e_1, ..., e_k) means eigenvalues exp(2*pi*i*e_j/n), and the product of
  the eigenvalues is the action on the top holomorphic form.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record, setfield


class GroupElement(Record):
    """A residue j mod n, i.e. the j-th power of the fixed generator."""

    __slots__ = ("n", "j")

    def __init__(self, n: int, j: int):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        setfield(self, "n", n)
        setfield(self, "j", j % n)


class LocalAction(Record):
    """Cotangent exponents of a linearized finite-order action at a point."""

    __slots__ = ("n", "exponents")

    def __init__(self, n: int, exponents: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        setfield(self, "n", n)
        setfield(self, "exponents", tuple(int(e) % n for e in exponents))


def age(action: LocalAction) -> Fraction:
    """Sum of the eigenvalue exponents divided by n, as an exact rational.

    Writing the eigenvalues as exp(2*pi*i*a_k) with a_k in [0, 1), the age
    is sum_k a_k.  It is an integer exactly when the determinant is 1.
    """
    return Fraction(sum(action.exponents), action.n)


def power_transport(action: LocalAction, u: int) -> LocalAction:
    """Local action of the u-th power: every exponent is multiplied by u."""
    if u < 1:
        raise ValueError(f"power must be at least 1, got {u}")
    return LocalAction(action.n, tuple((u * e) % action.n for e in action.exponents))
