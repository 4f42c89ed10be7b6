"""Elements of C_n, linearized local actions and their ages.

Conventions, fixed once for the whole package:

* One generator of C_n is chosen globally; residues, character indices and
  local exponents all refer to it.
* Local actions are recorded on the cotangent space: the exponent tuple
  (e_1, ..., e_k) means eigenvalues exp(2*pi*i*e_j/n), and the product of
  the eigenvalues is the action on the top holomorphic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GroupElement:
    """A residue j mod n, i.e. the j-th power of the fixed generator."""

    n: int
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be at least 1, got {self.n}")
        object.__setattr__(self, "j", self.j % self.n)


@dataclass(frozen=True)
class LocalAction:
    """Cotangent exponents of a linearized finite-order action at a point."""

    n: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be at least 1, got {self.n}")
        object.__setattr__(
            self, "exponents", tuple(int(e) % self.n for e in self.exponents)
        )


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
