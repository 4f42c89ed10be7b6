"""The age of a linearized local action: a test oracle the bench still hooks.

The engine never imports it; :func:`age` stays in ``src/`` only because
``bench/tracer.py`` hooks ``cyclic.age``.  The local actions it reads are
built by the tests, in ``tests/oracles.py``.

Conventions, fixed once for the whole package:

* One generator of C_n is chosen globally; residues, character indices and
  local exponents all refer to it.
* Local actions are recorded on the cotangent space: the exponent tuple
  (e_1, ..., e_k) means eigenvalues exp(2*pi*i*e_j/n), and the product of
  the eigenvalues is the action on the top holomorphic form.
"""

from __future__ import annotations

from fractions import Fraction


def age(action) -> Fraction:
    """Sum of the eigenvalue exponents divided by n, as an exact rational.

    ``action`` is anything with an integer modulus ``n`` and a tuple of
    ``exponents`` reduced mod n.  Writing the eigenvalues as
    exp(2*pi*i*a_k) with a_k in [0, 1), the age is sum_k a_k.  It is an
    integer exactly when the determinant is 1.
    """
    return Fraction(sum(action.exponents), action.n)
