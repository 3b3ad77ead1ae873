"""Graded, non-connected bialgebras on the d-alphabet with d1 inverted.

Both variants carry the same coproduct shape on generators,

    Delta(d_n) = sum_{k=1}^{n} B_{n,k} (x) d_k,

so d1 itself is group-like, and the inverse letter d1^{-1} is declared
group-like as well. "c" works in the commutative polynomial ring, "nc" in
the free algebra on reduced words. The grading is |d_i| = i - 1 with the
inverse letter of degree 0, which makes the bialgebra graded but leaves it
non-connected: the whole degree-0 part is spanned by the powers of d1.

Because degree 0 is bigger than the scalars, the counit cannot vanish on
d1. It is the character epsilon, 1 on d1 and its inverse and 0 on every
higher letter, so it sends every pure (possibly negative) power of d1 to 1
and every word containing a higher letter to 0; under that reading the
antipode recursions close, starting from S(d1) = d1^{-1}:

    right: S(d_n) = d1^{-n} (-d_n d1^{-1} - sum_{k=2}^{n-1} B_{n,k} S(d_k))
    left:  S(d_n) = (-d1^{-n} d_n - sum_{k=2}^{n-1} S(B_{n,k}) d_k) d1^{-1}

with S extended to words as an anti-morphism. The antipode inverts the
Bell system: zeta is the all-ones character, mu = zeta o S is the Mobius
character, and mobius_invert(n) writes d_n as a polynomial in the formal
Bell symbols B_j, which share the letter encoding of the d-alphabet, so
that the substitution B_j -> bell(j) recovers d_n exactly. mu is the
convolution inverse of zeta: on every generator, convolve_m gives
mu * zeta = zeta * mu = epsilon, the defining identity of Mobius
inversion, which the mobius suite of ncbell.verify checks.

The bialgebra itself is the engine's in ncbell.hopf: the variant names
"c" and "nc" pick the Bell shape with table P = B (bell_partial) and
lowest generator d1, its inverse letter INV group-like with
S(d1^{-1}) = d1, and coproduct_m, antipode_m and antipode_poly are its
guarded entry points. What lives here is the characters zeta, epsilon
and mu with their convolution convolve_m, and the inversion
mobius_invert / invert_round_trip. Tensors, Character and the
convolution pairing come from the engine; keys may contain the inverse
letter, which the key codec handles. algebra.ring looks the variant
names up.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import INV, ring
from .bell import bell, bell_partial
from .hopf import Character, antipode_extend, bell_antipode, bell_coproduct, pair


def coproduct_m(n: int, variant: str = "nc") -> dict:
    """Coproduct of the generator d_n: sum over k of B_{n,k} (x) d_k."""
    if n < 1:
        raise ValueError(f"generator index must be positive, got {n}")
    ring(variant)
    return bell_coproduct(n, variant)


def antipode_m(n: int, variant: str = "nc", side: str = "right"):
    """Antipode on the generator d_n.

    The right form solves sum_k B_{n,k} S(d_k) = 0 for S(d_n); the left
    form solves sum_k S(B_{n,k}) d_k = 0 with S taken anti-multiplicative.
    Both start from S(d1) = d1^{-1}. Results are cached in the engine's
    memo, hopf._ANTIPODE. The engine refuses a side other than "left" or
    "right".
    """
    if n < 1:
        raise ValueError(f"generator index must be positive, got {n}")
    ring(variant)
    return bell_antipode(n, variant, side)


def antipode_poly(p, variant: str, side: str = "right"):
    """Antipode of an arbitrary element, extended as an anti-morphism. The
    engine refuses a side other than "left" or "right"."""
    ring(variant)
    return antipode_extend(p, variant, side)


def zeta(max_n: int) -> Character:
    """The all-ones character on d1..d_max_n and the inverse letter."""
    values = {i: 1 for i in range(1, max_n + 1)}
    values[INV] = 1
    return Character(values)


def epsilon_char(max_n: int) -> Character:
    """The counit as a character: 1 on d1 and its inverse, 0 above."""
    values = {i: 0 for i in range(2, max_n + 1)}
    values[1] = 1
    values[INV] = 1
    return Character(values)


_MU: dict = {}  # (k, variant) -> zeta(S(d_k)), the right antipode


def mobius_char(max_n: int, variant: str = "nc") -> Character:
    """The Mobius character mu = zeta o S, tabulated on d1..d_max_n.

    Each value zeta(S(d_k)) is computed once per variant and kept in the
    module memo _MU ("mobius.mu" in ncbell.cache_info); every call returns
    a new Character built from it.
    """
    z = zeta(max_n)
    values = {}
    for k in range(1, max_n + 1):
        if (k, variant) not in _MU:
            _MU[k, variant] = z(antipode_m(k, variant))
        values[k] = _MU[k, variant]
    values[INV] = 1
    return Character(values)


def convolve_m(phi: Character, psi: Character, n: int, variant: str = "nc") -> int | Fraction:
    """Convolution (phi * psi)(d_n) through the generator coproduct."""
    return pair(phi, psi, coproduct_m(n, variant), variant)


def mobius_invert(n: int, variant: str = "nc"):
    """d_n written in the Bell symbols: sum_k mu(d_k) B_{n,k}, with each
    letter d_j of B_{n,k} read as the symbol B_j. Render with symbol "B"
    and serialize with the "b-symbols" algebra tag.

    Substituting B_j -> bell(j, variant) recovers the generator d_n.
    """
    if n < 1:
        raise ValueError(f"generator index must be positive, got {n}")
    cls = ring(variant)
    mu = mobius_char(n, variant)
    total = cls.zero()
    for k in range(1, n + 1):
        coeff = mu.on_letter(k)
        if coeff:
            total = total + bell_partial(n, k, variant) * coeff
    return total


def invert_round_trip(n: int, variant: str = "nc") -> bool:
    """Check that substituting the Bell polynomials into mobius_invert(n)
    returns exactly d_n."""
    expr = mobius_invert(n, variant)
    table = {j: bell(j, variant) for j in range(1, n + 1)}
    return expr.substitute(table) == ring(variant).letter(n)
