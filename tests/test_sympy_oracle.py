"""sympy as an independent oracle for the commutative layer: the partial
Bell polynomials B_{n,k}, series composition and reversion, and the
rational determinant and inverse. sympy is a test dependency only; without it these
tests are skipped."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_series_reversion  # noqa: E402

from ncbell.bell import bell_partial  # noqa: E402
from ncbell.quasidet import det, mat_inverse  # noqa: E402
from ncbell.series import FormalSeries, compose, reversion  # noqa: E402

X = sympy.symbols("x1:12")
R, T, Y = sympy.ring("t,y", sympy.QQ)


def _to_sympy(p):
    """A CPoly in d1, d2, ... as a sympy expression in x1, x2, ..."""
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[X[i - 1] ** e for i, e in m])
        for m, c in p.terms.items()
    ])


def _to_ring(coeffs, var):
    return R.add(*[R(sympy.QQ(c.numerator, c.denominator)) * var**n
                   for n, c in enumerate(coeffs)])


def _from_ring(p, var, order) -> list:
    return [Fraction(str(p.coeff(var**n) if n else p.coeff(1))) for n in range(order)]


def _random_series(rng, order, constant=True, unit=False) -> FormalSeries:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(order)]
    if not constant:
        coeffs[0] = Fraction(0)
    if unit and order > 1:
        coeffs[1] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
    return FormalSeries(coeffs, order)


@pytest.mark.parametrize("n", range(1, 11))
def test_partial_bell_polynomials_match_sympy(n):
    for k in range(1, n + 1):
        want = sympy.bell(n, k, X[: n - k + 1])
        assert sympy.expand(_to_sympy(bell_partial(n, k, "c")) - want) == 0, (n, k)


@pytest.mark.parametrize("seed", range(12))
def test_compose_matches_sympy_polynomial_composition(seed):
    rng = random.Random(seed)
    order = rng.randint(1, 8)
    f = _random_series(rng, order)
    g = _random_series(rng, order, constant=False)
    # f(g(t)) mod t^order, with f and g as polynomials over QQ
    want = _to_ring(f.coeffs, T).compose(T, _to_ring(g.coeffs, T))
    assert compose(f, g).coeffs == _from_ring(want, T, order)


@pytest.mark.parametrize("seed", range(12))
def test_reversion_matches_sympy_series_reversion(seed):
    rng = random.Random(100 + seed)
    order = rng.randint(2, 8)
    g = _random_series(rng, order, constant=False, unit=True)
    want = rs_series_reversion(_to_ring(g.coeffs, T), T, order, Y)
    assert reversion(g).coeffs == _from_ring(want, Y, order)


@pytest.mark.parametrize("seed", range(20))
def test_det_matches_sympy(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 6)
    M = [[rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 50))])
          for _ in range(n)] for _ in range(n)]
    if seed % 4 == 0 and n > 1:
        M[-1] = [2 * e for e in M[0]]  # singular
    want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in M]).det()
    assert det(M) == Fraction(str(want))


@pytest.mark.parametrize("seed", range(20))
def test_mat_inverse_matches_sympy(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(1, 6)
    while True:
        M = [[rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))])
              for _ in range(n)] for _ in range(n)]
        S = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in M])
        if S.det() != 0:
            break
    want = S.inv()
    got = mat_inverse(M)
    assert got == [[Fraction(str(want[i, j])) for j in range(n)] for i in range(n)]
