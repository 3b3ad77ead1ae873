"""Quasideterminants: Hessenberg expansions, Bell matrices, numeric ratios."""

import random
from fractions import Fraction

import pytest

from ncbell.algebra import CPoly, NCPoly, parse_text, render_text
from ncbell.bell import bell
from ncbell.quasidet import (
    bell_matrix,
    bell_via_quasidet,
    det,
    hessenberg,
    hessenberg_quasidet,
    hessenberg_quasidet_sum,
    mat_inverse,
    numeric_quasidet,
)

P3 = "a13 + a11*a23 + a12*a33 + a11*a22*a33"
P4 = (
    "a14 + a11*a24 + a12*a34 + a13*a44 + a11*a22*a34"
    " + a11*a23*a44 + a12*a33*a44 + a11*a22*a33*a44"
)


def _symbol_matrix(n: int):
    matrix = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j + 1:
                row.append(-NCPoly.one())
            elif i > j + 1:
                row.append(NCPoly.zero())
            else:
                row.append(NCPoly.letter(10 * i + j))
        matrix.append(row)
    return matrix


@pytest.mark.parametrize("cls", [NCPoly, CPoly])
def test_hessenberg_layout(cls):
    seen = []

    def entry(i, j):
        seen.append((i, j))
        return cls.letter(10 * i + j)

    m = hessenberg(4, cls, entry)
    assert seen == [(i, j) for i in range(1, 5) for j in range(i, 5)]
    for i in range(4):
        for j in range(4):
            e = m[i][j]
            assert type(e) is cls
            if i <= j:
                assert e == cls.letter(10 * (i + 1) + j + 1)
            elif i == j + 1:
                assert e.terms == {(): -1}
            else:
                assert e.terms == {}
    if cls is NCPoly:
        assert m == _symbol_matrix(4)


def test_hessenberg_symbolic_goldens():
    assert hessenberg_quasidet(_symbol_matrix(3)) == parse_text(P3, symbol="a")
    assert hessenberg_quasidet(_symbol_matrix(4)) == parse_text(P4, symbol="a")


def test_recursion_equals_chain_sum():
    for n in range(1, 6):
        m = _symbol_matrix(n)
        assert hessenberg_quasidet(m) == hessenberg_quasidet_sum(m)


def test_bell_matrix_shape():
    m = bell_matrix(4, "nc")
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    assert m[1][0] == -NCPoly.one()
    assert m[2][0] == NCPoly.zero()


def test_bell_via_quasidet():
    for n in range(1, 7):
        assert bell_via_quasidet(n, "nc") == bell(n, "nc")
        assert bell_via_quasidet(n, "c") == bell(n, "c")


@pytest.mark.parametrize("variant", ["fdb", "dfdb", "xyz"])
def test_unknown_variant_is_refused(variant):
    for build in (bell_matrix, bell_via_quasidet, bell):
        with pytest.raises(ValueError, match="unknown variant"):
            build(3, variant)


def test_det_known_values():
    assert det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    m = [
        [Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(3), Fraction(1)],
    ]
    assert det(m) == 5


def test_det_polynomial_entries():
    d1 = parse_text("d1", commutative=True)
    d2 = parse_text("d2", commutative=True)
    m = [[d1, d2], [d2, d1]]
    assert det(m) == d1 * d1 - d2 * d2


def test_mat_inverse():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randrange(2, 5)
        while True:
            m = [
                [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            if det([row[:] for row in m]) != 0:
                break
        inv = mat_inverse(m)
        for i in range(n):
            for j in range(n):
                entry = sum(m[i][k] * inv[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)


def test_numeric_quasidet_ratio():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randrange(2, 6)
        a = [
            [Fraction(rng.randrange(-9, 10)) for _ in range(n)]
            for _ in range(n)
        ]
        p, q = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        minor = [
            [a[i][j] for j in range(n) if j != q - 1]
            for i in range(n) if i != p - 1
        ]
        if det([row[:] for row in minor]) == 0 or det([row[:] for row in a]) == 0:
            continue
        ratio = Fraction((-1) ** (p + q)) * det(a) / det(minor)
        assert numeric_quasidet(a, p, q) == ratio
        done += 1


def test_numeric_quasidet_rejects_singular_minor():
    a = [
        [Fraction(1), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(2)],
    ]
    with pytest.raises(ValueError):
        numeric_quasidet(a, 1, 1)
