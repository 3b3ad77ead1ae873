"""Kernel arithmetic: words, monomials, polynomials, parsing, rendering."""

from fractions import Fraction

import pytest

import ncbell
from ncbell.algebra import (
    INV,
    CPoly,
    NCPoly,
    QPoly,
    check_mono,
    from_json_dict,
    mono_mul,
    parse_text,
    qbinomial,
    qfactorial,
    qint,
    render_latex,
    render_qpoly,
    render_text,
    to_json_dict,
    word_mul,
)

D1 = NCPoly.letter(1)
D2 = NCPoly.letter(2)
D3 = NCPoly.letter(3)


def test_word_mul_concatenates():
    assert word_mul((1, 2), (3,)) == (1, 2, 3)
    assert word_mul((), (2,)) == (2,)


def test_word_mul_cancels_seams():
    assert word_mul((1,), (INV,)) == ()
    assert word_mul((INV,), (1,)) == ()
    assert word_mul((2, 1, 1), (INV, INV, 3)) == (2, 3)
    assert word_mul((2, 1), (INV, INV)) == (2, INV)


def test_mono_mul_merges_exponents():
    assert mono_mul(((1, 2), (2, 1)), ((1, 3),)) == ((1, 5), (2, 1))
    assert mono_mul(((1, 2),), ((1, -2),)) == ()


def test_check_mono_rejects_negative_higher_letters():
    check_mono(((1, -3), (2, 1)))
    with pytest.raises(ValueError):
        check_mono(((2, -1),))


def test_ncpoly_ring_ops():
    p = D1 * D2 - 2 * D2 * D1
    q = D1 + 3
    assert (p + q) - q == p
    assert p * NCPoly.one() == p
    assert NCPoly.zero() * p == NCPoly.zero()
    assert (D1 * (D2 + D3)) == D1 * D2 + D1 * D3
    assert (-p) + p == NCPoly.zero()


def test_ncpoly_noncommutative():
    assert D1 * D2 != D2 * D1


def test_ncpoly_inverse_letter_cancels():
    inv = NCPoly.from_word((INV,))
    assert D1 * inv == NCPoly.one()
    assert inv * D1 == NCPoly.one()
    assert (D2 * D1) * (inv * inv) == D2 * NCPoly.from_word((INV,))


def test_abelianize():
    p = D1 * D2 + 2 * D2 * D1
    c = p.abelianize()
    assert c == CPoly.from_mono(((1, 1), (2, 1)), 3)


def test_substitute():
    p = D2 * D1 + 2 * D1 * D2
    image = p.substitute({1: D1, 2: D1 * D1})
    assert image == 3 * D1 * D1 * D1


def test_derive_shifts_letters_by_leibniz():
    assert D2.derive() == D3
    assert (D1 * D1).derive() == D2 * D1 + D1 * D2


def test_cpoly_evaluate():
    p = CPoly.from_mono(((1, 2),), 3) + CPoly.letter(2, -1)
    assert p.evaluate({1: Fraction(1, 2), 2: Fraction(5)}) == Fraction(3, 4) - 5


def test_cpoly_inverse_power_evaluates():
    p = CPoly.from_mono(((1, -2), (2, 1)))
    assert p.evaluate({1: Fraction(2), 2: Fraction(8)}) == Fraction(2)
    # int values: dividing by d1 gives a Fraction (an int when exact), never a float
    q = CPoly({((1, -1), (2, 1)): 3})
    got = q.evaluate({1: 2, 2: 5})
    assert got == Fraction(15, 2) and type(got) is Fraction
    exact = q.evaluate({1: 3, 2: 5})
    assert exact == 5 and type(exact) is int
    with pytest.raises(ZeroDivisionError):
        q.evaluate({1: 0, 2: 5})


def test_parse_render_round_trip():
    s = "d1^3 + d2*d1 + 2*d1*d2 + d3"
    assert render_text(parse_text(s)) == s
    assert render_text(parse_text("1")) == "1"
    assert render_text(parse_text("1/2*d1 - d2")) == "-d2 + 1/2*d1"


def test_parse_negative_powers():
    p = parse_text("3*d1^-2*d2 - d3")
    assert p.coefficient((INV, INV, 2)) == 3
    assert render_text(p) == "3*d1^-2*d2 - d3"


def test_parse_commutative():
    p = parse_text("2*d1^2*d2 - d3", commutative=True)
    assert isinstance(p, CPoly)
    assert p.coefficient(((1, 2), (2, 1))) == 2
    assert p.coefficient(((3, 1),)) == -1


def test_render_latex():
    p = parse_text("d1^3 + d2*d1 + 2*d1*d2 + d3")
    assert render_latex(p) == "d_1^3 + d_2 d_1 + 2 d_1 d_2 + d_3"
    assert render_latex(parse_text("3*d1^-2*d2 - d3")) == "3 d_1^{-2} d_2 - d_3"


def test_render_alternate_symbol():
    p = NCPoly.from_word((2, 1), 5)
    assert render_text(p, "X") == "5*X2*X1"


def test_json_round_trip_nc():
    p = parse_text("d1^3 - 2*d1^-1*d2 + d3")
    d = to_json_dict(p, "nc")
    assert d["algebra"] == "nc"
    assert from_json_dict(d) == p


def test_json_round_trip_c():
    p = parse_text("1/2*d1^2 + d2", commutative=True)
    d = to_json_dict(p, "c")
    q = from_json_dict(d)
    assert isinstance(q, CPoly)
    assert q == p


def test_qpoly_arithmetic():
    q = QPoly.q()
    p = (1 + q) * (1 + q)
    assert p == QPoly({0: 1, 1: 2, 2: 1})
    assert p.evaluate(1) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)
    assert render_qpoly(1 + q + q * q) == "1 + q + q^2"


def test_qint_qfactorial_qbinomial():
    assert qint(3) == QPoly({0: 1, 1: 1, 2: 1})
    assert qfactorial(3).evaluate(1) == 6
    assert qbinomial(4, 2).evaluate(1) == 6
    assert qbinomial(4, 2) == QPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_qfactorial_is_a_fresh_product():
    ncbell.clear_caches()
    expect = QPoly.one()
    for n in range(9):
        if n:
            expect = expect * qint(n)
        assert qfactorial(n) == expect
    assert qfactorial(0) == qfactorial(-1) == QPoly.one()
    first = qfactorial(5)
    first.terms.clear()
    first.terms[0] = 99
    second = qfactorial(5)
    assert second.evaluate(1) == 120
    assert second.terms is not qfactorial(5).terms
    assert qbinomial(6, 3).evaluate(1) == 20


def test_qpoly_divexact():
    num = qfactorial(4)
    den = qfactorial(2)
    assert num.divexact(den) * den == num
    # a leading coefficient other than 1: exact quotients stay int, others Fraction
    quot = (QPoly({0: 1, 1: 2}) * QPoly({0: -1, 1: 3})).divexact(QPoly({0: 1, 1: 2}))
    assert quot.terms == {0: -1, 1: 3}
    assert all(type(c) is int for c in quot.terms.values())
    assert all(type(c) is int for c in qbinomial(7, 3).terms.values())
    half = QPoly({0: 3}).divexact(QPoly({0: 2}))
    assert half.terms == {0: Fraction(3, 2)} and type(half.terms[0]) is Fraction
