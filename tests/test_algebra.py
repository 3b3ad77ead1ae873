"""Kernel arithmetic: words, monomials, polynomials, parsing, rendering."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncbell
from ncbell.algebra import (
    INV,
    CPoly,
    NCPoly,
    QPoly,
    _sorted_terms,
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
    assert word_mul((INV,), ()) == (INV,)
    assert word_mul((1,), (1, INV)) == (1, 1, INV)  # only a pair at the seam cancels


def test_word_mul_cancels_seams():
    assert word_mul((1,), (INV,)) == ()
    assert word_mul((INV,), (1,)) == ()
    assert word_mul((2, 1, 1), (INV, INV, 3)) == (2, 3)
    assert word_mul((2, 1), (INV, INV)) == (2, INV)
    assert word_mul((1, 1, 1), (INV, INV, INV)) == ()


def test_mono_mul_merges_exponents():
    assert mono_mul(((1, 2), (2, 1)), ((1, 3),)) == ((1, 5), (2, 1))
    assert mono_mul(((1, 2),), ((1, -2),)) == ()
    assert mono_mul(((1, -2), (3, 1)), ((1, 2),)) == ((3, 1),)
    assert mono_mul((), ((2, 1),)) == ((2, 1),)


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
    # scalar, zero and multi-term images; d1^-1 meets d1 inside one term
    assert p.substitute({1: 2, 2: Fraction(1, 2)}) == 3
    assert p.substitute({1: 0, 2: D1}) == 0
    inv = NCPoly.from_word((INV,))
    assert p.substitute({1: D1, 2: D1 + inv}) == 3 * D1 * D1 + 3
    assert (D1 * D2).substitute({1: D1 - D2, 2: D1 + D2}) == D1 * D1 - D2 * D2 + D1 * D2 - D2 * D1


def test_derive_shifts_letters_by_leibniz():
    assert D2.derive() == D3
    assert (D1 * D1).derive() == D2 * D1 + D1 * D2


# The derive loops as they were written before the splicing kernels: the
# differential tests below require the same terms in the same order.


def _derive_nc_reference(p: NCPoly) -> dict:
    acc: dict = {}
    for w, c in p.terms.items():
        for pos, letter in enumerate(w):
            if letter == INV:
                raise ValueError("derive does not accept inverted letters")
            nw = w[:pos] + (letter + 1,) + w[pos + 1 :]
            s = acc.get(nw, 0) + c
            if s:
                acc[nw] = s
            elif nw in acc:
                del acc[nw]
    return acc


def _derive_c_reference(p: CPoly) -> dict:
    acc: dict = {}
    for m, c in p.terms.items():
        for i, e in m:
            if e < 0:
                raise ValueError("derive does not accept inverted letters")
            lowered = mono_mul(m, ((i, -1),))
            nm = mono_mul(lowered, ((i + 1, 1),))
            s = acc.get(nm, 0) + c * e
            if s:
                acc[nm] = s
            elif nm in acc:
                del acc[nm]
    return acc


def _reduced(letters) -> tuple:
    word: tuple = ()
    for letter in letters:
        word = word_mul(word, (letter,))
    return word


# small alphabets and coefficients, so that derived terms often cancel
_DERIVE_TERMS = st.lists(
    st.tuples(st.lists(st.sampled_from((1, 1, 2, 2, 3, 4)), max_size=5),
              st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))),
    max_size=8)


def _same_derive(p, reference) -> None:
    try:
        want = reference(p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            p.derive()
        return
    got = p.derive().terms
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=150, deadline=None)
@given(_DERIVE_TERMS, st.booleans())
def test_derive_matches_the_reference_loops(terms, inverted):
    words = {}
    for letters, c in terms:
        if inverted and letters:
            letters = [INV if x == 1 else x for x in letters[:1]] + letters[1:]
        words[_reduced(letters)] = c
    p = NCPoly(words)
    _same_derive(p, _derive_nc_reference)
    _same_derive(p.abelianize(), _derive_c_reference)


def test_derive_cancellations():
    # D(d2 d1 - d1 d2) = d3 d1 + d2 d2 - d2 d2 - d1 d3
    p = D2 * D1 - D1 * D2
    assert p.derive() == D3 * D1 - D1 * D3
    assert list(p.derive().terms) == list(_derive_nc_reference(p))
    # d2 d2 d2 cancels after two terms and comes back with the third, so it
    # moves to the end, as the reference loops have it
    p = NCPoly({(1, 2, 2): 1, (2, 1, 2): -1, (2, 2, 1): 1})
    assert p.derive().coefficient((2, 2, 2)) == 1
    assert list(p.derive().terms) == list(_derive_nc_reference(p))
    # commutative: D(d1 d3 - d2^2) = d2 d3 + d1 d4 - 2 d2 d3 = d1 d4 - d2 d3
    c = CPoly.from_mono(((1, 1), (3, 1))) - CPoly.from_mono(((2, 2),))
    assert c.derive().terms == {((1, 1), (4, 1)): 1, ((2, 1), (3, 1)): -1}
    assert list(c.derive().terms) == list(_derive_c_reference(c))
    with pytest.raises(ValueError, match="inverted"):
        NCPoly.from_word((2, INV)).derive()
    with pytest.raises(ValueError, match="inverted"):
        CPoly.from_mono(((1, -1), (2, 1))).derive()


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
    assert p.terms == {((1, 2), (2, 1)): 2, ((3, 1),): -1}


def test_render_latex():
    p = parse_text("d1^3 + d2*d1 + 2*d1*d2 + d3")
    assert render_latex(p) == "d_1^3 + d_2 d_1 + 2 d_1 d_2 + d_3"
    assert render_latex(parse_text("3*d1^-2*d2 - d3")) == "3 d_1^{-2} d_2 - d_3"
    p = parse_text("d12*d1^10 - 1/2*d1^-1 + d3^2*d11^12 - 5/3")
    assert render_latex(p) == (
        "d_3^2 d_{11}^{12} + d_{12} d_1^{10} - \\frac{1}{2} d_1^{-1} - \\frac{5}{3}"
    )
    assert render_latex(p, "X") == (
        "X_3^2 X_{11}^{12} + X_{12} X_1^{10} - \\frac{1}{2} X_1^{-1} - \\frac{5}{3}"
    )
    assert render_text(p) == "d3^2*d11^12 + d12*d1^10 - 1/2*d1^-1 - 5/3"
    c = parse_text("-d1^-3*d10 + d1^10*d12", commutative=True)
    assert render_latex(c) == "d_1^{10} d_{12} - d_1^{-3} d_{10}"


def _old_render_key(word_coeff):
    """The canonical-order key as it was: d1^{-1} counted as letter 0."""
    return (len(word_coeff[0]), tuple(0 if x == INV else x for x in word_coeff[0]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from((INV, INV, 1, 1, 2, 3, 10, 12)), max_size=6),
                          st.integers(-3, 3)), max_size=10))
def test_sorted_terms_keeps_the_old_order(terms):
    p = NCPoly.zero()
    for letters, c in terms:
        p = p + NCPoly.from_word(_reduced(letters), c)
    for q in (p, p.abelianize()):
        letters = q.key_letters
        items = [(letters(k), c) for k, c in q.terms.items()]
        assert _sorted_terms(q) == sorted(items, key=_old_render_key)


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
    assert render_qpoly(Fraction(1, 2) - 3 * q + Fraction(-2, 7) * q * q + QPoly.q(11)) == (
        "1/2 - 3*q - 2/7*q^2 + q^11"
    )
    assert render_qpoly(-1 - q) == "-1 - q"
    assert render_qpoly(QPoly()) == "0"


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


def test_qbinomial_is_a_fresh_copy_of_its_memo():
    ncbell.clear_caches()
    first = qbinomial(6, 3)
    assert ncbell.cache_info()["algebra.qbinomial"] == 1
    first.terms.clear()
    first.terms[0] = 99
    second = qbinomial(6, 3)
    assert second == QPoly({0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 3, 6: 3, 7: 2, 8: 1, 9: 1})
    assert second.terms is not qbinomial(6, 3).terms
    assert qbinomial(6, 7) == qbinomial(6, -1) == QPoly.zero()
    ncbell.clear_caches()
    assert ncbell.cache_info()["algebra.qbinomial"] == 0


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


def _shape(p) -> list:
    """A polynomial's terms in order, each with its coefficient's type."""
    return [(k, c, type(c)) for k, c in p.terms.items()]


@pytest.mark.parametrize("coeff", [1, -3, 0, Fraction(1, 2), Fraction(4, 2), Fraction(0), True, False])
@pytest.mark.parametrize("i", [1, 2, 7])
def test_letters_match_the_checking_constructor(i, coeff):
    # letter() checks its own input and skips the constructor's second
    # pass; the terms, their order and the coefficient types are its own
    assert _shape(NCPoly.letter(i, coeff)) == _shape(NCPoly({(i,): coeff}))
    assert _shape(CPoly.letter(i, coeff)) == _shape(CPoly({((i, 1),): coeff}))
    assert type(NCPoly.letter(i, coeff)) is NCPoly and type(CPoly.letter(i, coeff)) is CPoly
    assert _shape(NCPoly.letter(INV, coeff)) == _shape(NCPoly({(INV,): coeff}))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, True, False])
def test_qint_matches_the_checking_constructor(n):
    assert _shape(qint(n)) == _shape(QPoly({i: 1 for i in range(n)}))


@pytest.mark.parametrize("bad", [0, -2, 2.0, "3", None, True, False])
def test_letters_refuse_a_bad_index(bad):
    with pytest.raises(ValueError, match=f"bad letter {bad!r}: need index >= 1"):
        NCPoly.letter(bad)
    with pytest.raises(ValueError, match=f"bad letter index {bad!r}"):
        CPoly.letter(bad)
    # the index is checked before the coefficient
    with pytest.raises(ValueError, match="bad letter"):
        NCPoly.letter(bad, 0.5)
    with pytest.raises(ValueError, match="bad letter"):
        CPoly.letter(bad, 0.5)


@pytest.mark.parametrize("coeff", [0.5, 1.0, "1", None])
def test_letters_refuse_an_inexact_coefficient(coeff):
    for build in (NCPoly.letter, CPoly.letter):
        with pytest.raises(TypeError, match="coefficient must be Fraction or int"):
            build(2, coeff)
    with pytest.raises(ValueError, match="qint needs n >= 0"):
        qint(-1)
    with pytest.raises(TypeError):
        qint(2.0)


def test_bool_letters_are_refused():
    with pytest.raises(ValueError, match="bad index True in monomial"):
        check_mono(((True, 1),))
    with pytest.raises(ValueError, match="bad index False in monomial"):
        check_mono(((False, 1),))
    with pytest.raises(ValueError, match="bad letter True"):
        NCPoly.from_word((True, 2))
    with pytest.raises(ValueError, match="bad index True in monomial"):
        CPoly.from_mono(((True, 1), (2, 1)))
    # a JSON word with a true in it, in either algebra; a commutative 1 next
    # to it would otherwise absorb it into d1^2
    for algebra in ("nc", "b-symbols", "c"):
        for word, bad in (([True, 2], "True"), ([1, True], "True"), ([2, False], "False"),
                          ([1, 1.0], "1.0")):
            d = {"algebra": algebra, "terms": [{"coeff": "1", "word": word}]}
            with pytest.raises(ValueError, match=f"bad letter {bad}:"):
                from_json_dict(d)
    # ints still read as before
    assert from_json_dict({"algebra": "c", "terms": [{"coeff": "1", "word": [1, 1]}]}) \
        == CPoly.from_mono(((1, 2),))


def test_letters_and_qint_skip_the_checking_constructor(monkeypatch):
    calls = []
    original = ncbell.algebra.TermRing.__init__

    def counted(self, terms=None):
        calls.append(type(self).__name__)
        original(self, terms)

    monkeypatch.setattr(ncbell.algebra.TermRing, "__init__", counted)
    for i in (1, 2, 9):
        NCPoly.letter(i, 3)
        CPoly.letter(i, Fraction(1, 3))
        qint(i)
    NCPoly.letter(INV)
    assert calls == []
    NCPoly({(1,): 1})  # the constructor itself is still the counted one
    assert calls == ["NCPoly"]


def test_cpoly_evaluate_checks_each_value_once(monkeypatch):
    p = CPoly.from_mono(((1, 2), (2, 1))) + CPoly.from_mono(((1, 1), (3, 2))) + CPoly.letter(2)
    checked = []
    original = ncbell.algebra._coeff

    def counted(x):
        checked.append(x)
        return original(x)

    monkeypatch.setattr(ncbell.algebra, "_coeff", counted)
    values = {1: Fraction(1, 2), 2: 3, 3: -1, 4: 0.5}  # 4 is not a letter of p
    assert p.evaluate(values) == Fraction(3, 4) + Fraction(1, 2) + 3
    assert sorted(checked, key=str) == sorted([Fraction(1, 2), 3, -1], key=str)
    monkeypatch.undo()
    # the missing-letter and float-value errors are as before
    with pytest.raises(ValueError, match="no value for letter 3"):
        p.evaluate({1: 1, 2: 1})
    with pytest.raises(TypeError, match="coefficient must be Fraction or int, got float"):
        p.evaluate({1: 1, 2: 1, 3: 1.5})
    with pytest.raises(TypeError, match="got float"):
        p.evaluate({1: 0.5, 2: 1})
