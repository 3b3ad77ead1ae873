"""Bell polynomials: recursions, closed forms, scaling, and q-analogs."""

from fractions import Fraction
from math import comb

from ncbell.algebra import NCPoly, QPoly, parse_text, render_text
from ncbell.bell import (
    bell,
    bell_c_explicit,
    bell_explicit,
    bell_partial,
    bell_recursion,
    bell_scaled,
    compositions,
    kappa,
    multinomial,
    qbell,
    qbell_coefficient,
    qbell_grouped,
)
from ncbell.partitions import N_formula, bell_number, stirling2

GOLDEN = {
    0: "1",
    1: "d1",
    2: "d1^2 + d2",
    3: "d1^3 + d2*d1 + 2*d1*d2 + d3",
    4: "d1^4 + d2*d1^2 + 2*d1*d2*d1 + 3*d1^2*d2 + d3*d1 + 3*d1*d3 + 3*d2^2 + d4",
}


def test_golden_tables():
    for n, expected in GOLDEN.items():
        assert bell(n) == parse_text(expected)


def test_partial_golden():
    assert render_text(bell_partial(3, 2)) == "d2*d1 + 2*d1*d2"


def test_term_count_law():
    for n in range(1, 13):
        assert len(bell(n).terms) == 2 ** (n - 1)


def test_recursion_equals_explicit():
    assert bell_recursion(0, "nc") == bell(0)
    for n in range(1, 8):
        assert bell_recursion(n, "nc") == bell(n)
        total = NCPoly.zero()
        for k in range(1, n + 1):
            total = total + bell_explicit(n, k)
        assert total == bell(n)


def test_commutative_is_abelianization():
    for n in range(0, 8):
        assert bell(n, "c") == bell(n, "nc").abelianize()
        for k in range(1, n + 1):
            assert bell_c_explicit(n, k) == bell_partial(n, k, "nc").abelianize()


def test_partial_grades_and_lengths():
    p = bell_partial(6, 3)
    for word in p.terms:
        assert len(word) == 3
        assert sum(word) == 6


def test_compositions():
    for n in range(1, 9):
        for k in range(1, n + 1):
            parts = list(compositions(n, k))
            assert len(parts) == comb(n - 1, k - 1)
            assert all(sum(p) == n and len(p) == k for p in parts)


def test_kappa_and_closed_coefficient():
    assert kappa((1, 2)) == Fraction(2, 3)
    assert kappa((2, 1)) == Fraction(1, 3)
    assert kappa((2, 1, 2)) == Fraction(2, 15)
    for n in range(1, 8):
        p = bell(n)
        for word, c in p.terms.items():
            assert c == multinomial(n, word) * kappa(word)
            assert c == N_formula(word)


def test_multinomial():
    assert multinomial(5, (2, 3)) == 10
    assert multinomial(6, (2, 2, 2)) == 90


def test_stirling_specialization():
    ones = {i: Fraction(1) for i in range(1, 10)}
    for n in range(0, 9):
        for k in range(0, n + 1):
            c = bell_partial(n, k, "c")
            assert c.evaluate(ones) == stirling2(n, k)
        assert bell(n, "c").evaluate(ones) == bell_number(n)


def test_scaled_goldens():
    assert render_text(bell_scaled(2)) == "1/2*d1^2 + d2"
    assert render_text(bell_scaled(3)) == "1/6*d1^3 + 1/3*d2*d1 + 2/3*d1*d2 + d3"


def test_scaled_matches_unscaled():
    from math import factorial

    for n in range(1, 7):
        rescaled = bell(n).substitute(
            {j: NCPoly.letter(j, factorial(j)) for j in range(1, n + 1)}
        )
        assert Fraction(1, factorial(n)) * rescaled == bell_scaled(n)


def test_qbell_table():
    table = qbell(4, 2)
    assert table[(1, 3)] == QPoly({0: 1, 1: 1, 2: 1})
    assert table[(2, 2)] == QPoly({0: 1, 1: 1, 2: 1})
    assert table[(3, 1)] == QPoly.one()


def test_qbell_at_one_degenerates():
    for n in range(1, 7):
        for k in range(1, n + 1):
            p = bell_partial(n, k)
            table = qbell(n, k)
            assert set(table) == set(p.terms)
            for word, qc in table.items():
                assert qc.evaluate(1) == p.terms[word]


def test_qbell_grouped_collects_multisets():
    grouped = qbell_grouped(5, 3)
    flat = qbell(5, 3)
    assert sum(len(v.terms) for v in grouped.values()) > 0
    for key, qc in grouped.items():
        total = QPoly.zero()
        for word, wqc in flat.items():
            if tuple(sorted(word)) == tuple(sorted(key)):
                total = total + wqc
        assert total == qc


def test_qbell_coefficient_per_word():
    assert qbell_coefficient((1, 3)) == QPoly({0: 1, 1: 1, 2: 1})
    assert qbell_coefficient((3, 1)) == QPoly.one()
