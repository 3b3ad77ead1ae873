"""Bell polynomials: recursions, closed forms, scaling, and q-analogs."""

from fractions import Fraction
from importlib import import_module
from math import comb

import pytest

import ncbell
from ncbell.algebra import CPoly, NCPoly, QPoly, add_into, mono_length, parse_text, render_text
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


bell_module = import_module("ncbell.bell")  # ncbell.bell is the function


def _partial_reference(n, k, variant):
    """B_{n,k} as the length filter of B_n: the scan bell_partial used to
    make on every call."""
    cls, length = (NCPoly, len) if variant == "nc" else (CPoly, mono_length)
    return cls._new({key: c for key, c in bell(n, variant).terms.items() if length(key) == k})


@pytest.mark.parametrize("variant", ["nc", "c"])
def test_partial_matches_the_length_filter(variant):
    ncbell.clear_caches()
    for n in range(13):
        for k in range(n + 2):
            got, want = bell_partial(n, k, variant), _partial_reference(n, k, variant)
            assert type(got) is type(want)
            # the same terms, coefficient types and term order
            assert [(key, c, type(c)) for key, c in got.terms.items()] == \
                [(key, c, type(c)) for key, c in want.terms.items()], (n, k)


def test_partial_hands_out_fresh_values():
    ncbell.clear_caches()
    whole = dict(bell(6).terms)
    first, second = bell_partial(6, 3), bell_partial(6, 3)
    assert first is not second and first.terms is not second.terms
    first.terms[(9,)] = 1
    del first.terms[(2, 2, 2)]
    again = bell_partial(6, 3)
    assert again == second and (9,) not in again.terms and (2, 2, 2) in again.terms
    assert bell(6).terms == whole


def test_partial_index_is_a_registered_memo():
    ncbell.clear_caches()
    assert ncbell.cache_info()["bell.partial"] == 0
    bell_partial(5, 2)
    bell_partial(5, 3)
    bell_partial(4, 1, "c")
    bell_partial(5, 7)  # k > n needs no index
    assert ncbell.cache_info()["bell.partial"] == 2
    ncbell.clear_caches()
    assert ncbell.cache_info()["bell.partial"] == 0
    assert bell_partial(5, 2) == _partial_reference(5, 2, "nc")


@pytest.mark.parametrize("variant, name", [("nc", "len"), ("c", "mono_length")])
def test_partial_reads_each_key_length_once(variant, name, monkeypatch):
    # the first call for n files B_n by length in one pass; later calls for
    # any k read no length at all
    n = 9
    ncbell.clear_caches()
    bell(n, variant)
    reads = []
    original = len if name == "len" else mono_length

    def counted(key):
        if type(key) is tuple:  # bell() asks the length of its cache list too
            reads.append(key)
        return original(key)

    monkeypatch.setattr(bell_module, name, counted, raising=False)
    bell_partial(n, 4, variant)
    assert sorted(reads) == sorted(bell(n, variant).terms)
    reads.clear()
    for k in range(n + 2):
        bell_partial(n, k, variant)
    assert reads == []


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


def _unshuffle(p) -> dict:
    """The coproduct of an NCPoly when every letter d_j is primitive: each
    word w goes to the sum over position sets S of w|S (x) w|(not S)."""
    out: dict = {}
    for w, c in p.terms.items():
        for mask in range(1 << len(w)):
            key = (tuple(x for i, x in enumerate(w) if mask >> i & 1),
                   tuple(x for i, x in enumerate(w) if not mask >> i & 1))
            out[key] = out.get(key, 0) + c
    return out


@pytest.mark.parametrize("n", range(9))
def test_bell_is_of_binomial_type_under_the_unshuffle(n):
    # Delta B_n = sum_k C(n, k) B_k (x) B_{n-k} with every d_j primitive: a
    # check of bell() that needs no Faa di Bruno table and no partition
    expect: dict = {}
    for k in range(n + 1):
        add_into(expect, {(u, v): comb(n, k) * a * b
                          for u, a in bell(k, "nc").terms.items()
                          for v, b in bell(n - k, "nc").terms.items()})
    assert _unshuffle(bell(n, "nc")) == expect
