"""Moebius inversion on the d-alphabet bialgebra, both variants.

The commutative variant is a genuine Hopf algebra on the tested range and
every identity below holds there. The noncommutative variant reproduces
all the low-degree golden values, and each one-sided antipode recursion
satisfies its own defining convolution identity at every degree; but the
multiplicatively extended coproduct stops being coassociative at d_4, so
the two recursions diverge from there and the inversion round trip only
holds through degree 3. The tests pin those boundaries.
"""

from fractions import Fraction
from math import factorial

import pytest

import ncbell
from ncbell import hopf, mobius, verify
from ncbell.algebra import INV, CPoly, NCPoly, parse_text, render_text
from ncbell.bell import bell, bell_partial
from ncbell.hopf import LegTable, coproduct_extend, tensor_mul
from ncbell.mobius import (
    antipode_m,
    antipode_poly,
    convolve_m,
    coproduct_m,
    epsilon_char,
    invert_round_trip,
    mobius_char,
    mobius_invert,
    zeta,
)


def _nc(s: str) -> NCPoly:
    return parse_text(s)


def _c(s: str) -> CPoly:
    return parse_text(s, commutative=True)


def test_coproduct_letter_three():
    got = coproduct_m(3, "nc")
    expected = {}
    for k in (1, 2, 3):
        for word, c in bell_partial(3, k, "nc").terms.items():
            expected[(word, (k,))] = Fraction(c)
    assert got == expected


def test_coproduct_multiplicative():
    u = _nc("d2*d1")
    v = _nc("d3 - d1")
    table = LegTable("nc")
    assert coproduct_extend((u * v).terms, table) == tensor_mul(
        coproduct_extend(u.terms, table), coproduct_extend(v.terms, table), table)


def test_inverse_letter_is_group_like():
    # Delta(d1^-1 d2) = (d1^-1 (x) d1^-1) Delta(d2)
    inv = NCPoly.letter_key(INV)
    table = LegTable("nc")
    assert coproduct_extend(_nc("d1^-1*d2").terms, table) == tensor_mul(
        table.intern({(inv, inv): 1}), table.intern(coproduct_m(2, "nc")), table)


def test_counit():
    # the counit is the character epsilon: 1 on every pure power of d1,
    # the inverse included, 0 on every word with a higher letter
    counit = epsilon_char(3)
    for p in (_nc("d1^3"), _nc("d1^-2"), _c("d1^3*d1^-1")):
        assert counit(p) == 1
    assert counit(_nc("d2")) == counit(_c("d3*d1")) == 0
    assert counit(_nc("2*d1 + d2*d1")) == counit(_c("2*d1 + d2*d1")) == 2


def test_antipode_goldens_commutative():
    assert antipode_m(2, "c") == _c("-d1^-3*d2")
    assert antipode_m(3, "c") == _c("-d1^-4*d3 + 3*d1^-5*d2^2")
    assert antipode_m(4, "c") == _c("-d1^-5*d4 + 10*d1^-6*d2*d3 - 15*d1^-7*d2^3")


def test_antipode_goldens_free():
    assert antipode_m(2, "nc") == _nc("-d1^-2*d2*d1^-1")
    assert antipode_m(3, "nc") == _nc(
        "-d1^-3*d3*d1^-1 + 2*d1^-2*d2*d1^-2*d2*d1^-1 + d1^-3*d2*d1^-1*d2*d1^-1"
    )


def test_antipode_inverts_d1():
    assert antipode_m(1, "nc") == NCPoly.from_word((-1,))
    assert antipode_m(1, "c") == CPoly.from_mono(((1, -1),))


# per variant: the generator coproduct, the antipode of an element, the
# counit and the lowest generator index of the Bell-shape bialgebra
BIALGEBRAS = {
    "fdb": (hopf.coproduct_gen, hopf.antipode_poly, hopf.counit, 0),
    "dfdb": (hopf.coproduct_gen, hopf.antipode_poly, hopf.counit, 0),
    "c": (coproduct_m, antipode_poly, epsilon_char(6), 1),
    "nc": (coproduct_m, antipode_poly, epsilon_char(6), 1),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("variant", list(BIALGEBRAS))
def test_one_sided_convolution_identities(variant, side):
    # each recursion solves its own one-sided equation at every degree,
    # independently of coassociativity: sum l S(r) = eps(x_n) 1 on the
    # right, sum S(l) r = eps(x_n) 1 on the left
    coproduct, antipode, counit, low = BIALGEBRAS[variant]
    cls = hopf.ring(variant)
    for n in range(low, 7):
        total = cls.zero()
        for (lk, rk), c in coproduct(n, variant).items():
            left, right = cls.from_key(lk), cls.from_key(rk)
            if side == "right":
                total = total + c * (left * antipode(right, variant, side))
            else:
                total = total + c * (antipode(left, variant, side) * right)
        assert total == counit(cls.from_key(cls.letter_key(n))), n


def test_sides_agree_commutative():
    for n in range(1, 7):
        assert antipode_m(n, "c", "left") == antipode_m(n, "c", "right")


def test_sides_diverge_free_at_four():
    for n in range(1, 4):
        assert antipode_m(n, "nc", "left") == antipode_m(n, "nc", "right")
    assert antipode_m(4, "nc", "left") != antipode_m(4, "nc", "right")


def test_coassociativity_boundary():
    table = LegTable("nc")
    keys = table.keys

    def expand(t, leg):
        out = {}
        for (lk, rk), c in t.items():
            inner = coproduct_extend({lk if leg == 0 else rk: 1}, table)
            for (a, b), c2 in inner.items():
                key = (keys[a], keys[b], rk) if leg == 0 else (lk, keys[a], keys[b])
                s = out.get(key, Fraction(0)) + c * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return out

    for n in (2, 3):
        t = coproduct_m(n, "nc")
        assert expand(t, 0) == expand(t, 1)
    t = coproduct_m(4, "nc")
    assert expand(t, 0) != expand(t, 1)


@pytest.mark.parametrize("make", [zeta, epsilon_char, lambda n: mobius_char(n, "nc"),
                                  lambda n: mobius_char(n, "c")])
def test_characters_refuse_a_negative_range(make):
    for max_n in (-1, -3):
        with pytest.raises(ValueError, match=f"^max_n must be at least 0, got {max_n}$"):
            make(max_n)
    # an empty range is valid: only the inverse letter (and d1 for epsilon)
    assert set(make(0).values) <= {1, INV}


def test_mobius_character_values():
    mu_nc = mobius_char(6, "nc")
    mu_c = mobius_char(6, "c")
    expected = {1: 1, 2: -1, 3: 2, 4: -6, 5: 24, 6: -120}
    for i, v in expected.items():
        assert mu_nc.on_letter(i) == v
        assert mu_c.on_letter(i) == v


@pytest.mark.parametrize("variant", ["nc", "c"])
def test_mobius_character_memo(variant):
    ncbell.clear_caches()
    mu = mobius_char(7, variant)
    for k in range(1, 8):
        assert mu.on_letter(k) == zeta(7)(antipode_m(k, variant))
    assert ncbell.cache_info()["mobius.mu"] == 7
    # each call hands out its own Character, so writing into one leaves the
    # memo and the next call alone
    mu.values[3] = 99
    again = mobius_char(7, variant)
    assert again is not mu and again.on_letter(3) == 2
    assert again.values == {**{k: (-1) ** (k - 1) * factorial(k - 1) for k in range(1, 8)},
                            INV: 1}
    ncbell.clear_caches()
    assert ncbell.cache_info()["mobius.mu"] == 0
    assert mobius_char(7, variant).values == again.values


def test_convolution_inverts_zeta():
    for variant in ("nc", "c"):
        mu = mobius_char(6, variant)
        z = zeta(6)
        eps = epsilon_char(6)
        for n in range(1, 7):
            assert convolve_m(mu, z, n, variant) == eps.on_letter(n)
            assert convolve_m(z, mu, n, variant) == eps.on_letter(n)


def test_invert_goldens():
    # the B symbols carry the same letter indices as the d's, so the golden
    # values compare against plain parses
    assert mobius_invert(2, "c") == _c("d2 - d1^2")
    assert mobius_invert(3, "c") == _c("d3 - 3*d1*d2 + 2*d1^3")
    assert mobius_invert(2, "nc") == _nc("d2 - d1^2")
    assert mobius_invert(3, "nc") == _nc("d3 - 2*d1*d2 - d2*d1 + 2*d1^3")
    assert render_text(mobius_invert(3, "nc"), symbol="B") == (
        "2*B1^3 - B2*B1 - 2*B1*B2 + B3"
    )


def test_round_trip_commutative():
    for n in range(1, 7):
        assert invert_round_trip(n, "c")


def test_round_trip_free_boundary():
    for n in range(1, 4):
        assert invert_round_trip(n, "nc")
    # coassociativity fails at degree 4, taking the substitution identity
    # with it
    assert not invert_round_trip(4, "nc")


def test_suite_checks_mu_zeta_on_both_sides(monkeypatch):
    # (d_n, variant, whether zeta is the left factor) of every convolution
    calls = []
    original = mobius.convolve_m
    ones = zeta(5).values

    def counted(phi, psi, n, variant="nc"):
        calls.append((n, variant, phi.values == ones))
        return original(phi, psi, n, variant)

    monkeypatch.setattr(mobius, "convolve_m", counted)
    ok, detail = verify.suite_mobius(5)
    assert sorted(calls) == [(n, v, left) for n in range(1, 6) for v in ("c", "nc")
                             for left in (False, True)]
    assert (ok, detail) == (False, "round trip fails at d_4 (nc); round trip fails at d_5 (nc)")


def test_suite_names_a_wrong_epsilon(monkeypatch):
    # negative control: an epsilon that is wrong at d_3 must be reported,
    # in both variants, after the round trips
    original = mobius.epsilon_char

    def wrong(max_n):
        eps = original(max_n)
        eps.values[3] = 1
        return eps

    monkeypatch.setattr(mobius, "epsilon_char", wrong)
    ok, detail = verify.suite_mobius()
    assert not ok
    assert detail.startswith("round trip fails at d_4 (nc)")
    assert "mu * zeta != epsilon at d_3 (c)" in detail
    assert detail.endswith("(+1 more)")
