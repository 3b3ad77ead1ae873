"""Faa di Bruno Hopf algebras on generators X_1, X_2, ... with X_0 = 1,
and the bialgebra engine they share with ncbell.mobius.

Two variants, selected by the strings "fdb" (commutative, CPoly) and
"dfdb" (free, NCPoly). Letters with index i stand for X_i; the unit is the
empty monomial, standing in for X_0. Coproducts are assembled from the rank
polynomials W_{n,k}, which are shifted partial Bell polynomials with the
first variable set to the unit.

The engine. These bialgebras and the d-alphabet bialgebra of
ncbell.mobius all have the Bell coproduct shape
Delta(x_n) = sum_{k=low}^{n} P_{n,k} (x) x_k with a group-like, invertible
lowest generator g = x_low and P_{n,n} = g^n. They differ only in their
data, which the variant name picks through one descriptor (_shape): the
ring class, NCPoly or CPoly; for "fdb" and "dfdb" the table P = W
(rank_poly) and g = X_0 = 1; for the d-alphabet names "c" and "nc"
P = B (bell_partial) and g = d1, with the inverse letter INV group-like
and S(d1^{-1}) = d1. Any other name is refused there, before the degree
or the side. Everything else lives here once, written over the key codec
of the ring class: the generator coproduct bell_coproduct, the antipode
recursions bell_antipode with the one antipode memo _ANTIPODE,
tensor_mul, the multiplicative coproduct extension coproduct_extend, the
anti-morphism antipode extension antipode_extend, the Character class and
the pairing pair behind both convolutions. The engine checks the
antipode side itself: bell_antipode and antipode_extend refuse any side
but "left" and "right", so the entry points of both modules pass it
through unchecked and the memo never holds another.

Tensors are plain dicts mapping (left monomial key, right monomial key) to
an exact coefficient, an int or a Fraction, never a float, as in the ring
classes; triple tensors use 3-tuples of keys.

The axiom battery hopf_axiom_check expands each distinct tensor leg once
per call: one memo holds the coproduct of every leg and another its
antipode, shared by both legs and by every element checked. Each distinct
element of its pool is checked once, and each distinct pair of the
multiplicativity check compared once; the random products repeat often,
and a repeat replays the stored verdict, so a failure line appears once per
occurrence. All these memos are local to the call, so nothing the battery
caches outlives it. The counit and antipode sums of each element are term
dicts filled in place, one per side, so no ring element is built per
tensor term.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import INV, _coeff, _word, add_into, common_denominator, join_signed, key_of, term
from .bell import bell_partial
from . import algebra, quasidet


# ---------------------------------------------------------------------------
# engine


def ring(variant: str):
    """The ring class of any of the four variant names, since the engine
    serves ncbell.mobius ("nc", "c") as well as this module ("dfdb", "fdb")."""
    return algebra.ring(variant, algebra.VARIANTS)


def _shape(variant: str) -> tuple:
    """The one descriptor of a variant: (ring class, table P, lowest
    generator index low, letter of g^{-1}). A name outside the four raises
    the unknown-variant ValueError of ring(). The table is looked up in the
    module globals on every call, so a rebound rank_poly or bell_partial is
    the one used."""
    cls = ring(variant)
    return (cls, rank_poly, 0, 0) if variant in ("fdb", "dfdb") else (cls, bell_partial, 1, INV)


def bell_coproduct(n: int, variant: str) -> dict:
    """The generator coproduct sum_{k=low}^{n} P_{n,k} (x) x_k."""
    cls, table, low, _ = _shape(variant)
    if n < low:
        raise ValueError(f"need n >= {low}")
    letter_key = cls.letter_key
    return {(key, letter_key(k)): c
            for k in range(low, n + 1) for key, c in table(n, k, variant).terms.items()}


_ANTIPODE: dict = {}


def bell_antipode(n: int, variant: str, side: str):
    """S(x_n), n >= low, memoised by (n, variant, side): the lowest
    generator g = x_low has P_{n,n} = g^n and S(g) = g^{-1}, and for
    n > low the one-sided antipode identities give

        right: S(x_n) = g^{-n} (-sum_{low <= k < n} P_{n,k} S(x_k))
        left:  S(x_n) = (-sum_{low < k <= n} S(P_{n,k}) x_k) g^{-1}
    """
    memo_key = (n, variant, side)
    if memo_key in _ANTIPODE:
        return _ANTIPODE[memo_key]
    cls, table, low, inverse = _shape(variant)
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}, expected 'left' or 'right'")
    if n < low:
        raise ValueError(f"need n >= {low}")
    acc: dict = {}
    if n == low:
        s = cls.from_key(cls.letter_key(inverse))
    elif side == "right":
        for k in range(low, n):
            add_into(acc, (table(n, k, variant) * bell_antipode(k, variant, side)).terms)
        s = cls.from_key(key_of(cls, [inverse] * n)) * -cls._new(acc)
    else:
        for k in range(low + 1, n + 1):
            add_into(acc, (antipode_extend(table(n, k, variant), variant, side)
                           * cls.letter(k)).terms)
        s = -cls._new(acc) * bell_antipode(low, variant, side)
    _ANTIPODE[memo_key] = s
    return s


def tensor_mul(t1: dict, t2: dict, variant: str) -> dict:
    """Product of two 2-tensors, leg by leg. Each distinct left leg of t1 is
    multiplied once by each distinct left leg of t2, and likewise on the
    right; the term loop then only looks the products up."""
    key_mul = ring(variant).key_mul
    lefts = {l for l, _ in t2}
    rights = {r for _, r in t2}
    left_of = {l1: {l2: key_mul(l1, l2) for l2 in lefts} for l1 in {l for l, _ in t1}}
    right_of = {r1: {r2: key_mul(r1, r2) for r2 in rights} for r1 in {r for _, r in t1}}
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        lrow = left_of[l1]
        rrow = right_of[r1]
        for (l2, r2), c2 in t2.items():
            key = (lrow[l2], rrow[r2])
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def coproduct_extend(terms: dict, variant: str) -> dict:
    """The coproduct of sum(c * key) over terms, extended multiplicatively
    from bell_coproduct on the generators, with g^{-1} group-like."""
    cls, _, _, inverse = _shape(variant)
    group_like = {(cls.letter_key(inverse),) * 2: 1}
    total: dict = {}
    for key, c in terms.items():
        t = {((), ()): c}
        for i in cls.key_letters(key):
            t = tensor_mul(t, group_like if i == inverse else bell_coproduct(i, variant), variant)
        if total:
            add_into(total, t)
        else:
            total = t
    return total


def antipode_extend(p, variant: str, side: str):
    """The antipode of p, extended as an anti-morphism (a morphism in the
    commutative rings) from bell_antipode on the generators, with
    S(g^{-1}) = g. The side is checked even when p has no letters."""
    cls, _, low, inverse = _shape(variant)
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}, expected 'left' or 'right'")
    acc: dict = {}
    for key, c in p.terms.items():
        factor = cls.one()
        for i in reversed(cls.key_letters(key)):
            factor = factor * (cls.letter(low) if i == inverse else bell_antipode(i, variant, side))
        add_into(acc, (factor * c).terms)
    return cls._new(acc)


class Character:
    """Multiplicative Rational-valued functional, stored by its values on
    letters (the inverse letter d1^{-1} under INV = -1), each an int or a
    Fraction. The codomain is commutative, so it evaluates NCPoly and CPoly
    alike."""

    __slots__ = ("values",)

    def __init__(self, values: dict):
        self.values = {i: _coeff(v) for i, v in values.items()}

    def on_letter(self, i: int) -> int | Fraction:
        if i not in self.values:
            raise ValueError(f"character not defined on letter {i}")
        return self.values[i]

    def __call__(self, p) -> int | Fraction:
        return _evaluate((((key,), c) for key, c in p.terms.items()), (self,),
                         type(p).key_letters)


def _evaluate(items, chars: tuple, key_letters) -> int | Fraction:
    """The sum of c * chars[0](legs[0]) * chars[1](legs[1]) * ... over the
    (legs, c) pairs of items, legs a tuple of monomial keys. A character's
    values are read as integer numerators over one denominator d, so a
    leg of length m is worth its numerator product / d^m; terms are summed
    per tuple of leg lengths, brought up to the longest legs with powers
    of d, and divided once. An int when every value and coefficient is an
    int (0 when there are no terms), else a Fraction."""
    tables, dens = [], []
    for ch in chars:
        nums, d = common_denominator(list(ch.values.values()))
        tables.append(dict(zip(ch.values, nums)))
        dens.append(d)
    exact_int = not any(isinstance(v, Fraction) for ch in chars for v in ch.values.values())
    by_length: dict = {}
    try:
        for legs, c in items:
            lengths = []
            for key, table in zip(legs, tables):
                letters = key_letters(key)
                c *= prod(map(table.__getitem__, letters))
                lengths.append(len(letters))
            lengths = tuple(lengths)
            by_length[lengths] = by_length.get(lengths, 0) + c
    except KeyError as exc:
        raise ValueError(f"character not defined on letter {exc.args[0]}") from None
    if not by_length:
        return 0
    tops = [max(place) for place in zip(*by_length)]
    total = 0
    for lengths, s in by_length.items():
        for d, top, m in zip(dens, tops, lengths):
            s *= d ** (top - m)
        total += s
    den = prod(d ** top for d, top in zip(dens, tops))
    if isinstance(total, Fraction):  # a Fraction coefficient
        return total / den
    return total if exact_int else Fraction(total, den)


def pair(phi: Character, psi: Character, t: dict, variant: str) -> int | Fraction:
    """(phi (x) psi)(t) = sum of c * phi(left) * psi(right) over a 2-tensor,
    evaluated on integer numerators and divided once."""
    return _evaluate(t.items(), (phi, psi), ring(variant).key_letters)


# ---------------------------------------------------------------------------
# rank polynomials and coproduct


def _cls(variant: str):
    return algebra.ring(variant, ("fdb", "dfdb"))


_RANK: dict = {}


def rank_poly(n: int, k: int, variant: str = "dfdb"):
    """W_{n,k} = B_{n+1,k+1} with d_j replaced by X_{j-1} and d_1 by the unit.

    W_{n,n} = 1, W_{n,0} = X_n, and W_{n,k} = 0 for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    cls = _cls(variant)
    if k > n:
        return cls.zero()
    key = (n, k, variant)
    if key not in _RANK:
        base = bell_partial(n + 1, k + 1, cls.tag)
        mapping = {1: cls.one()}
        for j in range(2, n + 2):
            mapping[j] = cls.letter(j - 1)
        _RANK[key] = base.substitute(mapping)
    return _RANK[key]


def coproduct_gen(n: int, variant: str = "dfdb") -> dict:
    """Coproduct of the generator X_n: sum_k W_{n,k} tensor X_k. The
    engine refuses n < 0."""
    _cls(variant)
    return bell_coproduct(n, variant)


def coproduct_mono(key, variant: str) -> dict:
    _cls(variant)
    return coproduct_extend({key: 1}, variant)


def coproduct(p, variant: str = "dfdb") -> dict:
    """The coproduct of an arbitrary element, extended as algebra morphism."""
    _cls(variant)
    return coproduct_extend(p.terms, variant)


def coproduct_oracle(n: int, variant: str = "dfdb") -> dict:
    """The coproduct of X_n counted over the set partitions of {1..n+1}: each
    partition contributes (product of X_{|block|-1}, blocks by increasing
    maxima) tensor X_{#blocks-1}. partitions.size_words counts the
    partitions of {1..n+1} by block-size word, one memoised tally shared by
    both variants, and each distinct word then gives its key pair once,
    weighted by its count. Like the engine, it refuses n < 0."""
    from . import partitions

    cls = _cls(variant)
    if n < 0:
        raise ValueError("need n >= 0")
    out: dict = {}
    for sizes, count in partitions.size_words(n + 1).items():
        key = (key_of(cls, [s - 1 for s in sizes]), cls.letter_key(len(sizes) - 1))
        out[key] = out.get(key, 0) + count
    return out


def counit(p) -> int | Fraction:
    """Coefficient of the unit monomial."""
    return p.terms.get((), 0)


# ---------------------------------------------------------------------------
# antipode


def antipode_recursive(n: int, variant: str = "dfdb", side: str = "right"):
    """S(X_n) by the reduced-coproduct recursion of bell_antipode; with
    W_{n,0} = X_n, W_{n,n} = 1 and S(X_0) = 1 it reads

    side "right": S(X_n) = -X_n - sum_{k=1}^{n-1} W_{n,k} S(X_k)
    side "left":  S(X_n) = -X_n - sum_{k=1}^{n-1} S(W_{n,k}) X_k

    The engine refuses n < 0 and a side other than "left" or "right".
    """
    _cls(variant)
    return bell_antipode(n, variant, side)


def antipode_poly(p, variant: str = "dfdb", side: str = "right"):
    """Extend the antipode to arbitrary elements as an anti-morphism
    (which in the commutative variant is just a morphism). The engine
    refuses a side other than "left" or "right"."""
    _cls(variant)
    return antipode_extend(p, variant, side)


def antipode_quasidet(n: int, variant: str = "dfdb"):
    """S(X_n) as the top-right quasideterminant (free variant) or the
    determinant (commutative variant) of the n x n Hessenberg matrix with
    entries -W_{n-i+1, n-j}; the subdiagonal is then -W_{k,k} = -1 and the
    recursion's value is the antipode itself, no extra sign. The matrix is
    built whole, not by quasidet.hessenberg, so that check_hessenberg tests
    W_{k,k} = 1 and W_{m,k} = 0 for k > m."""
    if n < 1:
        raise ValueError("need n >= 1")
    M = [
        [-rank_poly(n - i + 1, n - j, variant) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return quasidet.quasidet(M)


# ---------------------------------------------------------------------------
# axioms


def _tensor_expand(t: dict, leg: int, variant: str, deltas: dict) -> dict:
    """Apply the coproduct to one leg of a 2-tensor, giving a 3-tensor.
    deltas maps a leg key to its coproduct; a leg missing from it is
    expanded once and added, so a memo shared between calls expands each
    distinct leg once in all of them."""
    out: dict = {}
    for (l, r), c in t.items():
        mono = l if leg == 0 else r
        if mono not in deltas:
            deltas[mono] = coproduct_mono(mono, variant)
        for (a, b), c2 in deltas[mono].items():
            key = (a, b, r) if leg == 0 else (l, a, b)
            s = out.get(key, 0) + c * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _antipode_sums(delta: dict, antipodes: dict, key_mul) -> tuple:
    """The term dicts of sum c * S(l) * r and sum c * l * S(r) over the terms
    (l, r) -> c of delta, antipodes mapping each leg key to S of it. Every
    term of an antipode is shifted by the other leg's monomial straight
    into one dict per side."""
    left: dict = {}
    right: dict = {}
    for (l, r), c in delta.items():
        for key, a in antipodes[l].terms.items():
            key = key_mul(key, r)
            left[key] = left.get(key, 0) + a * c
        for key, a in antipodes[r].terms.items():
            key = key_mul(l, key)
            right[key] = right.get(key, 0) + a * c
    return ({k: v for k, v in left.items() if v}, {k: v for k, v in right.items() if v})


def _check_element(p, delta: dict, variant: str, deltas: dict, antipodes: dict) -> str | None:
    """The first axiom that fails on p, whose coproduct is delta, or None.
    deltas and antipodes map leg keys to their coproducts and antipodes,
    filled as legs are met and shared with the other elements. The counit
    and antipode sums are built as term dicts, not by ring operations."""
    cls = _cls(variant)
    if _tensor_expand(delta, 0, variant, deltas) != _tensor_expand(delta, 1, variant, deltas):
        return "coassociativity"
    # the terms with a unit leg have distinct other legs: no sums needed
    left_counit = {r: c for (l, r), c in delta.items() if l == () and c}
    right_counit = {l: c for (l, r), c in delta.items() if r == () and c}
    if left_counit != p.terms or right_counit != p.terms:
        return "counit"
    for leg in {k for legs in delta for k in legs} - antipodes.keys():
        antipodes[leg] = antipode_poly(cls.from_key(leg), variant)
    s_left, s_right = _antipode_sums(delta, antipodes, cls.key_mul)
    expect = (cls.one() * counit(p)).terms
    if s_left != expect or s_right != expect:
        return "antipode"
    return None


def hopf_axiom_check(max_degree: int, variant: str = "dfdb", seed: int = 0, n_products: int = 20) -> list:
    """Check coassociativity, the counit laws, both antipode identities, and
    the morphism property of the coproduct on all generators up to
    max_degree and on random products. Returns a list of failure strings,
    empty when everything holds. Each distinct leg has its coproduct and
    its antipode computed once per call. Each distinct element of the pool
    is checked once and each distinct product pair compared once; a repeat
    replays the stored verdict, so a failure line appears once for every
    occurrence, in pool order (random products often repeat, so lines
    repeat too)."""
    import random

    if max_degree < 1:
        raise ValueError(f"max degree must be at least 1, got {max_degree}")
    rng = random.Random(seed)
    cls = _cls(variant)
    failures = []
    elements = [cls.letter(i) for i in range(1, max_degree + 1)]
    products = []
    for _ in range(n_products):
        deg = 0
        factors = []
        while True:
            i = rng.randint(1, max(1, max_degree - deg))
            if deg + i > max_degree or (factors and rng.random() < 0.4):
                break
            factors.append(i)
            deg += i
        prod = cls.one()
        for i in factors:
            prod = prod * cls.letter(i)
        products.append(prod)
    pool = elements + products
    checked: dict = {}  # distinct element -> (its coproduct, its verdict)
    deltas: dict = {}
    antipodes: dict = {}
    for p in pool:
        if p not in checked:
            delta = coproduct(p, variant)
            checked[p] = (delta, _check_element(p, delta, variant, deltas, antipodes))
        bad = checked[p][1]
        if bad is not None:
            failures.append(f"{bad} fails on {p!r}")
    # vacuous as it stands: coproduct() is itself built with tensor_mul, so
    # this holds by construction until an independent product oracle exists
    multiplicative: dict = {}  # distinct (u, v) -> whether Delta(uv) = Delta(u)Delta(v)
    for _ in range(n_products):
        u, v = rng.choice(pool), rng.choice(pool)
        if (u, v) not in multiplicative:
            multiplicative[u, v] = (coproduct(u * v, variant)
                                    == tensor_mul(checked[u][0], checked[v][0], variant))
        if not multiplicative[u, v]:
            failures.append(f"coproduct not multiplicative on {u!r}, {v!r}")
    return failures


# ---------------------------------------------------------------------------
# characters and composition


def character_of_series(g: "FormalSeries") -> Character:
    """The character X_n -> g_{n+1} (divided-power coefficients) of a series
    with g_0 = 0 and invertible g_1."""
    if g.coeff(0) != 0:
        raise ValueError("series must vanish at the origin")
    if g.divided(1) == 0:
        raise ValueError("series must have invertible linear coefficient")
    return Character({i: g.divided(i + 1) for i in range(1, g.order - 1)})


def convolve(phi: Character, psi: Character) -> Character:
    """Convolution (phi * psi)(X_n) = sum over the coproduct of X_n of
    phi(left) psi(right), returned as a character on X_1..X_max_n, the
    range both inputs are defined on."""
    max_n = min(max(phi.values, default=0), max(psi.values, default=0))
    values = {n: pair(phi, psi, coproduct_gen(n, "fdb"), "fdb") for n in range(1, max_n + 1)}
    return Character(values)


def character_antipode(phi: Character, max_n: int) -> Character:
    """The character X_n -> phi(S(X_n)) in fdb."""
    return Character({n: phi(antipode_recursive(n, "fdb")) for n in range(1, max_n + 1)})


# ---------------------------------------------------------------------------
# rendering


def _sorted_legs(t: dict, variant: str) -> list:
    """(left letters, right letters, coefficient) of each term of t, by total
    length, then the right leg, then the left."""
    letters = _cls(variant).key_letters
    return sorted(
        ((letters(l), letters(r), c) for (l, r), c in t.items()),
        key=lambda x: (len(x[0]) + len(x[1]), x[1], x[0]),
    )


def tensor_to_json(t: dict, variant: str) -> dict:
    return {
        "algebra": variant,
        "terms": [{"coeff": str(c), "left": list(lw), "right": list(rw)}
                  for lw, rw, c in _sorted_legs(t, variant)],
    }


def render_tensor(t: dict, variant: str, latex: bool = False) -> str:
    """Each term as c * left (x) right: the coefficient goes on the left leg,
    and a unit leg prints as its coefficient (so "1 (x) X3", "-1/3 (x) X4")."""
    otimes = " \\otimes " if latex else " (x) "
    return join_signed([
        (c < 0, term(abs(c), _word(lw, "X", latex), latex) + otimes
         + term(1, _word(rw, "X", latex), latex))
        for lw, rw, c in _sorted_legs(t, variant)
    ])
