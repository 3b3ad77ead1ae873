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
through unchecked and the memo never holds another. antipode_extend, and
coproduct in this module, refuse an element not of the variant's ring;
coproduct_mono and pair refuse a key of the other ring with the same
TypeError, looked for only once the key has failed, so well-formed input
pays nothing for the check.

Tensors are plain dicts mapping a tuple of legs, two or three, to an
exact coefficient, an int or a Fraction, never a float, as in the ring
classes. Inside the engine the legs are the small int ids of a LegTable,
which carries the variant: it numbers every monomial key it meets, keeps
one row per id of the ids of its products, filled with key_mul as pairs
are met, and holds each generator coproduct in ids once. tensor_mul (the
one term loop), coproduct_extend, coproduct and coproduct_mono take a
table and work in its ids. Tensors leave the engine keyed by monomial
keys: bell_coproduct, coproduct_gen, coproduct_m and coproduct_oracle
build them so, and pair, render_tensor and tensor_to_json read them; a
tensor in ids maps back to keys through the table's keys.

The characters of fdb are evaluated on letter forms: convolve and
character_antipode read the coproduct and the antipode of X_n as
immutable tuples of (leg letters, coefficient) pairs, built from
coproduct_gen and antipode_recursive once per n (_COPRODUCT_FORM and
_ANTIPODE_FORM, "hopf.coproduct_form" and "hopf.antipode_form" in
ncbell.cache_info), so repeated calls neither rebuild a tensor nor
expand a leg again.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import INV, CPoly, _coeff, _word, add_into, common_denominator, join_signed, key_of, term
from .bell import bell_partial
from . import algebra, quasidet


# ---------------------------------------------------------------------------
# engine


def ring(variant: str):
    """The ring class of any of the four variant names, since the engine
    serves ncbell.mobius ("nc", "c") as well as this module ("dfdb", "fdb")."""
    return algebra.ring(variant, algebra.VARIANTS)


def _check_ring(p, cls, variant: str) -> None:
    if not isinstance(p, cls):
        raise TypeError(f"variant {variant!r} takes {cls.__name__} elements, "
                        f"not {type(p).__name__}")


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


class LegTable:
    """Small int ids for the monomial keys of one variant, and the products
    of the ids met so far: ids maps a key to its id, keys[i] is the key of
    id i, and rows[i] maps an id j to the id of keys[i] * keys[j], filled
    with key_mul as pairs are met, by product one pair at a time or by
    fill a block of pairs at once. gens holds the coproduct of each letter
    in ids, built once. A tensor in ids has the legs of a key tensor
    replaced by their ids; since ids and keys correspond one to one, two
    such tensors are equal exactly when their key tensors are."""

    __slots__ = ("variant", "key_mul", "ids", "keys", "rows", "gens")

    def __init__(self, variant: str):
        self.variant = variant
        self.key_mul = ring(variant).key_mul
        self.ids: dict = {}
        self.keys: list = []
        self.rows: list = []
        self.gens: dict = {}

    def id(self, key) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.rows.append({})
        return i

    def product(self, u: int, v: int) -> int:
        """The id of keys[u] * keys[v], read from row u; a pair the row
        lacks is multiplied once with key_mul and added to it."""
        row = self.rows[u]
        w = row.get(v)
        if w is None:
            w = row[v] = self.id(self.key_mul(self.keys[u], self.keys[v]))
        return w

    def fill(self, firsts, seconds) -> None:
        """Add to the rows each product of an id of firsts by an id of
        seconds that they lack, as product would, in one loop."""
        rows, keys, key_mul, id_ = self.rows, self.keys, self.key_mul, self.id
        for u in firsts:
            row = rows[u]
            for v in seconds:
                if v not in row:
                    row[v] = id_(key_mul(keys[u], keys[v]))

    def intern(self, t: dict) -> dict:
        """The 2-tensor t in ids, in the same term order."""
        id_ = self.id
        return {(id_(l), id_(r)): c for (l, r), c in t.items()}

    def generator(self, i: int) -> dict:
        """The coproduct of the letter i in ids: bell_coproduct, or
        g^{-1} (x) g^{-1} for the inverse letter."""
        t = self.gens.get(i)
        if t is None:
            cls, _, _, inverse = _shape(self.variant)
            t = self.gens[i] = self.intern({(cls.letter_key(i),) * 2: 1} if i == inverse
                                           else bell_coproduct(i, self.variant))
        return t


def tensor_mul(t1: dict, t2: dict, table: LegTable) -> dict:
    """Product of two 2-tensors in the ids of table, leg by leg. The pairs
    the call needs (each distinct left leg of t1 by each distinct left leg
    of t2, and likewise on the right) that the table lacks are multiplied
    once and added to it, and the term loop then only looks the products
    up, so a caller that passes one table to many calls multiplies each
    distinct pair of keys once in all of them."""
    table.fill({l for l, _ in t1}, {l for l, _ in t2})
    table.fill({r for _, r in t1}, {r for _, r in t2})
    rows = table.rows
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        lrow = rows[l1]
        rrow = rows[r1]
        for (l2, r2), c2 in t2.items():
            key = (lrow[l2], rrow[r2])
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def coproduct_extend(terms: dict, table: LegTable) -> dict:
    """The coproduct of sum(c * key) over terms, extended multiplicatively
    from bell_coproduct on the generators, with g^{-1} group-like, in the
    ids of table, which holds each generator coproduct once."""
    key_letters, generator = ring(table.variant).key_letters, table.generator
    unit = table.id(())
    total: dict = {}
    for key, c in terms.items():
        t = {(unit, unit): c}
        for i in key_letters(key):
            t = tensor_mul(t, generator(i), table)
        if total:
            add_into(total, t)
        else:
            total = t
    return total


def antipode_extend(p, variant: str, side: str):
    """The antipode of p, extended as an anti-morphism (a morphism in the
    commutative rings) from bell_antipode on the generators, with
    S(g^{-1}) = g. The side, then the ring of p, are checked even when p
    has no letters."""
    cls, _, low, inverse = _shape(variant)
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}, expected 'left' or 'right'")
    _check_ring(p, cls, variant)
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
        return _evaluate((((key,), c) for key, c in p.terms.items()), (_numerators(self),),
                         type(p).key_letters)


def _numerators(ch: Character) -> tuple:
    """(table, d, exact) of a character: table maps each letter to the
    integer numerator of its value over the one denominator d, and exact
    says whether every value is an int. Built per call of the evaluating
    function, never kept on the character, whose values may change."""
    values = ch.values
    nums, d = common_denominator(list(values.values()))
    return dict(zip(values, nums)), d, not any(isinstance(v, Fraction) for v in values.values())


def _evaluate(items, numerators: tuple, key_letters) -> int | Fraction:
    """The sum of c * chars[0](legs[0]) * chars[1](legs[1]) * ... over the
    (legs, c) pairs of items, legs a tuple of monomial keys, each character
    given by its _numerators. A character's values are read as integer
    numerators over one denominator d, so a leg of length m is worth its
    numerator product / d^m; terms are summed per tuple of leg lengths,
    brought up to the longest legs with powers of d, and divided once. An
    int when every value and coefficient is an int (0 when there are no
    terms), else a Fraction."""
    tables = [table for table, _, _ in numerators]
    dens = [d for _, d, _ in numerators]
    exact_int = all(exact for _, _, exact in numerators)
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


def _check_key(key, cls, variant: str) -> None:
    """The engine's TypeError unless key is a monomial key of cls: its
    letters are ints and they spell it again. Called only once a key has
    failed, so well-formed input pays nothing for it."""
    try:
        letters = cls.key_letters(key)
        ok = all(type(i) is int for i in letters) and key_of(cls, letters) == key
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise TypeError(f"variant {variant!r} takes {cls.__name__} keys, not {key!r}")


def pair(phi: Character, psi: Character, t: dict, variant: str) -> int | Fraction:
    """(phi (x) psi)(t) = sum of c * phi(left) * psi(right) over a 2-tensor,
    evaluated on integer numerators and divided once. A key of the other
    ring raises the engine's TypeError; it is looked for only once the
    evaluation has failed."""
    cls = ring(variant)
    try:
        return _evaluate(t.items(), (_numerators(phi), _numerators(psi)), cls.key_letters)
    except (TypeError, ValueError):
        for legs in t:
            for key in legs:
                _check_key(key, cls, variant)
        raise


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


def coproduct_mono(key, table: LegTable) -> dict:
    """The coproduct of one monomial key, in the ids of table
    (coproduct_extend). A key of the other ring raises the engine's
    TypeError, looked for only once the expansion has failed."""
    cls = _cls(table.variant)
    try:
        return coproduct_extend({key: 1}, table)
    except (TypeError, ValueError):
        _check_key(key, cls, table.variant)
        raise


def coproduct(p, table: LegTable) -> dict:
    """The coproduct of an element of the table's ring, extended as algebra
    morphism, in the ids of table (coproduct_extend)."""
    _check_ring(p, _cls(table.variant), table.variant)
    return coproduct_extend(p.terms, table)


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


def _tensor_expand(t: dict, leg: int, table: LegTable, deltas: dict) -> dict:
    """Apply the coproduct to one leg of a 2-tensor, giving a 3-tensor, both
    in the ids of table. deltas maps a leg id to its coproduct; a leg
    missing from it is expanded once and added, so a memo shared between
    calls expands each distinct leg once in all of them."""
    keys = table.keys
    out: dict = {}
    for (l, r), c in t.items():
        mono = l if leg == 0 else r
        if mono not in deltas:
            deltas[mono] = coproduct_mono(keys[mono], table)
        for (a, b), c2 in deltas[mono].items():
            key = (a, b, r) if leg == 0 else (l, a, b)
            s = out.get(key, 0) + c * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _antipode_sums(delta: dict, antipodes: dict, table: LegTable) -> tuple:
    """The term dicts of sum c * S(l) * r and sum c * l * S(r) over the terms
    (l, r) -> c of delta, all in the ids of table, antipodes mapping each
    leg id to the term dict of S of it in ids. Every term of an antipode is
    shifted by the other leg straight into one dict per side, the product
    ids read with table.product."""
    times = table.product
    left: dict = {}
    right: dict = {}
    for (l, r), c in delta.items():
        for key, a in antipodes[l].items():
            key = times(key, r)
            left[key] = left.get(key, 0) + a * c
        for key, a in antipodes[r].items():
            key = times(l, key)
            right[key] = right.get(key, 0) + a * c
    return ({k: v for k, v in left.items() if v}, {k: v for k, v in right.items() if v})


def _check_element(p, delta: dict, table: LegTable, deltas: dict, antipodes: dict) -> str | None:
    """The first axiom that fails on p, whose coproduct is delta in the ids
    of table, or None. deltas maps leg ids to their coproducts, and
    antipodes leg ids to the term dicts of their antipodes, both in ids,
    filled as legs are met and shared with the other elements. The
    coassociativity 3-tensors and the counit and antipode sums are all
    built in ids, as term dicts, not by ring operations; since ids and
    keys correspond one to one, they compare as their key forms would."""
    variant = table.variant
    cls = _cls(variant)
    if _tensor_expand(delta, 0, table, deltas) != _tensor_expand(delta, 1, table, deltas):
        return "coassociativity"
    keys, id_, unit = table.keys, table.id, table.id(())
    own = {id_(k): c for k, c in p.terms.items()}
    # the terms with a unit leg have distinct other legs: no sums needed
    left_counit = {r: c for (l, r), c in delta.items() if l == unit and c}
    right_counit = {l: c for (l, r), c in delta.items() if r == unit and c}
    if left_counit != own or right_counit != own:
        return "counit"
    for leg in {i for legs in delta for i in legs} - antipodes.keys():
        antipodes[leg] = {id_(k): c for k, c in
                          antipode_poly(cls.from_key(keys[leg]), variant).terms.items()}
    s_left, s_right = _antipode_sums(delta, antipodes, table)
    e = counit(p)
    expect = {unit: e} if e else {}
    if s_left != expect or s_right != expect:
        return "antipode"
    return None


def hopf_axiom_check(max_degree: int, variant: str = "dfdb", seed: int = 0, n_products: int = 20) -> list:
    """Check coassociativity, the counit laws, both antipode identities, and
    the morphism property of the coproduct on all generators up to
    max_degree and on random products. Returns a list of failure strings,
    empty when everything holds; a max_degree below 1 or a negative
    n_products is refused. Each distinct leg has its coproduct and its
    antipode computed once per call. Every tensor is held in the ids of one
    leg table from start to end (the element coproducts, the leg
    coproducts, the coassociativity 3-tensors, every Delta(uv) and every
    Delta(u)Delta(v), each leg antipode and the counit and antipode sums),
    so each generator coproduct is built once and each distinct pair of
    monomials multiplied once in all of them. Each distinct element of the pool
    is checked once and each distinct product pair compared once; a repeat
    replays the stored verdict, so a failure line appears once for every
    occurrence, in pool order (random products often repeat, so lines
    repeat too)."""
    import random

    if max_degree < 1:
        raise ValueError(f"max degree must be at least 1, got {max_degree}")
    if n_products < 0:
        raise ValueError(f"product count must be at least 0, got {n_products}")
    rng = random.Random(seed)
    cls = _cls(variant)
    failures = []
    elements = [cls.letter(i) for i in range(1, max_degree + 1)]
    drawn = []
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
        drawn.append(prod)
    pool = elements + drawn
    checked: dict = {}  # distinct element -> (its coproduct, its verdict)
    deltas: dict = {}
    antipodes: dict = {}
    table = LegTable(variant)  # every tensor below is in its ids
    for p in pool:
        if p not in checked:
            delta = coproduct(p, table)
            checked[p] = (delta, _check_element(p, delta, table, deltas, antipodes))
        bad = checked[p][1]
        if bad is not None:
            failures.append(f"{bad} fails on {p!r}")
    # vacuous as it stands: coproduct() is itself built with tensor_mul on the
    # same leg table, so this holds by construction until an independent
    # product oracle exists
    multiplicative: dict = {}  # distinct (u, v) -> whether Delta(uv) = Delta(u)Delta(v)
    for _ in range(n_products):
        u, v = rng.choice(pool), rng.choice(pool)
        if (u, v) not in multiplicative:
            multiplicative[u, v] = (coproduct(u * v, table)
                                    == tensor_mul(checked[u][0], checked[v][0], table))
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


_COPRODUCT_FORM: dict = {}  # n -> the fdb coproduct of X_n in letter form
_ANTIPODE_FORM: dict = {}  # n -> the fdb antipode of X_n in letter form


def _letter_form(items) -> tuple:
    """The (legs, c) pairs of an fdb key tensor in letter form: the same
    pairs in the same order, each leg the tuple of its letters. A letter
    tuple is its own free-algebra key, so _evaluate reads the form with
    the word codec, tuple, and never expands a leg again."""
    key_letters = CPoly.key_letters
    return tuple((tuple(map(key_letters, legs)), c) for legs, c in items)


def _coproduct_form(n: int) -> tuple:
    """The letter form of coproduct_gen(n, "fdb"), built once per n."""
    form = _COPRODUCT_FORM.get(n)
    if form is None:
        form = _COPRODUCT_FORM[n] = _letter_form(coproduct_gen(n, "fdb").items())
    return form


def _antipode_form(n: int) -> tuple:
    """The letter form of antipode_recursive(n, "fdb"), one leg per term,
    built once per n."""
    form = _ANTIPODE_FORM.get(n)
    if form is None:
        terms = antipode_recursive(n, "fdb").terms
        form = _ANTIPODE_FORM[n] = _letter_form(((key,), c) for key, c in terms.items())
    return form


def _check_range(max_n: int) -> None:
    """ValueError for a negative top index of a character; 0 is valid."""
    if max_n < 0:
        raise ValueError(f"max_n must be at least 0, got {max_n}")


def convolve(phi: Character, psi: Character) -> Character:
    """Convolution (phi * psi)(X_n) = sum over the coproduct of X_n of
    phi(left) psi(right), returned as a character on X_1..X_max_n, the
    range both inputs are defined on. Each character's numerator table is
    built once per call and shared by every X_n, whose coproduct is read
    from its letter form."""
    max_n = min(max(phi.values, default=0), max(psi.values, default=0))
    numerators = (_numerators(phi), _numerators(psi))
    return Character({n: _evaluate(_coproduct_form(n), numerators, tuple)
                      for n in range(1, max_n + 1)})


def character_antipode(phi: Character, max_n: int) -> Character:
    """The character X_n -> phi(S(X_n)) in fdb, for n = 1..max_n; a
    negative max_n is refused. phi's numerator table is built once per
    call, and each S(X_n) is read from its letter form."""
    _check_range(max_n)
    numerators = (_numerators(phi),)
    return Character({n: _evaluate(_antipode_form(n), numerators, tuple)
                      for n in range(1, max_n + 1)})


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
