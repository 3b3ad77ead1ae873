"""Faa di Bruno Hopf algebras on generators X_1, X_2, ... with X_0 = 1,
and the bialgebra engine they share with ncbell.mobius.

Two variants, selected by the strings "fdb" (commutative, CPoly) and
"dfdb" (free, NCPoly). Letters with index i stand for X_i; the unit is the
empty monomial, standing in for X_0. Coproducts are assembled from the rank
polynomials W_{n,k}, which are shifted partial Bell polynomials with the
first variable set to the unit.

The engine. These bialgebras and the d-alphabet bialgebra of
ncbell.mobius all have the Bell coproduct shape
Delta(x_n) = sum_k B_{n,k} (x) x_k. They differ only in their data on one
letter: its coproduct, its antipode and the counit. Everything else lives
here once, written over the key codec of the ring class (NCPoly or CPoly,
looked up by ring() from the variant string): tensor_mul, the
multiplicative coproduct extension coproduct_extend, the anti-morphism
antipode extension antipode_extend, the Character class and the pairing
pair behind both convolutions. The per-algebra data are passed in as
functions of one letter: coproduct_gen / antipode_recursive here,
coproduct_m / antipode_m in ncbell.mobius.

Tensors are plain dicts mapping (left monomial key, right monomial key) to
an exact coefficient, an int or a Fraction, never a float, as in the ring
classes; triple tensors use 3-tuples of keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import CPoly, NCPoly, _coeff, add_into, join_signed, render_latex, render_text
from .bell import bell_partial
from . import quasidet


# ---------------------------------------------------------------------------
# engine


def ring(variant: str):
    """The ring class of a variant: NCPoly for the free ones ("dfdb", "nc"),
    CPoly for the commutative ones ("fdb", "c")."""
    if variant in ("dfdb", "nc"):
        return NCPoly
    if variant in ("fdb", "c"):
        return CPoly
    raise ValueError(f"unknown variant {variant!r}")


def tensor_mul(t1: dict, t2: dict, variant: str) -> dict:
    """Product of two 2-tensors, leg by leg."""
    key_mul = ring(variant).key_mul
    out: dict = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            key = (key_mul(l1, l2), key_mul(r1, r2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def coproduct_extend(terms: dict, variant: str, letter_coproduct) -> dict:
    """The coproduct of sum(c * key) over terms, extended multiplicatively
    from letter_coproduct(i, variant), the coproduct of the letter i."""
    key_letters = ring(variant).key_letters
    total: dict = {}
    for key, c in terms.items():
        t = {((), ()): c}
        for i in key_letters(key):
            t = tensor_mul(t, letter_coproduct(i, variant), variant)
        if total:
            add_into(total, t)
        else:
            total = t
    return total


def antipode_extend(p, variant: str, side: str, letter_antipode):
    """The antipode of p, extended as an anti-morphism (a morphism in the
    commutative rings) from letter_antipode(i, variant, side), the antipode
    of the letter i."""
    cls = ring(variant)
    acc: dict = {}
    for key, c in p.terms.items():
        factor = cls.one()
        for i in reversed(cls.key_letters(key)):
            factor = factor * letter_antipode(i, variant, side)
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

    def on_key(self, key, cls) -> int | Fraction:
        """The value on the monomial key of the ring class cls."""
        prod = 1
        for i in cls.key_letters(key):
            prod *= self.on_letter(i)
        return prod

    def __call__(self, p) -> int | Fraction:
        cls = type(p)
        total = 0
        for key, c in p.terms.items():
            total += c * self.on_key(key, cls)
        return total


def pair(phi: Character, psi: Character, t: dict, variant: str) -> int | Fraction:
    """(phi (x) psi)(t) = sum of c * phi(left) * psi(right) over a 2-tensor."""
    cls = ring(variant)
    total = 0
    for (l, r), c in t.items():
        total += c * phi.on_key(l, cls) * psi.on_key(r, cls)
    return total


# ---------------------------------------------------------------------------
# rank polynomials and coproduct


def _cls(variant: str):
    if variant not in ("fdb", "dfdb"):
        raise ValueError(f"unknown variant {variant!r}")
    return ring(variant)


def _bell_variant(variant: str) -> str:
    return "nc" if variant == "dfdb" else "c"


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
        base = bell_partial(n + 1, k + 1, _bell_variant(variant))
        mapping = {1: cls.one()}
        for j in range(2, n + 2):
            mapping[j] = cls.letter(j - 1)
        _RANK[key] = base.substitute(mapping)
    return _RANK[key]


def coproduct_gen(n: int, variant: str = "dfdb") -> dict:
    """Coproduct of the generator X_n: sum_k W_{n,k} tensor X_k."""
    cls = _cls(variant)
    if n == 0:
        return {((), ()): 1}
    out: dict = {}
    for k in range(n + 1):
        right = cls.letter_key(k)
        for wkey, c in rank_poly(n, k, variant).terms.items():
            key = (wkey, right)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def coproduct_mono(key, variant: str) -> dict:
    _cls(variant)
    return coproduct_extend({key: 1}, variant, coproduct_gen)


def coproduct(p, variant: str = "dfdb") -> dict:
    """The coproduct of an arbitrary element, extended as algebra morphism."""
    _cls(variant)
    return coproduct_extend(p.terms, variant, coproduct_gen)


def coproduct_oracle(n: int, variant: str = "dfdb") -> dict:
    """Brute-force coproduct of X_n from set partitions of {1..n+1}: each
    partition contributes (product of X_{|block|-1}, blocks by increasing
    maxima) tensor X_{#blocks-1}."""
    from . import partitions

    cls = _cls(variant)
    out: dict = {}
    for P in partitions.iter_partitions(n + 1):
        left = ()
        for b in sorted(P, key=lambda b: b[-1]):
            left = cls.key_mul(left, cls.letter_key(len(b) - 1))
        key = (left, cls.letter_key(len(P) - 1))
        out[key] = out.get(key, 0) + 1
    return {k: v for k, v in out.items() if v}


def counit(p) -> int | Fraction:
    """Coefficient of the unit monomial."""
    return p.terms.get((), 0)


# ---------------------------------------------------------------------------
# antipode


_ANTIPODE: dict = {}


def antipode_recursive(n: int, variant: str = "dfdb", side: str = "right"):
    """S(X_n) by the reduced-coproduct recursion.

    side "right": S(X_n) = -X_n - sum_{k=1}^{n-1} W_{n,k} S(X_k)
    side "left":  S(X_n) = -X_n - sum_{k=1}^{n-1} S(W_{n,k}) X_k
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    cls = _cls(variant)
    if n == 0:
        return cls.one()
    key = (n, variant, side)
    if key not in _ANTIPODE:
        gen = cls.letter(n)
        acc = -gen
        for k in range(1, n):
            w = rank_poly(n, k, variant)
            if side == "right":
                acc = acc - w * antipode_recursive(k, variant, side)
            else:
                acc = acc - antipode_poly(w, variant, side) * cls.letter(k)
        _ANTIPODE[key] = acc
    return _ANTIPODE[key]


def antipode_poly(p, variant: str = "dfdb", side: str = "right"):
    """Extend the antipode to arbitrary elements as an anti-morphism
    (which in the commutative variant is just a morphism)."""
    _cls(variant)
    return antipode_extend(p, variant, side, antipode_recursive)


def antipode_quasidet(n: int, variant: str = "dfdb"):
    """S(X_n) as the top-right quasideterminant (free variant) or the
    determinant (commutative variant) of the n x n Hessenberg matrix with
    entries -W_{n-i+1, n-j}; the subdiagonal is then -W_{k,k} = -1 and the
    recursion's value is the antipode itself, no extra sign."""
    if n < 1:
        raise ValueError("need n >= 1")
    M = [
        [-rank_poly(n - i + 1, n - j, variant) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    if variant == "dfdb":
        return quasidet.hessenberg_quasidet(M)
    return quasidet.det(M)


# ---------------------------------------------------------------------------
# axioms


def _tensor_expand(t: dict, leg: int, variant: str) -> dict:
    """Apply the coproduct to one leg of a 2-tensor, giving a 3-tensor.
    Each distinct leg is expanded once per call."""
    out: dict = {}
    deltas: dict = {}
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


def _check_element(p, variant: str) -> str | None:
    cls = _cls(variant)
    delta = coproduct(p, variant)
    if _tensor_expand(delta, 0, variant) != _tensor_expand(delta, 1, variant):
        return "coassociativity"
    left_counit = cls.zero()
    right_counit = cls.zero()
    for (l, r), c in delta.items():
        if l == ():
            left_counit = left_counit + cls.from_key(r) * c
        if r == ():
            right_counit = right_counit + cls.from_key(l) * c
    if left_counit != p or right_counit != p:
        return "counit"
    s_left = cls.zero()
    s_right = cls.zero()
    for (l, r), c in delta.items():
        s_left = s_left + antipode_poly(cls.from_key(l), variant) * cls.from_key(r) * c
        s_right = s_right + cls.from_key(l) * antipode_poly(cls.from_key(r), variant) * c
    expect = cls.one() * counit(p)
    if s_left != expect or s_right != expect:
        return "antipode"
    return None


def hopf_axiom_check(max_degree: int, variant: str = "dfdb", seed: int = 0, n_products: int = 20) -> list:
    """Check coassociativity, the counit laws, both antipode identities, and
    the morphism property of the coproduct on all generators up to
    max_degree and on random products. Returns a list of failure strings,
    empty when everything holds."""
    import random

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
        if not factors:
            factors = [1]
        prod = cls.one()
        for i in factors:
            prod = prod * cls.letter(i)
        products.append(prod)
    for p in elements + products:
        bad = _check_element(p, variant)
        if bad is not None:
            failures.append(f"{bad} fails on {p!r}")
    # vacuous as it stands: coproduct() is itself built with tensor_mul, so
    # this holds by construction until an independent product oracle exists
    for _ in range(n_products):
        u = rng.choice(elements + products)
        v = rng.choice(elements + products)
        if coproduct(u * v, variant) != tensor_mul(coproduct(u, variant), coproduct(v, variant), variant):
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


def convolve(phi: Character, psi: Character, max_n: int | None = None) -> Character:
    """Convolution (phi * psi)(X_n) = sum over the coproduct of X_n of
    phi(left) psi(right), returned as a character on X_1..X_max_n. The
    truncation defaults to the range both inputs are defined on."""
    if max_n is None:
        max_n = min(max(phi.values, default=0), max(psi.values, default=0))
    values = {n: pair(phi, psi, coproduct_gen(n, "fdb"), "fdb") for n in range(1, max_n + 1)}
    return Character(values)


def character_antipode(phi: Character, max_n: int, variant: str = "fdb") -> Character:
    """The character X_n -> phi(S(X_n))."""
    return Character({n: phi(antipode_recursive(n, variant)) for n in range(1, max_n + 1)})


def lowercase(p: CPoly, max_index: int) -> CPoly:
    """Reinterpret a polynomial in X_1..X_max_index in the divided letters
    x_j = X_j / (j+1)!, keeping the same letter indices for the x's."""
    mapping = {j: CPoly.letter(j, factorial(j + 1)) for j in range(1, max_index + 1)}
    return p.substitute(mapping)


def generating_series_rank_check(n: int, k: int) -> bool:
    """Check the generating-series encoding of the rank polynomials.

    The identity holds in the lowercase normalization x_j = X_j / (j+1)!:
    with w_{n,k} = ((k+1)!/(n+1)!) W_{n,k}(X_j -> (j+1)! x_j), the claim is
    w_{n,k} = [t^{n-k}] (1 + sum_{m>0} t^m x_m)^{k+1}. (The same statement
    with raw X variables and the t^n coefficient fails already at
    (n, k) = (3, 1); see the tests.)
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    scaled = lowercase(rank_poly(n, k, "fdb"), n) * Fraction(factorial(k + 1), factorial(n + 1))
    order = n - k
    base = [CPoly.one() if m == 0 else CPoly.letter(m) for m in range(order + 1)]
    power = [CPoly.one()] + [CPoly.zero()] * order
    for _ in range(k + 1):
        nxt = [CPoly.zero()] * (order + 1)
        for a in range(order + 1):
            if not power[a]:
                continue
            for b in range(order + 1 - a):
                nxt[a + b] = nxt[a + b] + power[a] * base[b]
        power = nxt
    return power[order] == scaled


# ---------------------------------------------------------------------------
# rendering


def tensor_to_json(t: dict, variant: str) -> dict:
    letters = _cls(variant).key_letters
    terms = sorted(
        ((list(letters(l)), list(letters(r)), c) for (l, r), c in t.items()),
        key=lambda x: (len(x[0]) + len(x[1]), x[1], x[0]),
    )
    return {
        "algebra": variant,
        "terms": [{"coeff": str(c), "left": lw, "right": rw} for lw, rw, c in terms],
    }


def render_tensor(t: dict, variant: str, latex: bool = False) -> str:
    cls = _cls(variant)
    letters = cls.key_letters
    items = sorted(
        t.items(),
        key=lambda kv: (
            len(letters(kv[0][1])) + len(letters(kv[0][0])),
            letters(kv[0][1]),
            letters(kv[0][0]),
        ),
    )
    render = render_latex if latex else render_text
    otimes = " \\otimes " if latex else " (x) "
    chunks = []
    for (l, r), c in items:
        lp = render(cls.from_key(l) * abs(c), symbol="X")
        rp = render(cls.from_key(r), symbol="X")
        chunks.append((c < 0, f"{lp}{otimes}{rp}"))
    return join_signed(chunks)
