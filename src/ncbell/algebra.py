"""Exact polynomial arithmetic over the alphabet d1, d2, d3, ...

Letters are plain integers: i >= 1 stands for d_i, and -1 stands for the
formal inverse of d1 (index 1 is the only letter that may be inverted).
A word is a tuple of letters kept reduced, meaning d1 and d1^{-1} never
sit adjacent. Coefficients are exact: an int, or a fractions.Fraction
once a real division has happened, never a float. The Bell polynomials
have integer coefficients and so stay in ints, which are several times
cheaper to add and multiply than Fractions. int == Fraction and their
hashes agree, so equality, and the text, LaTeX and JSON output, do not
depend on which of the two a coefficient is.

Every polynomial here is a TermRing: a dict .terms from monomial key to
nonzero coefficient, with the ring arithmetic written once in the base
class. A ring class supplies only its keys, through four hooks:

  key_mul   multiplies two keys (a staticmethod)
  unit_key  the key of the constant monomial
  _key      checks and normalises one key given to the constructor, and
            raises ValueError on a bad one, whatever its coefficient
  _new      builds a value from a dict that is already reduced (no zero
            coefficients, every key checked), without checking it again

and its own __add__ and __mul__ from _ring_ops (see below). From these
TermRing builds the rest once: zero() as _new({}), one() as
_new({unit_key: 1}), and a repr through render_text, which QPoly and
MultiPoly replace with their own renderers. MultiPoly, whose unit key
depends on its nvars, replaces zero() and one() with zero(nvars) and
one(nvars). NCPoly, CPoly and QPoly keep TermRing's constructor, which
takes a term dict (MultiPoly's takes nvars first): a constant is
QPoly({0: c}) or QPoly.one() * c, and QPoly(c), or any other argument
that is not a dict, is a TypeError.

Input is checked once, where it enters. The constructor checks every key
with _key and every coefficient with _coeff. NCPoly.letter, CPoly.letter
and qint check their own arguments, with the errors the constructor would
raise (the letter first, then the coefficient), and build their term dict
with _new; the q-count of ncbell.partitions and every ring operation do
the same, their terms being checked already. A bool is an int but not a
letter: check_letter, check_mono and CPoly.letter refuse it, and a
commutative JSON or text word has its letters checked before they merge
into a monomial. CPoly.evaluate checks each letter's value once per call.

The rings built on it are

  NCPoly  free associative algebra, key a reduced word
  CPoly   commutative polynomials, key a monomial: a tuple of (index,
          exponent) pairs sorted by index; only index 1 may carry a
          negative exponent
  QPoly   polynomials in a single variable q, key the power of q, used by
          the q-analogs

and ncbell.series.MultiPoly, polynomials in x1..xm keyed by exponent
vectors. A scalar (int or Fraction) is lifted to a constant at unit_key
on either side of +, -, * and ==; any other operand is NotImplemented.
Every scalar commutes with every polynomial, so a right product is the
left one: each ring class binds __radd__, __rmul__ = __add__, __mul__
in its own body.

Each ring class binds its own __add__ and __mul__: fresh copies of one
shared source, made by _ring_ops. The benchmark's span tracer
(perfbench/tracer.py) looks a traced method up in the class's own
namespace and rebinds every namespace that holds the same function
object, so a method inherited from TermRing, or one function shared by
all rings, would be traced under one ring's name for all of them. The
copies test for an operand of the same ring before anything else and
call no helper per product, which keeps the tens of thousands of tiny
products of the Bell kernel as cheap as a hand-written loop. In every
ring u*v is injective in each factor (reduced words with d1^{-1},
Laurent monomials, q-powers, exponent vectors), so a product with a
one-term operand is one dict comprehension: no two terms meet and no
zero arises. An integer polynomial times a Fraction p/q builds one
Fraction(c*p, q) per term.

The module also holds the q-integer helpers and the one term format that
every text and LaTeX renderer in the package writes through. term(mag,
body) writes one unsigned term: a bare constant when the body is empty,
the body alone when the magnitude is 1, and otherwise "3*body" in text or
"3 body" in LaTeX, where a non-integer magnitude becomes \\frac{p}{q}.
signed_sum takes (coefficient, body) pairs in display order and joins
their terms as "a - b + c", or "0" when there are none. The polynomial,
q-polynomial, tensor, tree, multivariate and series renderers only choose
the bodies and their order.

NCPoly and CPoly each carry a monomial-key codec, so that code built on
top of them (the bialgebras in ncbell.hopf and ncbell.mobius) never looks
inside a key: letter_key(i) gives the key of one letter, key_mul
multiplies two keys, key_letters lists the letters of a key, key_of(cls,
letters) builds the key back from them, and from_key turns a key into a
polynomial. The empty tuple, also letter_key(0), is the unit key of both
rings. Each binds its own copy of one substitute, over key_letters; it
carries a term's product as one key and one coefficient while every image
met has one term, as the d_j -> j! d_j of bell_scaled does, and from the
first image with more or fewer terms multiplies through the ring product.

The package's one variant table VARIANTS maps "nc" and "dfdb" to NCPoly,
"c" and "fdb" to CPoly; ring(variant, names) looks a name up, and a
ring's tag ("nc" or "c") names it back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm

INV = -1  # the letter d1^{-1}
_INT = frozenset((int,))  # the coefficient type of an integer polynomial


def _coeff(x) -> int | Fraction:
    """An exact coefficient: a Fraction as given, an int as a plain int (a
    bool becomes 0 or 1); anything else, a float in particular, is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"coefficient must be Fraction or int, got {type(x).__name__}")


def exact_div(a, b) -> int | Fraction:
    """a / b for exact coefficients: an int when both are ints and b divides
    a, else a Fraction. Plain / on two ints would give a float."""
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return Fraction(a) / b


def common_denominator(values) -> tuple:
    """A sequence of exact scalars (ints or Fractions) as integer numerators
    over one denominator: (nums, d) with values[i] == nums[i] / d, where d
    is the lcm of their denominators (1 for an empty sequence). Exact
    kernels work on nums in ints and build one Fraction per result."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def add_into(acc: dict, terms: dict) -> None:
    """Add the term dict terms into acc in place, dropping cancelled keys."""
    for k, c in terms.items():
        s = acc.get(k, 0) + c
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


# ---------------------------------------------------------------------------
# the shared term-dict ring


class TermRing:
    """A polynomial as a dict .terms from key to nonzero exact coefficient.

    Subclasses set key_mul and unit_key, define _key, and bind
    ``__add__, __mul__ = _ring_ops()`` and
    ``__radd__, __rmul__ = __add__, __mul__`` in their body.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is not None and not isinstance(terms, dict):
            raise TypeError(f"{type(self).__name__} takes a term dict {{key: coefficient}}, "
                            f"got {type(terms).__name__}")
        acc: dict = {}
        if terms:
            key = self._key
            for k, c in terms.items():
                c = _coeff(c)
                k = key(k)
                if c:
                    acc[k] = acc.get(k, 0) + c
            acc = {k: c for k, c in acc.items() if c}
        self.terms = acc

    @classmethod
    def _new(cls, terms: dict):
        out = object.__new__(cls)
        out.terms = terms
        return out

    def _lift(self, other):
        """other in this ring: itself when it is of this ring, a scalar as a
        constant; NotImplemented otherwise."""
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return self._new({self.unit_key: c} if c else {})
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its coefficient, and zero equals 0, so each
        # hashes as that scalar
        if self.terms.keys() <= {self.unit_key}:
            return hash(self.terms.get(self.unit_key, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def one(cls):
        return cls._new({cls.unit_key: 1})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({render_text(self)!r})"


def _ring_ops():
    """Fresh (__add__, __mul__) functions for one TermRing class; see the
    module docstring for why every class needs its own pair."""

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self.terms)
        add_into(out, other.terms)
        return self._new(out)

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _coeff(other)
            if not c:
                return self._new({})
            terms = self.terms
            if type(c) is Fraction and _INT.issuperset(map(type, terms.values())):
                num, den = c.numerator, c.denominator
                return self._new({k: Fraction(cc * num, den) for k, cc in terms.items()})
            return self._new({k: cc * c for k, cc in terms.items()})
        key_mul = self.key_mul
        a, b = self.terms, other.terms
        # u*v is injective in either factor, so a one-term operand gives
        # distinct keys and no zero: one comprehension, in double-loop order
        if len(b) == 1:
            ((v, cv),) = b.items()
            return self._new({key_mul(u, v): cu * cv for u, cu in a.items()})
        if len(a) == 1:
            ((u, cu),) = a.items()
            return self._new({key_mul(u, v): cu * cv for v, cv in b.items()})
        acc: dict = {}
        for u, cu in a.items():
            for v, cv in b.items():
                w = key_mul(u, v)
                s = acc.get(w, 0) + cu * cv
                if s:
                    acc[w] = s
                elif w in acc:
                    del acc[w]
        return self._new(acc)

    return __add__, __mul__


def _substitute_op():
    """A fresh substitute for NCPoly or CPoly, one per class as in _ring_ops."""

    def substitute(self, mapping: dict):
        """Replace each letter i by mapping[i] multiplicatively: a polynomial
        of this ring, or a scalar (int or Fraction) taken as a constant.

        Every letter occurring in self must have an image; inverted letters
        are rejected since a general image has no inverse here. An image of
        any other type raises the TypeError of the ring product. Each image
        is looked up once. A term's product is carried as one key and one
        coefficient while its images have one term each, and multiplied
        through the ring product from the first image with more or fewer
        terms.
        """
        cls = type(self)
        key_mul, key_letters, unit = cls.key_mul, cls.key_letters, cls.unit_key
        images: dict = {}  # letter -> (image, its one (key, coeff) pair or None)
        acc: dict = {}
        for key, c in self.terms.items():
            head, factor = unit, None  # the product so far is c*head until factor holds it
            for letter in key_letters(key):
                image = images.get(letter)
                if image is None:
                    if letter == INV:
                        raise ValueError("substitute does not accept inverted letters")
                    if letter not in mapping:
                        raise ValueError(f"no image for letter {letter}")
                    image = mapping[letter]
                    if type(image) is not cls:
                        image = cls.one() * image
                    terms = image.terms
                    pair = next(iter(terms.items())) if len(terms) == 1 else None
                    image = images[letter] = (image, pair)
                image, pair = image
                if factor is None:
                    if pair is not None:
                        head = key_mul(head, pair[0])
                        c = c * pair[1]
                        continue
                    factor = cls._new({head: c})
                factor = factor * image
            if factor is not None:
                add_into(acc, factor.terms)
                continue
            s = acc.get(head, 0) + c
            if s:
                acc[head] = s
            elif head in acc:
                del acc[head]
        return cls._new(acc)

    return substitute


def key_of(cls, letters) -> tuple:
    """The key of the product of letters, in order, in the ring class cls:
    the inverse of cls.key_letters. The letter 0 is the unit."""
    key_mul, letter_key = cls.key_mul, cls.letter_key
    key = cls.unit_key
    for i in letters:
        key = key_mul(key, letter_key(i))
    return key


# ---------------------------------------------------------------------------
# free associative polynomials


def check_letter(letter: int) -> None:
    """ValueError unless letter is an index i >= 1 or INV; a bool is not a
    letter, though it is an int."""
    if type(letter) is bool or not isinstance(letter, int) or (letter < 1 and letter != INV):
        raise ValueError(f"bad letter {letter!r}: need index >= 1, or -1 for d1^-1")


def word_mul(u: tuple, v: tuple) -> tuple:
    """Concatenate two reduced words, cancelling d1 d1^{-1} pairs at the seam."""
    if not u or not v or u[-1] != -v[0] or abs(v[0]) != 1:
        return u + v
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == -v[j] and abs(u[i - 1]) == 1:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def check_word(word: tuple) -> None:
    for letter in word:
        check_letter(letter)
    for a, b in zip(word, word[1:]):
        if abs(a) == 1 and a == -b:
            raise ValueError(f"word {word!r} is not reduced")


class NCPoly(TermRing):
    """Element of the free associative algebra on d1, d2, ... over Q."""

    __slots__ = ()
    tag = "nc"
    __add__, __mul__ = _ring_ops()
    __radd__, __rmul__ = __add__, __mul__
    substitute = _substitute_op()

    @staticmethod
    def _key(word) -> tuple:
        word = tuple(word)
        check_word(word)
        return word

    @classmethod
    def letter(cls, i: int, coeff=1) -> "NCPoly":
        check_letter(i)
        c = _coeff(coeff)
        return cls._new({(i,): c} if c else {})

    @classmethod
    def from_word(cls, word, coeff=1) -> "NCPoly":
        return cls({tuple(word): coeff})

    # monomial-key codec: a key is a reduced word
    unit_key = ()
    from_key = from_word
    key_mul = staticmethod(word_mul)
    key_letters = staticmethod(tuple)

    @staticmethod
    def letter_key(i: int) -> tuple:
        """Key of the letter d_i (INV for d1^{-1}); i = 0 gives the unit key."""
        return (i,) if i else ()

    def coefficient(self, word) -> int | Fraction:
        return self.terms.get(tuple(word), 0)

    def derive(self) -> "NCPoly":
        """The derivation sending each d_i to d_{i+1}, extended by Leibniz."""
        acc: dict = {}
        for w, c in self.terms.items():
            if INV in w:
                raise ValueError("derive does not accept inverted letters")
            letters = list(w)
            for pos, letter in enumerate(w):
                letters[pos] = letter + 1
                nw = tuple(letters)
                letters[pos] = letter
                s = acc.get(nw, 0) + c
                if s:
                    acc[nw] = s
                elif nw in acc:
                    del acc[nw]
        return NCPoly._new(acc)

    def abelianize(self) -> "CPoly":
        acc: dict = {}
        for w, c in self.terms.items():
            m = mono_from_word(w)
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            elif m in acc:
                del acc[m]
        return CPoly._new(acc)


# ---------------------------------------------------------------------------
# commutative polynomials


def mono_from_word(word: tuple) -> tuple:
    exps: dict = {}
    for letter in word:
        idx = 1 if letter == INV else letter
        exps[idx] = exps.get(idx, 0) + (-1 if letter == INV else 1)
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """The product of two monomials: one merge of their sorted pairs."""
    if not m1 or not m2:
        return m1 or m2
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif a[0] > b[0]:
            out.append(b)
            j += 1
        else:
            e = a[1] + b[1]
            if e:
                out.append((a[0], e))
            i += 1
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _word_of_mono(m: tuple) -> tuple:
    """The letters of a monomial in index order, INV for each d1^{-1}."""
    out = []
    for i, e in m:
        out.extend([INV if (i == 1 and e < 0) else i] * abs(e))
    return tuple(out)


def check_mono(m: tuple) -> None:
    last = 0
    for i, e in m:
        if type(i) is bool or not isinstance(i, int) or i < 1:
            raise ValueError(f"bad index {i!r} in monomial")
        if i <= last:
            raise ValueError(f"monomial {m!r} not sorted by index")
        if e == 0 or (e < 0 and i != 1):
            raise ValueError(f"bad exponent {e} for index {i}")
        last = i


def mono_length(m: tuple) -> int:
    """Total number of letters, counting an inverted d1 as one letter."""
    return sum(abs(e) for _, e in m)


class CPoly(TermRing):
    """Element of the commutative polynomial ring in d1, d2, ... over Q."""

    __slots__ = ()
    tag = "c"
    __add__, __mul__ = _ring_ops()
    __radd__, __rmul__ = __add__, __mul__
    substitute = _substitute_op()

    @staticmethod
    def _key(m) -> tuple:
        m = tuple(tuple(p) for p in m)
        check_mono(m)
        return m

    @classmethod
    def letter(cls, i: int, coeff=1) -> "CPoly":
        if type(i) is bool or not isinstance(i, int) or i < 1:
            raise ValueError(f"bad letter index {i!r}")
        c = _coeff(coeff)
        return cls._new({((i, 1),): c} if c else {})

    @classmethod
    def from_mono(cls, m, coeff=1) -> "CPoly":
        return cls({tuple(m): coeff})

    # monomial-key codec: a key is a sorted tuple of (index, exponent) pairs
    unit_key = ()
    from_key = from_mono
    key_mul = staticmethod(mono_mul)
    key_letters = staticmethod(_word_of_mono)

    @staticmethod
    def letter_key(i: int) -> tuple:
        """Key of the letter d_i (INV for d1^{-1}); i = 0 gives the unit key."""
        if i == 0:
            return ()
        return ((1, -1),) if i == INV else ((i, 1),)

    def derive(self) -> "CPoly":
        """Commutative shadow of the derivation: d_i^e -> e d_i^{e-1} d_{i+1}."""
        acc: dict = {}
        for m, c in self.terms.items():
            last = len(m) - 1
            for pos, (i, e) in enumerate(m):
                if e < 0:
                    raise ValueError("derive does not accept inverted letters")
                # splice d_i^{e-1} d_{i+1}^{f+1} into the sorted monomial; a
                # d_{i+1}^f with f > 0 can only be the next pair
                head = m[:pos] + ((i, e - 1),) if e > 1 else m[:pos]
                if pos < last and m[pos + 1][0] == i + 1:
                    nm = head + ((i + 1, m[pos + 1][1] + 1),) + m[pos + 2 :]
                else:
                    nm = head + ((i + 1, 1),) + m[pos + 1 :]
                s = acc.get(nm, 0) + c * e
                if s:
                    acc[nm] = s
                elif nm in acc:
                    del acc[nm]
        return CPoly._new(acc)

    def evaluate(self, values: dict) -> int | Fraction:
        """Plug a Fraction (or int) in for every letter. Each letter's value
        is checked once per call, the first time a term needs it."""
        checked: dict = {}
        total = 0
        for m, c in self.terms.items():
            prod = c
            for i, e in m:
                if i in checked:
                    v = checked[i]
                elif i in values:
                    v = checked[i] = _coeff(values[i])
                else:
                    raise ValueError(f"no value for letter {i}")
                prod = prod * v**e if e > 0 else exact_div(prod, v**-e)
            total += prod
        return total


# ---------------------------------------------------------------------------
# the variant table

VARIANTS = {"nc": NCPoly, "dfdb": NCPoly, "c": CPoly, "fdb": CPoly}


def ring(variant: str, names=("nc", "c")):
    """The ring class of a variant name; ValueError when the name is not one
    of names, by default the d-alphabet ones."""
    if variant not in names:
        raise ValueError(f"unknown variant {variant!r}, expected one of {', '.join(names)}")
    return VARIANTS[variant]


# ---------------------------------------------------------------------------
# polynomials in q


class QPoly(TermRing):
    """Polynomial in q with exact coefficients, dict power -> coefficient."""

    __slots__ = ()
    __add__, __mul__ = _ring_ops()
    __radd__, __rmul__ = __add__, __mul__
    unit_key = 0
    key_mul = staticmethod(int.__add__)

    @staticmethod
    def _key(p) -> int:
        if not isinstance(p, int) or p < 0:
            raise ValueError(f"bad q power {p!r}")
        return p

    @classmethod
    def q(cls, power: int = 1) -> "QPoly":
        return cls({power: 1})

    def degree(self) -> int:
        return max(self.terms, default=-1)

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        if not other:
            raise ValueError("division by zero polynomial")
        rem = dict(self.terms)
        dden = other.degree()
        lead = other.terms[dden]
        quot: dict = {}
        while rem:
            dnum = max(rem)
            if dnum < dden:
                raise ValueError("non-exact q-polynomial division")
            shift = dnum - dden
            factor = exact_div(rem[dnum], lead)
            quot[shift] = factor
            for p, c in other.terms.items():
                pp = p + shift
                s = rem.get(pp, 0) - factor * c
                if s:
                    rem[pp] = s
                elif pp in rem:
                    del rem[pp]
        return QPoly._new(quot)

    def evaluate(self, q) -> int | Fraction:
        q = _coeff(q)
        return sum(c * q**p for p, c in self.terms.items())

    def __repr__(self) -> str:
        return f"QPoly({render_qpoly(self)!r})"


def qint(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^{n-1}."""
    if n < 0:
        raise ValueError("qint needs n >= 0")
    return QPoly._new({i: 1 for i in range(n)})


_QFACTORIAL: list = []  # _QFACTORIAL[n] = [n]_q!, extended on demand


def qfactorial(n: int) -> QPoly:
    """[n]_q! = [1]_q [2]_q ... [n]_q (1 for n <= 0). The products are
    memoised as a prefix list; every call returns a new QPoly, so changing
    it leaves the memo alone."""
    memo = _QFACTORIAL
    if not memo:
        memo.append(QPoly.one())
    while len(memo) <= n:
        memo.append(memo[-1] * qint(len(memo)))
    return QPoly._new(dict(memo[max(n, 0)].terms))


_QBINOMIAL: dict = {}  # (n, k) -> the term dict of [n k]_q


def qbinomial(n: int, k: int) -> QPoly:
    """[n k]_q = [n]_q! / ([k]_q! [n-k]_q!) (0 unless 0 <= k <= n). Each
    quotient is memoised as a term dict; every call returns a new QPoly,
    so changing it leaves the memo alone."""
    if k < 0 or k > n:
        return QPoly.zero()
    terms = _QBINOMIAL.get((n, k))
    if terms is None:
        terms = _QBINOMIAL[n, k] = qfactorial(n).divexact(qfactorial(k) * qfactorial(n - k)).terms
    return QPoly._new(dict(terms))


# ---------------------------------------------------------------------------
# rendering and serialization

# Canonical term order (used for JSON serialization): ascending word length,
# then lexicographic on the letter sequence with d1^{-1} sorting just before
# d1. Text and LaTeX display the reverse of that, which is what puts the
# n = 3 table in its familiar shape: d1^3 + d2*d1 + 2*d1*d2 + d3.


def _sorted_terms(p):
    if not isinstance(p, (NCPoly, CPoly)):
        raise TypeError(f"cannot render {type(p).__name__}")
    letters = p.key_letters
    items = [(letters(k), c) for k, c in p.terms.items()]
    # INV = -1 is the only letter below 1, so the words compare as they are
    items.sort(key=lambda wc: (len(wc[0]), wc[0]))
    return items


def _script(mark: str, v: int, latex: bool) -> str:
    """An index or exponent after its mark, braced in LaTeX unless one digit."""
    return f"{mark}{{{v}}}" if latex and not 0 <= v <= 9 else f"{mark}{v}"


def _word(word: tuple, symbol: str, latex: bool) -> str:
    """A word as powers of its letter runs: d1^2*d3 in text, d_1^2 d_3 in
    LaTeX; a run of d1^{-1} is a negative power of d1."""
    parts = []
    for letter, run in groupby(word):
        count = sum(1 for _ in run)
        idx, exp = (1, -count) if letter == INV else (letter, count)
        part = symbol + _script("_" if latex else "", idx, latex)
        parts.append(part if exp == 1 else part + _script("^", exp, latex))
    return (" " if latex else "*").join(parts)


def join_signed(chunks) -> str:
    """Join (negative, text) pairs as "a - b + c"; "0" when there are none."""
    if not chunks:
        return "0"
    out = [("-" if chunks[0][0] else "") + chunks[0][1]]
    out.extend((" - " if neg else " + ") + s for neg, s in chunks[1:])
    return "".join(out)


def term(mag, body: str, latex: bool = False) -> str:
    """One unsigned term mag * body; see the module docstring."""
    if body and mag == 1:
        return body
    if latex and mag.denominator != 1:
        coeff = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
    else:
        coeff = str(mag)
    if not body:
        return coeff
    return f"{coeff} {body}" if latex else f"{coeff}*{body}"


def signed_sum(pairs, latex: bool = False) -> str:
    """(coefficient, body) pairs in display order as "a - b + c"; "0" when
    there are none."""
    return join_signed([(c < 0, term(abs(c), body, latex)) for c, body in pairs])


def render_text(p, symbol: str = "d") -> str:
    return signed_sum((c, _word(w, symbol, False)) for w, c in reversed(_sorted_terms(p)))


def render_latex(p, symbol: str = "d") -> str:
    return signed_sum(
        ((c, _word(w, symbol, True)) for w, c in reversed(_sorted_terms(p))), latex=True
    )


def render_qpoly(p: QPoly) -> str:
    return signed_sum(
        (p.terms[k], "" if k == 0 else "q" if k == 1 else f"q^{k}") for k in sorted(p.terms)
    )


def to_json_dict(p, algebra: str | None = None) -> dict:
    """Structured form: {"algebra": ..., "terms": [{"coeff": "p/q", "word": [...]}]}.

    Words are flat letter lists with -1 encoding d1^{-1}; commutative
    monomials are expanded to their sorted letter list.
    """
    terms = _sorted_terms(p)  # before p.tag: a TypeError for a ring it cannot render
    return {
        "algebra": p.tag if algebra is None else algebra,
        "terms": [{"coeff": str(c), "word": list(word)} for word, c in terms],
    }


def _parse_coeff(text: str | int) -> int | Fraction:
    """A coefficient read from its text, e.g. "3" or "-1/2", or from a JSON
    int: an int when it is integral, since no division has happened. Any
    other value, a JSON float in particular, is a ValueError."""
    if not isinstance(text, (str, int)):
        raise ValueError(f"coefficient must be text or an int, got {type(text).__name__}")
    c = Fraction(text)
    return c.numerator if c.denominator == 1 else c


def _from_words(pieces, commutative: bool):
    """The sum of c * word over the (word, c) pairs, in CPoly or NCPoly.
    A commutative word's letters are checked one by one before they are
    merged into a monomial, where a 1 would absorb a True or a 1.0."""
    cls = CPoly if commutative else NCPoly
    acc: dict = {}
    for word, c in pieces:
        if commutative:
            for letter in word:
                check_letter(letter)
            word = mono_from_word(word)
        add_into(acc, cls.from_key(word, c).terms)
    return cls._new(acc)


def from_json_dict(d: dict):
    algebra = d["algebra"]
    if algebra not in ("nc", "b-symbols", "c"):
        raise ValueError(f"unknown algebra tag {algebra!r}")
    pieces = ((tuple(t["word"]), _parse_coeff(t["coeff"])) for t in d["terms"])
    return _from_words(pieces, algebra == "c")


def parse_text(s: str, symbol: str = "d", commutative: bool = False):
    """Inverse of render_text on its own output, e.g. 'd1^3 + d2*d1 - 1/2*d3'."""
    s = s.strip()
    if s == "0":
        return CPoly.zero() if commutative else NCPoly.zero()
    pieces = []
    for chunk in s.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        tsign = 1
        if chunk.startswith("-"):
            tsign = -1
            chunk = chunk[1:].strip()
        coeff = 1
        word = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor.startswith(symbol):
                coeff *= _parse_coeff(factor)
                continue
            body = factor[len(symbol):]
            if "^" in body:
                idxs, exps = body.split("^")
                idx, exp = int(idxs), int(exps)
            else:
                idx, exp = int(body), 1
            if exp < 0:
                if idx != 1:
                    raise ValueError(f"negative power on {symbol}{idx}")
                word.extend([INV] * (-exp))
            else:
                word.extend([idx] * exp)
        pieces.append((tuple(word), coeff * tsign))
    return _from_words(pieces, commutative)
