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

Each ring class binds its own __add__ and __mul__: fresh copies of one
shared source, made by _ring_ops. The benchmark's span tracer
(perfbench/tracer.py) looks a traced method up in the class's own
namespace and rebinds every namespace that holds the same function
object, so a method inherited from TermRing, or one function shared by
all rings, would be traced under one ring's name for all of them. The
copies test for an operand of the same ring before anything else and
call no helper per product, which keeps the tens of thousands of tiny
products of the Bell kernel as cheap as a hand-written loop.

The module also holds the q-integer helpers and the text / LaTeX / JSON
renderers shared by the command line front end.

NCPoly and CPoly each carry a monomial-key codec, so that code built on
top of them (the bialgebras in ncbell.hopf and ncbell.mobius) never looks
inside a key: letter_key(i) gives the key of one letter, key_mul
multiplies two keys, key_letters lists the letters of a key and from_key
turns a key back into a polynomial. The empty tuple is the unit key of
both rings.
"""

from __future__ import annotations

from fractions import Fraction

INV = -1  # the letter d1^{-1}


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
    ``__add__, __mul__ = _ring_ops(); __radd__ = __add__`` in their body.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def map_coeffs(self, f):
        return self._new({k: fc for k, c in self.terms.items() if (fc := f(c))})


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
            return self._new({k: cc * c for k, cc in self.terms.items()} if c else {})
        key_mul = self.key_mul
        acc: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = key_mul(u, v)
                s = acc.get(w, 0) + cu * cv
                if s:
                    acc[w] = s
                elif w in acc:
                    del acc[w]
        return self._new(acc)

    return __add__, __mul__


# ---------------------------------------------------------------------------
# free associative polynomials


def check_letter(letter: int) -> None:
    if not isinstance(letter, int) or (letter < 1 and letter != INV):
        raise ValueError(f"bad letter {letter!r}: need index >= 1, or -1 for d1^-1")


def word_mul(u: tuple, v: tuple) -> tuple:
    """Concatenate two reduced words, cancelling d1 d1^{-1} pairs at the seam."""
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
    __add__, __mul__ = _ring_ops()
    __radd__ = __add__

    @staticmethod
    def _key(word) -> tuple:
        word = tuple(word)
        check_word(word)
        return word

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): 1})

    @classmethod
    def letter(cls, i: int, coeff=1) -> "NCPoly":
        check_letter(i)
        return cls({(i,): coeff})

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

    def substitute(self, mapping: dict) -> "NCPoly":
        """Replace each letter i by mapping[i] (an NCPoly), multiplicatively.

        Every letter occurring in self must have an image; inverted letters
        are rejected since a general image has no inverse here.
        """
        acc: dict = {}
        for w, c in self.terms.items():
            factor = NCPoly.one()
            for letter in w:
                if letter == INV:
                    raise ValueError("substitute does not accept inverted letters")
                if letter not in mapping:
                    raise ValueError(f"no image for letter {letter}")
                factor = factor * mapping[letter]
            add_into(acc, (factor * c).terms)
        return NCPoly._new(acc)

    def restrict_length(self, k: int) -> "NCPoly":
        """Keep only the words of length exactly k."""
        return NCPoly._new({w: c for w, c in self.terms.items() if len(w) == k})

    def __repr__(self) -> str:
        return f"NCPoly({render_text(self)!r})"


# ---------------------------------------------------------------------------
# commutative polynomials


def mono_from_word(word: tuple) -> tuple:
    exps: dict = {}
    for letter in word:
        idx = 1 if letter == INV else letter
        exps[idx] = exps.get(idx, 0) + (-1 if letter == INV else 1)
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    exps = dict(m1)
    for i, e in m2:
        s = exps.get(i, 0) + e
        if s:
            exps[i] = s
        elif i in exps:
            del exps[i]
    return tuple(sorted(exps.items()))


def _word_of_mono(m: tuple) -> tuple:
    """The letters of a monomial in index order, INV for each d1^{-1}."""
    out = []
    for i, e in m:
        out.extend([INV if (i == 1 and e < 0) else i] * abs(e))
    return tuple(out)


def check_mono(m: tuple) -> None:
    last = 0
    for i, e in m:
        if not isinstance(i, int) or i < 1:
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
    __add__, __mul__ = _ring_ops()
    __radd__ = __add__

    @staticmethod
    def _key(m) -> tuple:
        m = tuple(tuple(p) for p in m)
        check_mono(m)
        return m

    @classmethod
    def zero(cls) -> "CPoly":
        return cls()

    @classmethod
    def one(cls) -> "CPoly":
        return cls({(): 1})

    @classmethod
    def letter(cls, i: int, coeff=1) -> "CPoly":
        if not isinstance(i, int) or i < 1:
            raise ValueError(f"bad letter index {i!r}")
        return cls({((i, 1),): coeff})

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

    def coefficient(self, m) -> int | Fraction:
        return self.terms.get(tuple(m), 0)

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

    def substitute(self, mapping: dict) -> "CPoly":
        acc: dict = {}
        for m, c in self.terms.items():
            factor = CPoly.one()
            for i, e in m:
                if i not in mapping:
                    raise ValueError(f"no image for letter {i}")
                if e < 0:
                    raise ValueError("substitute does not accept inverted letters")
                img = mapping[i]
                for _ in range(e):
                    factor = factor * img
            add_into(acc, (factor * c).terms)
        return CPoly._new(acc)

    def restrict_length(self, k: int) -> "CPoly":
        return CPoly._new({m: c for m, c in self.terms.items() if mono_length(m) == k})

    def evaluate(self, values: dict) -> int | Fraction:
        """Plug a Fraction (or int) in for every letter."""
        total = 0
        for m, c in self.terms.items():
            prod = c
            for i, e in m:
                if i not in values:
                    raise ValueError(f"no value for letter {i}")
                v = _coeff(values[i])
                prod = prod * v**e if e > 0 else exact_div(prod, v**-e)
            total += prod
        return total

    def __repr__(self) -> str:
        return f"CPoly({render_text(self)!r})"


# ---------------------------------------------------------------------------
# polynomials in q


class QPoly(TermRing):
    """Polynomial in q with exact coefficients, dict power -> coefficient."""

    __slots__ = ()
    __add__, __mul__ = _ring_ops()
    __radd__ = __add__
    unit_key = 0
    key_mul = staticmethod(int.__add__)

    def __init__(self, terms=None):
        super().__init__({0: terms} if isinstance(terms, (int, Fraction)) else terms)

    @staticmethod
    def _key(p) -> int:
        if not isinstance(p, int) or p < 0:
            raise ValueError(f"bad q power {p!r}")
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

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
    return QPoly({i: 1 for i in range(n)})


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


def qbinomial(n: int, k: int) -> QPoly:
    if k < 0 or k > n:
        return QPoly.zero()
    return qfactorial(n).divexact(qfactorial(k) * qfactorial(n - k))


# ---------------------------------------------------------------------------
# rendering and serialization

# Canonical term order (used for JSON serialization): ascending word length,
# then lexicographic on the letter sequence with d1^{-1} sorting just before
# d1. Text and LaTeX display the reverse of that, which is what puts the
# n = 3 table in its familiar shape: d1^3 + d2*d1 + 2*d1*d2 + d3.


def _letter_value(letter: int) -> int:
    return 0 if letter == INV else letter


def _sorted_terms(p):
    if not isinstance(p, (NCPoly, CPoly)):
        raise TypeError(f"cannot render {type(p).__name__}")
    letters = p.key_letters
    items = [(letters(k), c) for k, c in p.terms.items()]
    items.sort(key=lambda wc: (len(wc[0]), tuple(_letter_value(x) for x in wc[0])))
    return items


def _runs(word: tuple):
    out = []
    for letter in word:
        if out and out[-1][0] == letter:
            out[-1][1] += 1
        else:
            out.append([letter, 1])
    return out


def _word_text(word: tuple, symbol: str, offset: int) -> str:
    parts = []
    for letter, count in _runs(word):
        if letter == INV:
            base, exp = f"{symbol}1", -count
        else:
            base, exp = f"{symbol}{letter + offset}", count
        parts.append(base if exp == 1 else f"{base}^{exp}")
    return "*".join(parts)


def _word_latex(word: tuple, symbol: str, offset: int) -> str:
    def sub(i):
        return f"_{i}" if 0 <= i <= 9 else f"_{{{i}}}"

    def sup(e):
        return "" if e == 1 else (f"^{e}" if 0 <= e <= 9 else f"^{{{e}}}")

    parts = []
    for letter, count in _runs(word):
        if letter == INV:
            parts.append(f"{symbol}{sub(1)}" + (f"^{{-{count}}}" if count > 1 else "^{-1}"))
        else:
            parts.append(f"{symbol}{sub(letter + offset)}{sup(count)}")
    return " ".join(parts)


def join_signed(chunks) -> str:
    """Join (negative, text) pairs as "a - b + c"; "0" when there are none."""
    if not chunks:
        return "0"
    out = [("-" if chunks[0][0] else "") + chunks[0][1]]
    out.extend((" - " if neg else " + ") + s for neg, s in chunks[1:])
    return "".join(out)


def _coeff_text(c: int | Fraction) -> str:
    return str(c)


def render_text(p, symbol: str = "d", offset: int = 0) -> str:
    items = list(reversed(_sorted_terms(p)))
    chunks = []
    for word, c in items:
        mag = abs(c)
        body = _word_text(word, symbol, offset)
        if not word:
            s = _coeff_text(mag)
        elif mag == 1:
            s = body
        else:
            s = f"{_coeff_text(mag)}*{body}"
        chunks.append((c < 0, s))
    return join_signed(chunks)


def render_latex(p, symbol: str = "d", offset: int = 0) -> str:
    items = list(reversed(_sorted_terms(p)))
    chunks = []
    for word, c in items:
        mag = abs(c)
        body = _word_latex(word, symbol, offset)
        if mag.denominator == 1:
            coeff = str(mag.numerator)
        else:
            coeff = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if not word:
            s = coeff
        elif mag == 1:
            s = body
        else:
            s = f"{coeff} {body}"
        chunks.append((c < 0, s))
    return join_signed(chunks)


def render_qpoly(p: QPoly) -> str:
    chunks = []
    for power in sorted(p.terms):
        c = p.terms[power]
        mag = abs(c)
        if power == 0:
            s = _coeff_text(mag)
        else:
            var = "q" if power == 1 else f"q^{power}"
            s = var if mag == 1 else f"{_coeff_text(mag)}*{var}"
        chunks.append((c < 0, s))
    return join_signed(chunks)


def to_json_dict(p, algebra: str | None = None) -> dict:
    """Structured form: {"algebra": ..., "terms": [{"coeff": "p/q", "word": [...]}]}.

    Words are flat letter lists with -1 encoding d1^{-1}; commutative
    monomials are expanded to their sorted letter list.
    """
    if algebra is None:
        algebra = "nc" if isinstance(p, NCPoly) else "c"
    return {
        "algebra": algebra,
        "terms": [
            {"coeff": str(c), "word": list(word)} for word, c in _sorted_terms(p)
        ],
    }


def _parse_coeff(text: str) -> int | Fraction:
    """A coefficient read from its text, e.g. "3" or "-1/2": an int when it
    is integral, since no division has happened."""
    c = Fraction(text)
    return c.numerator if c.denominator == 1 else c


def _from_words(pieces, commutative: bool):
    """The sum of c * word over the (word, c) pairs, in CPoly or NCPoly."""
    cls = CPoly if commutative else NCPoly
    acc: dict = {}
    for word, c in pieces:
        add_into(acc, cls.from_key(mono_from_word(word) if commutative else word, c).terms)
    return cls._new(acc)


def from_json_dict(d: dict):
    algebra = d["algebra"]
    if algebra not in ("nc", "b-symbols", "c"):
        raise ValueError(f"unknown algebra tag {algebra!r}")
    pieces = ((tuple(t["word"]), _parse_coeff(t["coeff"])) for t in d["terms"])
    return _from_words(pieces, algebra == "c")


def parse_text(s: str, symbol: str = "d", offset: int = 0, commutative: bool = False):
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
            idx -= offset
            if exp < 0:
                if idx != 1:
                    raise ValueError(f"negative power on {symbol}{idx + offset}")
                word.extend([INV] * (-exp))
            else:
                word.extend([idx] * exp)
        pieces.append((tuple(word), coeff * tsign))
    return _from_words(pieces, commutative)
