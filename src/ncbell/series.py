"""Truncated power series and polynomial vector-field flows, all exact.

FormalSeries holds raw t^n coefficients c_0..c_{N-1} (int or Fraction, or
CPoly or MultiPoly for series with polynomial coefficients; a float is
refused); the divided-power view f_n = n! c_n is computed on access.
Coefficients at or beyond the truncation order are undefined, never
assumed zero.

The series product is one plain loop that skips zero factors on either
side; it serves egf_bell_check (CPoly), and on int or Fraction input it
gives Fraction coefficients. compose and compose_via_bell take int and
Fraction coefficients only and work on integer numerators over one
denominator, with one Fraction per result coefficient: compose is Horner
evaluation with powers of g's denominator, and compose_via_bell takes each
B_{n,k} from bell_partial, which files B_n's terms by length once per n,
and sums f's numerators times B_{n,k} at g's numerators in ints.

The flow half of the module works over MultiPoly, exact multivariate
polynomials in x1..xm. A VectorField is a list of m components, optionally
time-dependent through the list F_1, F_2, ... of component lists, with
F_t = sum_j t^j/j! F_{j+1}. MultiPoly and VectorField read JSON
(from_json_dict) but do not write it.
bell_apply reads a word d_{j_1}...d_{j_k} as the operator composition
F_{j_1}[F_{j_2}[...F_{j_k}[psi]...]]: the leftmost letter acts outermost.
The opposite orientation silently passes every symmetric low-order check,
so it is worth stating twice: leftmost letter, outermost derivative.
flow_pullback_taylor is the independent oracle: it solves the flow ODE
with a symbolic base point, one divided t-coefficient after the other, and
never reads a Bell polynomial or a word. Both routes clear the field's
denominators once (D, the lcm over the components of F_1, F_2, ... that
they read) and psi's (Dp), run on polynomials with int coefficients, and
divide each result by Dp D^n once.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, factorial

from .algebra import (
    CPoly,
    TermRing,
    _coeff,
    _parse_coeff,
    _ring_ops,
    add_into,
    common_denominator,
    signed_sum,
)
from .bell import bell, bell_partial

_EXACT = frozenset((int, bool, Fraction))  # coefficient types of the integer kernel


def _convolve(a, b, order: int) -> list:
    """The first order coefficients of the product of two integer coefficient
    lists, b at least order long."""
    acc = [0] * order
    for i, x in enumerate(a):
        if x:
            for j in range(order - i):
                acc[i + j] += x * b[j]
    return acc


class FormalSeries:
    """Truncated series sum_{n < order} c_n t^n."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if not _EXACT.issuperset(map(type, coeffs)):
            for c in coeffs:
                if not isinstance(c, TermRing):
                    _coeff(c)  # a float or other inexact scalar: TypeError
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("order must be at least 1")
        if len(coeffs) < order:
            coeffs = coeffs + [Fraction(0)] * (order - len(coeffs))
        self.coeffs = coeffs[:order]
        self.order = order

    def coeff(self, n: int):
        if not 0 <= n < self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def divided(self, n: int):
        return self.coeff(n) * factorial(n)

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation {self.order} to {order}")
        return FormalSeries(self.coeffs[:order], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __add__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return FormalSeries([self.coeffs[n] + other.coeffs[n] for n in range(order)], order)

    def __sub__(self, other) -> "FormalSeries":
        if not isinstance(other, FormalSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return FormalSeries([self.coeffs[n] - other.coeffs[n] for n in range(order)], order)

    def __mul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            return FormalSeries([c * other for c in self.coeffs], self.order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self.coeffs[:order], other.coeffs[:order]
        out = [Fraction(0)] * order
        for i, x in enumerate(a):
            if x:
                for j in range(order - i):
                    if b[j]:
                        out[i + j] = out[i + j] + x * b[j]
        return FormalSeries(out, order)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FormalSeries":
        """The series of {"order": int, "coeffs": [...]}; ValueError for a
        value of another shape."""
        if not (isinstance(d, dict) and type(d.get("order")) is int
                and isinstance(d.get("coeffs"), list)):
            raise ValueError('a series must be a JSON object {"order": int, "coeffs": [...]}')
        return cls([_parse_coeff(c) for c in d["coeffs"]], d["order"])

    def __repr__(self) -> str:
        return f"FormalSeries({[str(c) for c in self.coeffs]})"


def compose(f: FormalSeries, g: FormalSeries, order: int | None = None) -> FormalSeries:
    """f(g(t)) through the given order, by Horner evaluation on int and
    Fraction coefficients (any other is a TypeError). With F = f df and
    G = g dg on integer numerators, the loop runs acc <- acc G +
    F_n dg^(N-1-n) in ints and divides by df dg^(N-1) once; at order 1 the
    result is f_0 as given."""
    if order is None:
        order = min(f.order, g.order)
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > f.order or order > g.order:
        raise ValueError("composition order exceeds a truncation order")
    fc, gc = f.coeffs[:order], g.coeffs[:order]
    if not _EXACT.issuperset(map(type, fc + gc)):
        raise TypeError("compose needs int or Fraction coefficients")
    if gc[0] != 0:
        raise ValueError("inner series must vanish at the origin")
    if order == 1:
        return FormalSeries(fc, 1)
    (F, df), (G, dg) = common_denominator(fc), common_denominator(gc)
    acc = [F[-1]]
    scale = 1
    for n in range(order - 2, -1, -1):
        acc = _convolve(acc, G, order)
        scale *= dg
        acc[0] += F[n] * scale
    den = df * scale
    return FormalSeries([Fraction(c, den) for c in acc], order)


def compose_via_bell(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f(g(t)) through min(f.order, g.order), with divided-power coefficients
    from the classical chain-rule expansion
    h_n = sum_k f_k B_{n,k}(g_1, ..., g_{n-k+1}), on int and Fraction
    coefficients (any other is a TypeError). B_{n,k} is homogeneous of
    degree k, so with f_k = F_k / df and g_i = G_i / d on integer
    numerators, h_n = sum_k F_k B_{n,k}(G) d^(n-k) / (df d^n): a sum of
    ints per order and one Fraction."""
    order = min(f.order, g.order)
    if g.coeff(0) != 0:
        raise ValueError("inner series must vanish at the origin")
    if not _EXACT.issuperset(map(type, f.coeffs[:order] + g.coeffs[:order])):
        raise TypeError("compose_via_bell needs int or Fraction coefficients")
    F, df = common_denominator([f.divided(k) for k in range(order)])
    G, d = common_denominator([g.divided(i) for i in range(1, order)])
    gvals = dict(enumerate(G, 1))
    coeffs = [Fraction(F[0], df)]
    for n in range(1, order):
        total = 0
        for k in range(1, n + 1):
            if F[k]:
                total += F[k] * bell_partial(n, k, "c").evaluate(gvals) * d ** (n - k)
        coeffs.append(Fraction(total, df * d**n * factorial(n)))
    return FormalSeries(coeffs, order)


def reversion(g: FormalSeries, order: int | None = None) -> FormalSeries:
    """The compositional inverse h with g(h(t)) = t, solved term by term."""
    if order is None:
        order = g.order
    if order > g.order:
        raise ValueError("reversion order exceeds the truncation order")
    if g.coeff(0) != 0:
        raise ValueError("series must vanish at the origin")
    g1 = g.coeff(1)
    if g1 == 0:
        raise ValueError("series must have invertible linear coefficient")
    h = [Fraction(0)] * order
    for m in range(1, order):
        partial = FormalSeries(h[: m + 1], m + 1)
        val = compose(g.truncate(m + 1), partial).coeff(m)
        target = Fraction(1) if m == 1 else Fraction(0)
        h[m] = (target - val) / g1
    return FormalSeries(h, order)


def egf_bell_check(max_n: int) -> list:
    """Compare n-th divided coefficients of exp(sum_m d_m t^m / m!) with the
    commutative Bell polynomials, for 1 <= n <= max_n. Returns the list of
    failing n, empty when the generating-function identity holds."""
    order = max_n + 1
    u = FormalSeries(
        [CPoly.zero()] + [CPoly.letter(m) * Fraction(1, factorial(m)) for m in range(1, order)],
        order,
    )
    exp_u = FormalSeries([CPoly.one()], order)
    upow = FormalSeries([CPoly.one()], order)
    for k in range(1, order):
        upow = upow * u
        exp_u = exp_u + upow * Fraction(1, factorial(k))
    failures = []
    for n in range(1, order):
        if exp_u.divided(n) != bell(n, "c"):
            failures.append(n)
    return failures


# ---------------------------------------------------------------------------
# multivariate polynomials and vector fields


def _exps_add(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(operator.add, e1, e2))


class MultiPoly(TermRing):
    """Polynomial in x1..xm over Q: dict exponent-tuple -> exact coefficient."""

    __slots__ = ("nvars",)
    key_mul = staticmethod(_exps_add)
    _add, _mul = _ring_ops()

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        super().__init__(terms)

    def _key(self, exps) -> tuple:
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for {self.nvars} variables")
        return exps

    def _new(self, terms: dict) -> "MultiPoly":
        out = object.__new__(MultiPoly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    @property
    def unit_key(self) -> tuple:
        return (0,) * self.nvars

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MultiPoly":
        """The coordinate x_{i+1} (i is 0-based)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def _same(self, other):
        if type(other) is MultiPoly and self.nvars != other.nvars:
            raise ValueError("dimension mismatch")

    # the shared ring operations, after a check that the dimensions agree;
    # constants of any nvars compare by their coefficient, as each equals it
    def __eq__(self, other) -> bool:
        if type(other) is MultiPoly and self.nvars != other.nvars:
            if other.terms.keys() - {other.unit_key}:
                return False
            other = other.terms.get(other.unit_key, 0)
        return TermRing.__eq__(self, other)

    def __hash__(self):
        # a constant hashes as its coefficient, whatever nvars, as it equals it
        h = TermRing.__hash__(self)
        return hash((self.nvars, h)) if self.terms.keys() - {self.unit_key} else h

    def __add__(self, other) -> "MultiPoly":
        self._same(other)
        return self._add(other)

    def __mul__(self, other) -> "MultiPoly":
        self._same(other)
        return self._mul(other)

    __radd__, __rmul__ = __add__, __mul__

    def partial(self, i: int) -> "MultiPoly":
        """Derivative with respect to x_{i+1} (i is 0-based)."""
        acc: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            acc[ne] = acc.get(ne, 0) + c * e[i]
        return self._new({e: c for e, c in acc.items() if c})

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultiPoly":
        """The polynomial of {"nvars": int, "terms": [{"coeff": ..., "exponents":
        [int, ...]}, ...]}; ValueError for a value of another shape."""
        if not (isinstance(d, dict) and type(d.get("nvars")) is int
                and isinstance(d.get("terms"), list)
                and all(isinstance(t, dict) and "coeff" in t
                        and isinstance(t.get("exponents"), list)
                        and all(type(e) is int for e in t["exponents"])
                        for t in d["terms"])):
            raise ValueError('a polynomial must be a JSON object {"nvars": int, "terms": '
                             '[{"coeff": ..., "exponents": [int, ...]}, ...]}')
        return cls(
            d["nvars"],
            {tuple(t["exponents"]): _parse_coeff(t["coeff"]) for t in d["terms"]},
        )

    def __repr__(self) -> str:
        return f"MultiPoly({render_multipoly(self)!r})"


def render_multipoly(p: MultiPoly) -> str:
    return signed_sum(
        (c, "*".join(f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k))
        for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    )


class VectorField:
    """Polynomial vector field on m variables.

    time_coefficients, when given, is the truncated list F_1, F_2, ... of
    component lists, with F_t = sum_j t^j/j! F_{j+1}. Without it the field
    is autonomous and exact in t, so flows may be expanded to any order.
    """

    __slots__ = ("nvars", "components", "time_coefficients", "exact")

    def __init__(self, nvars: int, components, time_coefficients=None):
        self.nvars = nvars
        self.components = self._normalize(components)
        if time_coefficients is None:
            self.time_coefficients = [self.components]
            self.exact = True
        else:
            self.time_coefficients = [self._normalize(f) for f in time_coefficients]
            self.exact = False
            if self.time_coefficients and self.time_coefficients[0] != self.components:
                raise ValueError("components must agree with the first time coefficient")

    def _normalize(self, components):
        components = list(components)
        if len(components) != self.nvars:
            raise ValueError(f"need {self.nvars} components, got {len(components)}")
        for p in components:
            if not isinstance(p, MultiPoly) or p.nvars != self.nvars:
                raise ValueError("components must be MultiPoly over the same variables")
        return components

    def time_order(self) -> int:
        return len(self.time_coefficients)

    def field(self, j: int):
        """Component list of F_j (1-based); zero beyond the stored range."""
        if j < 1:
            raise ValueError("time coefficient index starts at 1")
        if j <= len(self.time_coefficients):
            return self.time_coefficients[j - 1]
        return [MultiPoly.zero(self.nvars)] * self.nvars

    @classmethod
    def from_json_dict(cls, d: dict) -> "VectorField":
        """The field of {"nvars": int, "time_coefficients": [[polynomial, ...],
        ...]}, with an optional boolean "exact" (by default true for one time
        coefficient, which an exact field must have); ValueError for a value
        of another shape."""
        if not (isinstance(d, dict) and type(d.get("nvars")) is int
                and isinstance(d.get("time_coefficients"), list) and d["time_coefficients"]
                and all(isinstance(comps, list) for comps in d["time_coefficients"])):
            raise ValueError('a vector field must be a JSON object {"nvars": int, '
                             '"time_coefficients": [[polynomial, ...], ...]}')
        tcs = [
            [MultiPoly.from_json_dict(p) for p in comps] for comps in d["time_coefficients"]
        ]
        exact = d.get("exact", len(tcs) == 1)
        if type(exact) is not bool:
            raise ValueError('a vector field\'s "exact" must be true or false')
        if exact:
            if len(tcs) != 1:
                raise ValueError("an exact vector field has one time coefficient")
            return cls(d["nvars"], tcs[0])
        return cls(d["nvars"], tcs[0], tcs)


def _add_multiple(acc: dict, p: MultiPoly, c: int) -> None:
    """acc += c * p on term dicts, dropping cancelled keys."""
    for e, x in p.terms.items():
        s = acc.get(e, 0) + c * x
        if s:
            acc[e] = s
        elif e in acc:
            del acc[e]


def _over(p: MultiPoly, den: int) -> MultiPoly:
    """p / den with one Fraction per term, for p with int coefficients."""
    return p._new({e: Fraction(c, den) for e, c in p.terms.items()})


def _cleared(field: VectorField, psi: MultiPoly, jmax: int) -> tuple:
    """(N, D, P, Dp) with int coefficients: N[j-1] the components of D F_j
    for j = 1..jmax, D the lcm of their coefficients' denominators, and
    P = Dp psi, Dp the lcm of psi's."""

    def clear(polys) -> tuple:
        nums, d = common_denominator([c for p in polys for c in p.terms.values()])
        values = iter(nums)
        return [p._new({e: next(values) for e in p.terms}) for p in polys], d

    m = field.nvars
    comps, D = clear([p for j in range(1, jmax + 1) for p in field.field(j)])
    (P,), Dp = clear([psi])
    return [comps[j * m:(j + 1) * m] for j in range(jmax)], D, P, Dp


def _lie(components, psi: MultiPoly) -> MultiPoly:
    """F[psi] = sum_i F^i d(psi)/dx_i, the Lie derivative of psi along the
    field with the given components."""
    acc: dict = {}
    for i, comp in enumerate(components):
        if comp:
            add_into(acc, (comp * psi.partial(i)).terms)
    return psi._new(acc)


def bell_apply(field: VectorField, psi: MultiPoly, n: int) -> MultiPoly:
    """The n-th noncommutative Bell polynomial applied as iterated Lie
    derivatives, words read leftmost-outermost.

    With N_j = D F_j and P = Dp psi on integer coefficients, a word of
    length k applied to psi is D^-k Dp^-1 times the same word of N's applied
    to P, so the sum over the words w of B_n is
    sum_w c_w D^(n-|w|) w(P) / (Dp D^n): ints throughout and one Fraction
    per term. Each word suffix is applied once per call. The result has
    int coefficients when psi and F_1..F_n do, and Fraction ones
    otherwise; B_0 = 1 gives psi itself.
    """
    if psi.nvars != field.nvars:
        raise ValueError("dimension mismatch")
    if n < 0:
        raise ValueError("need n >= 0")
    if not field.exact and n > field.time_order():
        raise ValueError(f"order {n} exceeds time truncation {field.time_order()}")
    if n == 0:
        return psi
    jmax = min(n, field.time_order())
    N, D, P, Dp = _cleared(field, psi, jmax)
    applied = {(): P}  # word suffix -> the suffix applied to P

    def apply(word: tuple) -> MultiPoly:
        p = applied.get(word)
        if p is None:
            inner = apply(word[1:])
            p = _lie(N[word[0] - 1], inner) if word[0] <= jmax and inner else inner._new({})
            applied[word] = p
        return p

    acc: dict = {}
    for word, c in bell(n, "nc").terms.items():
        _add_multiple(acc, apply(word), c * D ** (n - len(word)))
    out = psi._new(acc)
    inputs = [psi] + [p for j in range(1, jmax + 1) for p in field.field(j)]
    if all(type(c) is int for p in inputs for c in p.terms.values()):
        return out  # D = Dp = 1
    return _over(out, Dp * D**n)


def _monomial(exps: tuple, b: int, z: list, memo: dict) -> MultiPoly:
    """Divided coefficient b of the series z^exps, for exps not all zero and
    every z[i] known through b. z^exps is z^rest * z[i], i the last variable
    of exps, a binomial convolution; each coefficient is built once and kept
    in memo[exps]."""
    entry = memo.get(exps)
    if entry is None:
        i = max(k for k, e in enumerate(exps) if e)
        rest = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
        entry = memo[exps] = (i, rest if any(rest) else None, [])
    i, rest, coeffs = entry
    if rest is None:
        return z[i][b]
    while len(coeffs) <= b:
        c = len(coeffs)
        acc: dict = {}
        for s in range(c + 1):
            u, v = _monomial(rest, s, z, memo), z[i][c - s]
            if u and v:
                _add_multiple(acc, u * v, comb(c, s))
        coeffs.append(z[i][0]._new(acc))
    return coeffs[b]


def _at(poly: MultiPoly, b: int, z: list, memo: dict) -> MultiPoly:
    """Divided coefficient b of poly(z), z and memo as for _monomial."""
    acc: dict = {}
    for exps, c in poly.terms.items():
        if any(exps):
            _add_multiple(acc, _monomial(exps, b, z, memo), c)
        elif b == 0:  # the constant monomial: the series 1
            _add_multiple(acc, MultiPoly.one(poly.nvars), c)
    return poly._new(acc)


def flow_pullback_taylor(field: VectorField, psi: MultiPoly, order: int) -> list:
    """Divided t-coefficients of psi pulled back along the flow of the field.

    Solves y' = F_t(y), y(0) = x with a symbolic base point for the divided
    coefficients y_a = a! [t^a] y, then expands psi(y(t)). Entry n of the
    result is n! [t^n] psi(y(t)), which must match bell_apply(field, psi, n).

    With F_t = sum_j t^(j-1)/(j-1)! F_j, the Picard step reads
    y_(a+1) = sum_j C(a, j-1) [F_j(y)]_(a-j+1), [.]_b a divided coefficient,
    and a product of series is the binomial convolution of their divided
    coefficients. With N_j = D F_j and P = Dp psi on integer coefficients,
    the series Z(t) = y(D t), whose divided coefficients are Z_a = D^a y_a,
    obeys Z_(a+1) = sum_j C(a, j-1) D^(j-1) [N_j(Z)]_(a-j+1) in ints, and
    [P(Z)]_n = Dp D^n n! [t^n] psi(y(t)). Each divided coefficient of each
    monomial in the Z's is built once, when a step first needs it. Entry 0
    is psi itself; every later entry has Fraction coefficients.
    """
    if psi.nvars != field.nvars:
        raise ValueError("dimension mismatch")
    if order < 0:
        raise ValueError("need order >= 0")
    if not field.exact and order > field.time_order():
        raise ValueError(f"order {order} exceeds time truncation {field.time_order()}")
    m = field.nvars
    jmax = min(order, field.time_order())
    N, D, P, Dp = _cleared(field, psi, jmax)
    z = [[MultiPoly.var(m, i)] for i in range(m)]
    memo: dict = {}
    for a in range(order):
        # Z_(a+1) reads the Z's through Z_a only
        steps = [(j, comb(a, j - 1) * D ** (j - 1)) for j in range(1, min(a + 1, jmax) + 1)]
        for i in range(m):
            acc: dict = {}
            for j, scale in steps:
                _add_multiple(acc, _at(N[j - 1][i], a - j + 1, z, memo), scale)
            z[i].append(psi._new(acc))
    return [psi] + [_over(_at(P, n, z, memo), Dp * D**n) for n in range(1, order + 1)]
