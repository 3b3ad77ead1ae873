"""Truncated power series and polynomial vector-field flows, all exact.

FormalSeries holds raw t^n coefficients c_0..c_{N-1} (int or Fraction, or
CPoly or MultiPoly for series with polynomial coefficients; a float is
refused); the divided-power view f_n = n! c_n is computed on access.
Coefficients at or beyond the truncation order are undefined, never
assumed zero.

The series product is one plain loop that skips zero factors on either
side; it serves egf_bell_check (CPoly) and the Picard oracle (MultiPoly),
and on int or Fraction input it gives Fraction coefficients. compose takes
int and Fraction coefficients only and is Horner evaluation on the
integer numerators of f and g with powers of g's denominator, one
Fraction per result coefficient. compose_via_bell takes each B_{n,k} from
bell_partial, which files B_n's terms by length once per n, evaluates it at
the integer numerators of g and divides by the k-th power of their
denominator once.

The flow half of the module works over MultiPoly, exact multivariate
polynomials in x1..xm. A VectorField is a list of m components, optionally
time-dependent through the list F_1, F_2, ... of component lists, with
F_t = sum_j t^j/j! F_{j+1}. MultiPoly and VectorField read JSON
(from_json_dict) but do not write it.
bell_apply reads a word d_{j_1}...d_{j_k} as the operator composition
F_{j_1}[F_{j_2}[...F_{j_k}[psi]...]]: the leftmost letter acts outermost.
The opposite orientation silently passes every symmetric low-order check,
so it is worth stating twice: leftmost letter, outermost derivative.
flow_pullback_taylor is the independent oracle, integrating the flow ODE
by Picard iteration with a symbolic base point, each iterate a
FormalSeries over MultiPoly. Iterate k is exact through t^k, so iteration
k runs at truncation k and the powers of y it needs are built once per
iteration; the coefficients through the requested order are the same as
with every iteration at full truncation.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial

from .algebra import (
    CPoly,
    TermRing,
    _coeff,
    _parse_coeff,
    _ring_ops,
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

    @classmethod
    def from_divided(cls, divided, order=None) -> "FormalSeries":
        """Build from divided-power coefficients f_n, so c_n = f_n / n!."""
        divided = list(divided)
        return cls([f * Fraction(1, factorial(n)) for n, f in enumerate(divided)], order)

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
    h_n = sum_k f_k B_{n,k}(g_1, ..., g_{n-k+1})."""
    order = min(f.order, g.order)
    if g.coeff(0) != 0:
        raise ValueError("inner series must vanish at the origin")
    # B_{n,k} is homogeneous of degree k: B_{n,k}(g) = B_{n,k}(g d) / d^k
    gnums, d = common_denominator([g.divided(i) for i in range(1, order)])
    gvals = dict(enumerate(gnums, 1))
    divided = [f.coeff(0)]
    for n in range(1, order):
        total = Fraction(0)
        for k in range(1, n + 1):
            b_nk = bell_partial(n, k, "c")
            total += f.divided(k) * Fraction(b_nk.evaluate(gvals), d**k)
        divided.append(total)
    return FormalSeries.from_divided(divided, order)


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
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls.one(nvars) * c

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


def _lie(components, psi: MultiPoly) -> MultiPoly:
    """F[psi] = sum_i F^i d(psi)/dx_i, the Lie derivative of psi along the
    field with the given components."""
    out = MultiPoly.zero(psi.nvars)
    for i, comp in enumerate(components):
        out = out + comp * psi.partial(i)
    return out


def _word_apply(word, field: VectorField, psi: MultiPoly) -> MultiPoly:
    acc = psi
    for j in reversed(word):
        acc = _lie(field.field(j), acc)
    return acc


def bell_apply(field: VectorField, psi: MultiPoly, n: int) -> MultiPoly:
    """The n-th noncommutative Bell polynomial applied as iterated Lie
    derivatives, words read leftmost-outermost."""
    if psi.nvars != field.nvars:
        raise ValueError("dimension mismatch")
    if n < 0:
        raise ValueError("need n >= 0")
    if not field.exact and n > field.time_order():
        raise ValueError(f"order {n} exceeds time truncation {field.time_order()}")
    out = MultiPoly.zero(field.nvars)
    for word, c in bell(n, "nc").terms.items():
        out = out + _word_apply(word, field, psi) * c
    return out


def _power(y, i: int, e: int, powers: dict) -> FormalSeries:
    """y[i]**e, memoised in powers by (i, e)."""
    p = powers.get((i, e))
    if p is None:
        p = y[i] if e == 1 else _power(y, i, e - 1, powers) * y[i]
        powers[(i, e)] = p
    return p


def _at_series(poly: MultiPoly, y, order: int, powers: dict) -> list:
    """The first `order` MultiPoly coefficients of poly(y), for series y of
    that truncation. powers caches y[i]**e; every call that sees the same y
    may share one cache."""
    m = poly.nvars
    out = [MultiPoly.zero(m)] * order
    for exps, c in poly.terms.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                p = _power(y, i, e, powers)
                term = p if term is None else term * p
        if term is None:
            out[0] = out[0] + MultiPoly.const(m, c)
            continue
        for a, x in enumerate(term.coeffs):
            if x:
                out[a] = out[a] + x * c
    return out


def flow_pullback_taylor(field: VectorField, psi: MultiPoly, order: int) -> list:
    """Divided t-coefficients of psi pulled back along the flow of the field.

    Integrates y' = F_t(y), y(0) = x with a symbolic base point by Picard
    iteration, then expands psi(y(t)). Entry n of the result is
    n! [t^n] psi(y(t)), which must match bell_apply(field, psi, n).

    Picard iterate k is exact through t^k, and its t^k coefficient reads
    only the coefficients of iterate k-1 through t^(k-1). So iteration k
    evaluates the field at truncation k-1 and keeps the coefficients
    through t^k: iterate `order` holds the same exact coefficients through
    t^order as `order` iterations at full truncation would.
    """
    if psi.nvars != field.nvars:
        raise ValueError("dimension mismatch")
    if order < 0:
        raise ValueError("need order >= 0")
    if not field.exact and order > field.time_order():
        raise ValueError(f"order {order} exceeds time truncation {field.time_order()}")
    m = field.nvars
    y = [FormalSeries([MultiPoly.var(m, i)]) for i in range(m)]
    for it in range(1, order + 1):
        # y holds the coefficients through t^(it-1); F_t(y) is needed that far
        rhs = [[MultiPoly.zero(m)] * it for _ in range(m)]
        powers: dict = {}
        for j in range(1, min(it, field.time_order()) + 1):
            scale = Fraction(1, factorial(j - 1))
            for i, comp in enumerate(field.field(j)):
                vals = _at_series(comp, y, it, powers)
                for a in range(it - (j - 1)):
                    if vals[a]:
                        rhs[i][a + j - 1] = rhs[i][a + j - 1] + vals[a] * scale
        y = [
            FormalSeries([yi.coeffs[0]] + [rhs[i][a] * Fraction(1, a + 1) for a in range(it)])
            for i, yi in enumerate(y)
        ]
    values = _at_series(psi, y, order + 1, {})
    return [values[n] * factorial(n) for n in range(order + 1)]
