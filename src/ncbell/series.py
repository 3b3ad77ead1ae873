"""Truncated power series and polynomial vector-field flows, all exact.

FormalSeries holds raw t^n coefficients c_0..c_{N-1} (Fraction, or CPoly
for series with polynomial coefficients); the divided-power view f_n =
n! c_n is computed on access. Coefficients at or beyond the truncation
order are undefined, never assumed zero.

The flow half of the module works over MultiPoly, exact multivariate
polynomials in x1..xm. A VectorField is a list of m components, optionally
time-dependent through the list F_1, F_2, ... with F_t = sum_j t^j/j! F_{j+1}.
bell_apply reads a word d_{j_1}...d_{j_k} as the operator composition
F_{j_1}[F_{j_2}[...F_{j_k}[psi]...]]: the leftmost letter acts outermost.
The opposite orientation silently passes every symmetric low-order check,
so it is worth stating twice: leftmost letter, outermost derivative.
flow_pullback_taylor is the independent oracle, integrating the flow ODE
by Picard iteration with a symbolic base point. Iterate k is exact through
t^k, so iteration k runs at truncation k and the powers of y it needs are
built once per iteration; the coefficients through the requested order are
the same as with every iteration at full truncation.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial

from .algebra import TermRing, _coeff, _parse_coeff, _ring_ops, join_signed
from .bell import bell, bell_partial


class FormalSeries:
    """Truncated series sum_{n < order} c_n t^n."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
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

    @classmethod
    def identity(cls, order: int) -> "FormalSeries":
        return cls([Fraction(0), Fraction(1)], order)

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
        order = min(self.order, other.order)
        return FormalSeries([self.coeffs[n] + other.coeffs[n] for n in range(order)], order)

    def __sub__(self, other) -> "FormalSeries":
        order = min(self.order, other.order)
        return FormalSeries([self.coeffs[n] - other.coeffs[n] for n in range(order)], order)

    def __mul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            return FormalSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        out = [Fraction(0)] * order
        for i, a in enumerate(self.coeffs[:order]):
            if a == 0:
                continue
            for j in range(order - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return FormalSeries(out, order)

    def __rmul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FormalSeries":
        return cls([Fraction(c) for c in d["coeffs"]], d["order"])

    def __repr__(self) -> str:
        return f"FormalSeries({[str(c) for c in self.coeffs]})"


def compose(f: FormalSeries, g: FormalSeries, order: int | None = None) -> FormalSeries:
    """f(g(t)) through the given order, by Horner evaluation."""
    if order is None:
        order = min(f.order, g.order)
    if order > f.order or order > g.order:
        raise ValueError("composition order exceeds a truncation order")
    if g.coeff(0) != 0:
        raise ValueError("inner series must vanish at the origin")
    gt = FormalSeries(g.coeffs[:order], order)
    acc = FormalSeries([f.coeffs[order - 1]], order)
    for n in range(order - 2, -1, -1):
        acc = acc * gt + FormalSeries([f.coeffs[n]], order)
    return acc


def compose_via_bell(f: FormalSeries, g: FormalSeries, order: int | None = None) -> FormalSeries:
    """f(g(t)) with divided-power coefficients from the classical chain-rule
    expansion h_n = sum_k f_k B_{n,k}(g_1, ..., g_{n-k+1})."""
    if order is None:
        order = min(f.order, g.order)
    if order > f.order or order > g.order:
        raise ValueError("composition order exceeds a truncation order")
    if g.coeff(0) != 0:
        raise ValueError("inner series must vanish at the origin")
    gvals = {i: g.divided(i) for i in range(1, order)}
    divided = [f.coeff(0)]
    for n in range(1, order):
        total = Fraction(0)
        for k in range(1, n + 1):
            total += f.divided(k) * bell_partial(n, k, "c").evaluate(gvals)
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
    from .algebra import CPoly

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
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

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

    # the shared ring operations, after a check that the dimensions agree
    def __eq__(self, other) -> bool:
        if type(other) is MultiPoly and self.nvars != other.nvars:
            return False
        return TermRing.__eq__(self, other)

    def __hash__(self):
        return hash((self.nvars, TermRing.__hash__(self)))

    def __add__(self, other) -> "MultiPoly":
        self._same(other)
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other) -> "MultiPoly":
        self._same(other)
        return self._mul(other)

    def partial(self, i: int) -> "MultiPoly":
        """Derivative with respect to x_{i+1} (i is 0-based)."""
        acc: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            acc[ne] = acc.get(ne, 0) + c * e[i]
        return self._new({e: c for e, c in acc.items() if c})

    def evaluate(self, point) -> int | Fraction:
        point = [_coeff(v) for v in point]
        if len(point) != self.nvars:
            raise ValueError("dimension mismatch")
        total = 0
        for e, c in self.terms.items():
            prod = c
            for v, p in zip(point, e):
                prod *= v**p
            total += prod
        return total

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def to_json_dict(self) -> dict:
        terms = sorted(self.terms.items())
        return {
            "nvars": self.nvars,
            "terms": [{"coeff": str(c), "exponents": list(e)} for e, c in terms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultiPoly":
        return cls(
            d["nvars"],
            {tuple(t["exponents"]): _parse_coeff(t["coeff"]) for t in d["terms"]},
        )

    def __repr__(self) -> str:
        return f"MultiPoly({render_multipoly(self)!r})"


def render_multipoly(p: MultiPoly) -> str:
    chunks = []
    for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        body = "*".join(
            f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k
        )
        mag = abs(c)
        if not body:
            s = str(mag)
        elif mag == 1:
            s = body
        else:
            s = f"{mag}*{body}"
        chunks.append((c < 0, s))
    return join_signed(chunks)


class VectorField:
    """Polynomial vector field on m variables.

    time_coefficients, when given, is the truncated list F_1, F_2, ... with
    F_t = sum_j t^j/j! F_{j+1}; each entry may be a VectorField or a plain
    component list. Without it the field is autonomous and exact in t, so
    flows may be expanded to any order.
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
        if isinstance(components, VectorField):
            components = components.components
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

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "time_coefficients": [
                [p.to_json_dict() for p in comps] for comps in self.time_coefficients
            ],
            "exact": self.exact,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "VectorField":
        tcs = [
            [MultiPoly.from_json_dict(p) for p in comps] for comps in d["time_coefficients"]
        ]
        if d.get("exact", len(tcs) == 1):
            return cls(d["nvars"], tcs[0])
        return cls(d["nvars"], tcs[0], tcs)


def _lie(components, psi: MultiPoly) -> MultiPoly:
    out = MultiPoly.zero(psi.nvars)
    for i, comp in enumerate(components):
        out = out + comp * psi.partial(i)
    return out


def lie_derivative(field: VectorField, target):
    """F[psi] = sum_i F^i d(psi)/dx_i on a MultiPoly; on a VectorField the
    same derivation is applied to each component."""
    if isinstance(target, MultiPoly):
        if target.nvars != field.nvars:
            raise ValueError("dimension mismatch")
        return _lie(field.components, target)
    if isinstance(target, VectorField):
        if target.nvars != field.nvars:
            raise ValueError("dimension mismatch")
        return VectorField(
            target.nvars, [_lie(field.components, c) for c in target.components]
        )
    raise TypeError(f"cannot differentiate {type(target).__name__}")


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


# time series over MultiPoly coefficients, used only by the Picard oracle


def _ts_mul(a, b, order):
    m = a[0].nvars
    out = [MultiPoly.zero(m) for _ in range(order + 1)]
    for i, x in enumerate(a[: order + 1]):
        if not x:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] = out[i + j] + x * b[j]
    return out


def _ts_power(args, i: int, e: int, order: int, powers: dict):
    """args[i]**e through t^order, memoised in powers by (i, e)."""
    p = powers.get((i, e))
    if p is None:
        if e == 1:
            p = args[i][: order + 1]
        else:
            p = _ts_mul(_ts_power(args, i, e - 1, order, powers), args[i], order)
        powers[(i, e)] = p
    return p


def _ts_eval(poly: MultiPoly, args, order, powers: dict):
    """poly(args) through t^order. powers caches args[i]**e; every call that
    sees the same args and order may share one cache."""
    m = poly.nvars
    out = [MultiPoly.zero(m) for _ in range(order + 1)]
    for exps, c in poly.terms.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                p = _ts_power(args, i, e, order, powers)
                term = p if term is None else _ts_mul(term, p, order)
        if term is None:
            out[0] = out[0] + MultiPoly.const(m, c)
            continue
        for a, x in enumerate(term):
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
    y = [[MultiPoly.var(m, i)] for i in range(m)]
    for it in range(1, order + 1):
        # y holds the coefficients through t^(it-1); F_t(y) is needed that far
        rhs = [[MultiPoly.zero(m)] * it for _ in range(m)]
        powers: dict = {}
        for j in range(1, min(it, field.time_order()) + 1):
            scale = Fraction(1, factorial(j - 1))
            for i, comp in enumerate(field.field(j)):
                vals = _ts_eval(comp, y, it - 1, powers)
                for a in range(it - (j - 1)):
                    if vals[a]:
                        rhs[i][a + j - 1] = rhs[i][a + j - 1] + vals[a] * scale
        y = [
            [yi[0]] + [rhs[i][a] * Fraction(1, a + 1) for a in range(it)]
            for i, yi in enumerate(y)
        ]
    values = _ts_eval(psi, y, order, {})
    return [values[n] * factorial(n) for n in range(order + 1)]
