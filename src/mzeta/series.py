"""Truncated power series with explicit precision.

A TruncSeries over a ring holds exactly `precision` coefficients a_0..a_{N-1}
of a series in t. Arithmetic never pretends to know more than it does:
products and sums truncate to the minimum precision of the operands.

This module also holds the two Newton-identity conversions between the
coefficients of a series with constant term 1 and its power sums (the power
sums of the formal roots a_i of f = prod(1 + a_i t)):

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k
    k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i

The first direction is division-free; the second divides by k, which is exact
in every ring here because each coefficient produced is the image of a
universal polynomial with integer coefficients (the rings are torsion-free
Z-algebras, so exactness is also uniqueness).

Untruncated polynomials in t (closed forms, Pade results) are coefficient
lists [c_0, c_1, ...]; the poly_* helpers at the end are their arithmetic.
"""

from __future__ import annotations

from .errors import (
    InvalidInputError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from .rings import power, ring_from_json


class TruncSeries:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise PrecisionError("a series needs at least one coefficient")
        for c in coeffs:
            ring.validate(c)
        self.ring = ring
        self.coeffs = coeffs

    @property
    def precision(self):
        return len(self.coeffs)

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [ring.from_int(n) for n in ints])

    @classmethod
    def one(cls, ring, precision):
        return cls.from_ints(ring, [1] + [0] * (precision - 1))

    @classmethod
    def zero(cls, ring, precision):
        return cls.from_ints(ring, [0] * precision)

    @classmethod
    def geometric(cls, ring, c, precision):
        """1 + c t + c^2 t^2 + ..."""
        out = [ring.one()]
        for _ in range(precision - 1):
            out.append(ring.mul(out[-1], c))
        return cls(ring, out)

    @classmethod
    def from_polynomial(cls, ring, coeffs, precision):
        coeffs = list(coeffs)
        if len(coeffs) > precision:
            raise PrecisionError("polynomial degree exceeds requested precision")
        coeffs = coeffs + [ring.zero()] * (precision - len(coeffs))
        return cls(ring, coeffs)

    def coefficient(self, i):
        if i < 0 or i >= self.precision:
            raise PrecisionError("coefficient %d outside precision %d" % (i, self.precision))
        return self.coeffs[i]

    def truncate(self, precision):
        if precision > self.precision:
            raise PrecisionError("cannot extend precision %d to %d" % (self.precision, precision))
        return TruncSeries(self.ring, self.coeffs[:precision])

    def _match(self, other):
        if not isinstance(other, TruncSeries):
            raise RingMismatchError("expected a series operand")
        if self.ring != other.ring:
            raise RingMismatchError("series over different rings")
        return min(self.precision, other.precision)

    def add(self, other):
        n = self._match(other)
        r = self.ring
        return TruncSeries(r, [r.add(self.coeffs[i], other.coeffs[i]) for i in range(n)])

    def sub(self, other):
        n = self._match(other)
        r = self.ring
        return TruncSeries(r, [r.sub(self.coeffs[i], other.coeffs[i]) for i in range(n)])

    def neg(self):
        r = self.ring
        return TruncSeries(r, [r.neg(c) for c in self.coeffs])

    def mul(self, other):
        n = self._match(other)
        r = self.ring
        out = []
        for k in range(n):
            acc = r.zero()
            for i in range(k + 1):
                acc = r.add(acc, r.mul(self.coeffs[i], other.coeffs[k - i]))
            out.append(acc)
        return TruncSeries(r, out)

    def pow(self, n):
        if n < 0:
            return self.inverse().pow(-n)
        return power(self, n, TruncSeries.mul, TruncSeries.one(self.ring, self.precision))

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term.

        Outside fields the constant term must be a unit the ring can invert
        (for the rings here: +-1, or +-1 plus a nilpotent in a square-zero
        quotient).
        """
        r = self.ring
        try:
            u = r.invert(self.coeffs[0])
        except NotInvertibleError:
            raise NotInvertibleError(
                "series inverse needs an invertible constant term, got %s" % r.elem_str(self.coeffs[0])
            )
        out = [u]
        for k in range(1, self.precision):
            acc = r.zero()
            for i in range(1, k + 1):
                acc = r.add(acc, r.mul(self.coeffs[i], out[k - i]))
            out.append(r.neg(r.mul(u, acc)))
        return TruncSeries(r, out)

    def scale_arg(self, c):
        """Substitute t -> c t."""
        return TruncSeries(self.ring, poly_scale_t(self.ring, self.coeffs, c))

    def opposite(self):
        """f(t) -> f(-t)^{-1}, the involution swapping the two lambda structures."""
        return self.scale_arg(self.ring.from_int(-1)).inverse()

    def map_coefficients(self, fn, new_ring=None):
        r = new_ring if new_ring is not None else self.ring
        return TruncSeries(r, [fn(c) for c in self.coeffs])

    def eq(self, other):
        n = self._match(other)
        if self.precision != other.precision:
            return False
        return self.agrees_to(other, n)

    def agrees_to(self, other, precision):
        n = self._match(other)
        if precision > n:
            raise PrecisionError("cannot compare to precision %d with only %d" % (precision, n))
        r = self.ring
        return all(r.eq(self.coeffs[i], other.coeffs[i]) for i in range(precision))

    def is_zero_beyond(self, degree):
        """True when all known coefficients after `degree` vanish."""
        r = self.ring
        return all(r.is_zero(c) for c in self.coeffs[degree + 1 :])

    def last_nonzero(self):
        r = self.ring
        deg = None
        for i, c in enumerate(self.coeffs):
            if not r.is_zero(c):
                deg = i
        return deg

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "precision": self.precision,
            "coeffs": [self.ring.elem_to_json(c) for c in self.coeffs],
        }

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            text = self.ring.elem_str(c)
            if i == 0:
                bits.append(text)
            else:
                mono = "t" if i == 1 else "t^%d" % i
                bits.append("(%s)*%s" % (text, mono))
        if not bits:
            bits.append("0")
        return " + ".join(bits) + " + O(t^%d)" % self.precision

    def __repr__(self):
        return "TruncSeries(%s)" % self


def series_from_json(obj):
    if not isinstance(obj, dict) or "coeffs" not in obj or "ring" not in obj:
        raise InvalidInputError("expected a series object with 'ring' and 'coeffs'")
    ring = ring_from_json(obj["ring"])
    coeffs = [ring.elem_from_json(c) for c in obj["coeffs"]]
    precision = obj.get("precision", len(coeffs))
    if precision != len(coeffs):
        raise InvalidInputError("precision %s does not match %d coefficients" % (precision, len(coeffs)))
    return TruncSeries(ring, coeffs)


def power_sums(f, upto):
    """Power sums p_1..p_upto of the formal roots of f; f must start at 1."""
    r = f.ring
    if not r.eq(f.coeffs[0], r.one()):
        raise InvalidInputError("power sums need a series with constant term 1")
    if upto > f.precision - 1:
        raise PrecisionError(
            "power sums up to %d need precision %d, have %d" % (upto, upto + 1, f.precision)
        )
    e = f.coeffs
    p = []
    for k in range(1, upto + 1):
        acc = r.mul_int(e[k], k if (k % 2) else -k)
        for i in range(1, k):
            term = r.mul(e[i], p[k - i - 1])
            acc = r.add(acc, term if (i % 2) else r.neg(term))
        p.append(acc)
    return p


def from_power_sums(ring, psums, precision):
    """Series with constant term 1 whose root power sums are psums.

    Divisions by k are exact for coefficients that come from universal
    integer polynomials; a failure raises ExactDivisionError.
    """
    if precision - 1 > len(psums):
        raise PrecisionError(
            "need %d power sums for precision %d, have %d" % (precision - 1, precision, len(psums))
        )
    e = [ring.one()]
    for k in range(1, precision):
        acc = ring.zero()
        for i in range(1, k + 1):
            term = ring.mul(e[k - i], psums[i - 1])
            acc = ring.add(acc, term if (i % 2) else ring.neg(term))
        e.append(ring.divide_exact(acc, k))
    return TruncSeries(ring, e)


# Big-Witt-ring operations in ghost (power-sum) coordinates. For series with
# constant term 1 and formal roots a_i: the product of f and g has root set
# {a_i b_j}, so its power sums multiply pointwise; the k-th exterior power has
# roots {prod_{i in S} a_i : |S| = k}, whose r-th power sum is e_k evaluated
# at the r-th powers of the roots; the n-th Adams operation has roots {a_i^n}.
# Every reconstruction division is exact (see from_power_sums).


def _require_one(f):
    r = f.ring
    if not r.eq(f.coeffs[0], r.one()):
        raise InvalidInputError("Witt-ring operations need constant term 1")


def _output_precision(what, k, f, precision):
    """Precision of an operation whose t^m coefficient needs input
    coefficients up to t^(k m): the most f supports, or the requested one."""
    limit = (f.precision - 1) // k + 1
    m = limit if precision is None else precision
    if m > limit:
        raise PrecisionError(
            "%s %d at precision %d needs input precision %d, have %d"
            % (what, k, m, k * (m - 1) + 1, f.precision)
        )
    return m


def witt_product_series(f, g):
    """Coefficients of the Witt product; same precision as the inputs."""
    _require_one(f)
    _require_one(g)
    n = min(f.precision, g.precision)
    f, g = f.truncate(n), g.truncate(n)
    r = f.ring
    pf = power_sums(f, n - 1)
    pg = power_sums(g, n - 1)
    q = [r.mul(pf[i], pg[i]) for i in range(n - 1)]
    return from_power_sums(r, q, n)


def witt_exterior_series(k, f, precision=None):
    """k-th exterior power of a series with constant term 1.

    The t^m coefficient is a universal polynomial in the first k*m input
    coefficients, so input precision N supports output precision
    (N-1)//k + 1; asking for more raises PrecisionError.
    """
    _require_one(f)
    if k < 0:
        raise InvalidInputError("negative exterior power")
    r = f.ring
    if k == 0:
        # one subset of size 0 with empty root product 1: the result is
        # 1 + t, the multiplicative unit of the Witt ring
        m = precision or f.precision
        coeffs = [r.one()] + ([r.one()] if m > 1 else []) + [r.zero()] * (m - 2)
        return TruncSeries(r, coeffs)
    m = _output_precision("exterior power", k, f, precision)
    if k == 1:
        return f.truncate(m)
    if m == 1:
        return TruncSeries.one(r, 1)
    p = power_sums(f, k * (m - 1))
    big = []
    for rr in range(1, m):
        local = [p[j * rr - 1] for j in range(1, k + 1)]
        big.append(from_power_sums(r, local, k + 1).coeffs[k])
    return from_power_sums(r, big, m)


def witt_adams_series(n, f, precision=None):
    """n-th Adams operation: roots raised to the n-th power."""
    _require_one(f)
    if n < 1:
        raise InvalidInputError("Adams operations are indexed from 1")
    r = f.ring
    m = _output_precision("Adams operation", n, f, precision)
    if n == 1:
        return f.truncate(m)
    if m == 1:
        return TruncSeries.one(r, 1)
    p = power_sums(f, n * (m - 1))
    big = [p[rr * n - 1] for rr in range(1, m)]
    return from_power_sums(r, big, m)


# Coefficient-list polynomials in t: [c_0, c_1, ...] over a ring.


def poly_mul(ring, a, b):
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def poly_pow(ring, p, k):
    return power(p, k, lambda a, b: poly_mul(ring, a, b), [ring.one()])


def poly_scale_t(ring, p, c):
    """Substitute t -> c t."""
    out = []
    scale = ring.one()
    for i, coeff in enumerate(p):
        if i:
            scale = ring.mul(scale, c)
        out.append(ring.mul(scale, coeff))
    return out


def poly_trim(ring, p):
    """Drop vanishing top coefficients, keeping at least the constant."""
    out = list(p)
    while len(out) > 1 and ring.is_zero(out[-1]):
        out.pop()
    return out


def poly_str(ring, coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if ring.is_zero(c):
            continue
        text = ring.elem_str(c)
        if i == 0:
            parts.append(text)
        elif text == "1":
            parts.append("t^%d" % i if i > 1 else "t")
        else:
            parts.append("(%s)*%s" % (text, "t^%d" % i if i > 1 else "t"))
    return " + ".join(parts) if parts else "0"
