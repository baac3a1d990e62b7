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

Power sums are the ghost coordinates of the big Witt ring.  Its arithmetic
lives in lambda_rings, on WittElement only; the one piece kept here is
ghost_exterior, the exterior power on ghost vectors, which symfunc also
needs for universal_Q.

Untruncated polynomials in t (closed forms, Pade results) are coefficient
lists [c_0, c_1, ...]; the poly_* helpers at the end are their arithmetic.
"""

from __future__ import annotations

from .errors import (
    DegreeCutoffError,
    InvalidInputError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from .rings import JsonPayload, _check_int, _integer, power, ring_from_json


class TruncSeries(JsonPayload):
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
        return cls.from_ints(ring, [int(i == 0) for i in range(precision)])

    @classmethod
    def geometric(cls, ring, c, precision):
        """1 + c t + c^2 t^2 + ..."""
        _check_int(precision, "precision")
        out = [ring.one()] if precision >= 1 else []
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
        _check_int(precision, "precision")
        if precision < 1:
            raise PrecisionError("cannot truncate to precision %d" % precision)
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
        a, b = self.coeffs, other.coeffs
        r = self.ring
        return TruncSeries(r, [r.dot(zip(a[: k + 1], b[k::-1])) for k in range(n)])

    def pow(self, n):
        if _integer(n, "an exponent") < 0:
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
        except NotInvertibleError as e:
            try:
                got = "got " + r.elem_str(self.coeffs[0])
            except DegreeCutoffError:  # too many digits to print
                got = str(e)
            raise NotInvertibleError(
                "series inverse needs an invertible constant term, %s" % got
            ) from None
        a = self.coeffs
        out = [u]
        for k in range(1, self.precision):
            # a_1 out_{k-1} + ... + a_k out_0
            out.append(r.neg(r.mul(u, r.dot(zip(a[1 : k + 1], reversed(out))))))
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

    def payload(self):
        return {"ring": self.ring.to_json(), "precision": self.precision, "coeffs": list(self.coeffs)}

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
    if not isinstance(obj["coeffs"], list):
        raise InvalidInputError("a series' 'coeffs' must be a list")
    coeffs = [ring.elem_from_json(c) for c in obj["coeffs"]]
    precision = obj.get("precision", len(coeffs))
    if type(precision) is not int:
        raise InvalidInputError(
            "a series' 'precision' must be an integer, got %s" % type(precision).__name__
        )
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
    # signed[i] = (-1)^(i-1) e_i
    signed = [c if i % 2 else r.neg(c) for i, c in enumerate(f.coeffs[: upto + 1])]
    p = []
    for k in range(1, upto + 1):
        # k signed_k + signed_1 p_{k-1} + ... + signed_{k-1} p_1
        p.append(r.add(r.mul_int(signed[k], k), r.dot(zip(signed[1:k], reversed(p)))))
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
    # signed[i - 1] = (-1)^(i-1) p_i
    signed = [p if i % 2 == 0 else ring.neg(p) for i, p in enumerate(psums[: precision - 1])]
    e = [ring.one()]
    for k in range(1, precision):
        # e_{k-1} signed_1 + ... + e_0 signed_k
        e.append(ring.divide_exact(ring.dot(zip(reversed(e), signed)), k))
    return TruncSeries(ring, e)


def ghost_exterior(ring, k, p, m):
    """Power sums p'_1..p'_{m-1} of the k-th exterior power, given the power
    sums p (at least k*(m-1) of them) of its argument: p'_r is e_k of the
    roots' r-th powers, from_power_sums on the window p_r, p_2r, ..., p_kr.
    Every reconstruction division is exact (see from_power_sums)."""
    return [from_power_sums(ring, p[r - 1 : k * r : r], k + 1).coeffs[k] for r in range(1, m)]


# Coefficient-list polynomials in t: [c_0, c_1, ...] over a ring.


def poly_mul(ring, a, b):
    out = []
    for k in range(len(a) + len(b) - 1):
        # a_i b_{k-i} over lo <= i <= hi, where both indices are in range
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(ring.dot(zip(a[lo : hi + 1], reversed(b[k - hi : k - lo + 1]))))
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
