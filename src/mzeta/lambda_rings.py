"""Lambda structures: the big Witt ring on series with constant term 1,
Adams operations and the opposite (sigma) structure on lambda data,
specialness checks, and lambda on graded vector spaces.

Conventions used throughout:

* A WittElement is a truncated series with constant term exactly 1.  Ring
  addition is series multiplication.  Every Witt operation works in ghost
  coordinates, the power sums p_1..p_{N-1} of the formal roots: sums,
  negatives and products are componentwise, Adams operations select
  indices, and exterior powers rebuild local windows with
  series.ghost_exterior, whose values agree with the universal
  symmetric-function polynomials.  This is the only implementation of
  Witt arithmetic in the package.  An element is immutable and keeps its
  series, its ghost vector or both, computing the missing one at most once,
  so a chain of operations converts each input once and builds a result's
  series only when it is read.  The ghost map is injective here, since
  every base ring is torsion-free, and the divisions that rebuild a series
  are exact (Dwork's lemma).
* The lambda data lambda^0(x), ..., lambda^N(x) of a ring element x is
  the WittElement lambda_t(x) of precision N+1: coefficient i is
  lambda^i(x), and x itself is coefficient 1.  adams and opposite_sigma
  state the order they need and raise PrecisionError otherwise.  The Adams
  operation psi^n(x) reads the n-th ghost coordinate of lambda_t(x).
* A graded virtual vector space is an element of Z[s] (PolynomialRing(["s"]))
  whose s^j coefficient is the (possibly negative) dimension in degree j,
  built by graded_space and read by graded_dims; direct sum and tensor
  product are add and mul.  lambda acts on an even-degree piece through
  symmetric powers and on an odd-degree piece through exterior powers, with
  negative dimensions handled by the same generalized binomial coefficients.
"""

from __future__ import annotations

from .errors import (
    InvalidElementError,
    InvalidInputError,
    PrecisionError,
    RingMismatchError,
)
from .rings import Numbers, PolynomialRing, _check_int, eval_poly, power
from .series import TruncSeries, from_power_sums, ghost_exterior, power_sums, series_from_json
from .symfunc import universal_P, universal_Q


def gen_binom(n, k):
    """Binomial coefficient n over k for arbitrary integer n, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    q, r = divmod(num, den)
    if r:
        raise InvalidInputError("binomial product not divisible")
    return q


class WittElement:
    """Element of the big Witt ring: a series with constant term 1.

    Immutable.  It holds its series, its ghost vector (the power sums
    p_1..p_{N-1} of its formal roots, N the precision) or both; the missing
    one is computed on first use, once, and kept.
    """

    __slots__ = ("_ring", "_precision", "_series", "_ghost")

    def __init__(self, series):
        ring = series.ring
        if not ring.eq(series.coeffs[0], ring.one()):
            raise InvalidElementError("Witt elements have constant term 1")
        self._ring = ring
        self._precision = series.precision
        self._series = series
        self._ghost = None

    @classmethod
    def _from_ghost(cls, ring, ghost):
        """The element with ghost vector `ghost`.  Only for vectors the Witt
        operations produce: Dwork's lemma makes their series integral, so
        the deferred conversion is exact."""
        self = cls.__new__(cls)
        self._ring = ring
        self._precision = len(ghost) + 1
        self._series = None
        self._ghost = tuple(ghost)
        return self

    @property
    def ring(self):
        return self._ring

    @property
    def precision(self):
        return self._precision

    @property
    def series(self):
        if self._series is None:
            self._series = from_power_sums(self._ring, self._ghost, self._precision)
        return self._series

    @property
    def ghost(self):
        """The power sums p_1..p_{N-1} of the roots, as a tuple."""
        if self._ghost is None:
            self._ghost = tuple(power_sums(self._series, self._precision - 1))
        return self._ghost

    @classmethod
    def one(cls, ring, precision):
        return cls(TruncSeries.one(ring, precision))

    @classmethod
    def from_json(cls, obj):
        return cls(series_from_json(obj))

    def payload(self):
        return self.series.payload()

    def to_json(self):
        return self.series.to_json()

    def truncate(self, precision):
        _check_int(precision, "precision")
        if not 1 <= precision <= self._precision:
            raise PrecisionError(
                "cannot truncate precision %d to %d" % (self._precision, precision)
            )
        out = WittElement.__new__(WittElement)
        out._ring = self._ring
        out._precision = precision
        out._series = None if self._series is None else self._series.truncate(precision)
        out._ghost = None if self._ghost is None else self._ghost[: precision - 1]
        return out

    def eq(self, other):
        n = min(self.precision, other.precision)
        return self.series.agrees_to(other.series, n)

    def __eq__(self, other):
        if not isinstance(other, WittElement):
            return NotImplemented
        return self.series.eq(other.series)

    __hash__ = None

    def __str__(self):
        return str(self.series)

    def __repr__(self):
        return "WittElement(%s)" % self.series


def _common_ring(f, g):
    if f.ring != g.ring:
        raise RingMismatchError("Witt-ring operations need a common ring")
    return f.ring


def witt_add(f, g):
    """Witt-ring addition (the product of the two series): ghost sums."""
    r = _common_ring(f, g)
    return WittElement._from_ghost(r, [r.add(a, b) for a, b in zip(f.ghost, g.ghost)])


def witt_neg(f):
    """Witt-ring additive inverse (the series inverse): ghost negation."""
    r = f.ring
    return WittElement._from_ghost(r, [r.neg(a) for a in f.ghost])


def witt_sub(f, g):
    r = _common_ring(f, g)
    return WittElement._from_ghost(r, [r.sub(a, b) for a, b in zip(f.ghost, g.ghost)])


def witt_mul(f, g):
    """Witt-ring multiplication (pairwise root products): ghost products."""
    r = _common_ring(f, g)
    return WittElement._from_ghost(r, [r.mul(a, b) for a, b in zip(f.ghost, g.ghost)])


def output_precision(what, k, f, precision):
    """Precision of an operation whose t^m coefficient needs input
    coefficients up to t^(k m): the most f supports, or the requested one.
    For k = 0 no input coefficient is needed: f's precision is the default
    and any larger one may be requested."""
    limit = (f.precision - 1) // k + 1 if k else f.precision
    if precision is not None:
        _check_int(precision, "output precision")
    m = limit if precision is None else precision
    if m < 1:
        raise PrecisionError("%s %d needs output precision at least 1, got %d" % (what, k, m))
    if k and m > limit:
        raise PrecisionError(
            "%s %d at precision %d needs input precision %d, have %d"
            % (what, k, m, k * (m - 1) + 1, f.precision)
        )
    return m


def witt_lambda(k, f, precision=None):
    """k-th lambda operation on the Witt ring (root subsets of size k).

    The t^m coefficient needs f's coefficients up to t^(k m), so precision
    N supports output precision (N-1)//k + 1 at most.
    """
    _check_int(k, "exterior power index")
    if k < 0:
        raise InvalidInputError("negative exterior power")
    r = f.ring
    m = output_precision("exterior power", k, f, precision)
    if k == 0:
        # the ring unit 1 + t: one root, equal to 1
        return WittElement._from_ghost(r, [r.one()] * (m - 1))
    if k == 1:
        return WittElement._from_ghost(r, f.ghost[: m - 1])
    return WittElement._from_ghost(r, ghost_exterior(r, k, f.ghost, m))


def witt_adams(n, f, precision=None):
    """n-th Adams operation on the Witt ring (roots to the n-th power)."""
    _check_int(n, "Adams index")
    if n < 1:
        raise InvalidInputError("Adams operations are indexed from 1")
    m = output_precision("Adams operation", n, f, precision)
    # the roots' n-th powers have power sums p_n, p_2n, ..., p_{n(m-1)}
    return WittElement._from_ghost(f.ring, f.ghost[n - 1 : n * (m - 1) : n])


def adams(n, x):
    """Adams operation psi^n(x) on the element x whose lambda series
    lambda_t(x) = 1 + x t + lambda^2(x) t^2 + ... is the WittElement x: the
    n-th ghost coordinate (power sum) of that series, which is
    newton_polynomial(n) at e_i = lambda^i(x)."""
    _check_int(n, "Adams index")
    if n < 1:
        raise InvalidInputError("Adams operations are indexed from 1")
    if n >= x.precision:
        raise PrecisionError(
            "lambda^%d requested but data stops at order %d" % (n, x.precision - 1)
        )
    return power_sums(x.series, n)[n - 1]


def opposite_sigma(x, order=None):
    """Opposite structure: sigma_t(x) is the inverse of lambda_{-t}(x).

    Takes lambda_t(x) as a WittElement and returns sigma_t(x) to the
    requested order (default: x's order, its precision minus 1); applying
    the operation twice returns the original element.
    """
    have = x.precision - 1
    if order is None:
        order = have
    _check_int(order, "sigma order")
    if order < 0:
        raise InvalidInputError("negative sigma order")
    if order > have:
        raise PrecisionError(
            "sigma to order %d needs lambda data to order %d, have %d"
            % (order, order, have)
        )
    return WittElement(x.series.truncate(order + 1).opposite())


class LambdaRule:
    """A lambda structure on some carrier: ring operations plus lam(n, x).

    Instances double as the operation table for evaluating the universal
    polynomials (from_int / add / mul / pow), so identity checks can run
    over any carrier: integers, polynomial rings, or the big Witt ring
    itself.
    """

    name = "abstract"

    def from_int(self, n):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b):
        raise NotImplementedError

    def pow(self, x, n):
        """x**n for n >= 0, by repeated squaring with mul."""
        result = power(x, n, self.mul, None)
        return self.from_int(1) if result is None else result

    def lam(self, n, x):
        raise NotImplementedError

    def meaningful(self, a, b):
        """Whether comparing a and b actually tests anything."""
        return True

    def describe(self, a):
        return str(a)


class _IntegerCarrier(Numbers, LambdaRule):
    """Plain Python ints as the carrier, with the arithmetic of the number
    table rings.Numbers; subclasses choose lam."""


class BinomialIntegers(_IntegerCarrier):
    """The integers with lambda^n(r) = binom(r, n); this one is special."""

    name = "binomial-integers"

    def lam(self, n, x):
        return gen_binom(x, n)


class SigmaIntegers(_IntegerCarrier):
    """The integers with the opposite structure sigma^n(r) = binom(r+n-1, n).

    A valid lambda structure, but not special: the product identity for
    sigma^2 already fails at x = y = 2.
    """

    name = "sigma-integers"

    def lam(self, n, x):
        return gen_binom(x + n - 1, n)


class LineMonomials(LambdaRule):
    """Monomials with coefficient 1 in a polynomial ring, as line elements:
    the lambda series of a monomial a is 1 + a t, so lambda^n vanishes for
    n >= 2.  Ring operations are those of the ambient polynomial ring.
    """

    name = "line-monomials"

    def __init__(self, ring):
        self.ring = ring
        self.from_int, self.add, self.mul, self.eq = ring.from_int, ring.add, ring.mul, ring.eq

    def lam(self, n, x):
        if n == 0:
            return self.ring.one()
        if x.is_zero():
            return self.ring.zero()
        if len(x.terms) != 1 or next(iter(x.terms.values())) != 1:
            raise InvalidInputError(
                "lambda on this carrier is defined for monomials only"
            )
        return x if n == 1 else self.ring.zero()


class BigWitt(LambdaRule):
    """The big Witt ring on series with constant term 1 over a base ring."""

    name = "big-witt"

    def __init__(self, ring, precision):
        if precision < 2:
            raise InvalidInputError("Witt carrier needs precision at least 2")
        self.ring = ring
        self.precision = precision

    def from_int(self, n):
        # (1 + t)^n: n roots equal to 1
        c = self.ring.from_int(n)
        return WittElement._from_ghost(self.ring, [c] * (self.precision - 1))

    def add(self, a, b):
        return witt_add(a, b)

    def mul(self, a, b):
        return witt_mul(a, b)

    def eq(self, a, b):
        return a.eq(b)

    def lam(self, n, x):
        return witt_lambda(n, x)

    def meaningful(self, a, b):
        return min(a.precision, b.precision) >= 2

    def describe(self, a):
        return str(a.series)


class IdentityCheck:
    """One verified identity: what was compared and how it went.

    sides, when given, is (describe, lhs, rhs): the compared values and
    the function that renders each as text, which runs on the first read
    of the lhs or rhs property (None without sides).
    """

    __slots__ = ("kind", "indices", "status", "_sides")

    def __init__(self, kind, indices, status, sides=None):
        self.kind = kind
        self.indices = tuple(indices)
        self.status = status
        self._sides = sides

    def _text(self, i):
        if self._sides is not None and len(self._sides) == 3:
            describe, lhs, rhs = self._sides
            self._sides = (describe(lhs), describe(rhs))
        return None if self._sides is None else self._sides[i]

    lhs = property(lambda self: self._text(0))
    rhs = property(lambda self: self._text(1))

    @property
    def label(self):
        if self.kind == "product":
            return "lambda^%d(x*y)" % self.indices
        return "lambda^%d(lambda^%d(x))" % self.indices

    def to_json(self):
        out = {
            "identity": self.label,
            "kind": self.kind,
            "indices": list(self.indices),
            "status": self.status,
        }
        if self._sides is not None:
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        return out

    def __repr__(self):
        return "IdentityCheck(%s: %s)" % (self.label, self.status)


class SpecialReport:
    """Outcome of check_special: one entry per tested identity."""

    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def all_hold(self):
        return all(e.status == "holds" for e in self.entries)

    def failures(self):
        return [e for e in self.entries if e.status == "fails"]

    def find(self, kind, *indices):
        for e in self.entries:
            if e.kind == kind and e.indices == tuple(indices):
                return e
        return None

    def to_json(self):
        return {
            "all_hold": self.all_hold,
            "checks": [e.to_json() for e in self.entries],
        }

    def __str__(self):
        lines = []
        for e in self.entries:
            line = "%-28s %s" % (e.label, e.status)
            if e.status == "fails":
                line += "  (%s vs %s)" % (e.lhs, e.rhs)
            lines.append(line)
        return "\n".join(lines)


def check_special(rule, x, y, nmax, mmax):
    """Verify the universal product and composition identities numerically.

    Product: lambda^n(x*y) against universal_P(n) at lambda-values of x and
    y, for n <= nmax.  Composition: lambda^m(lambda^n(x)) against
    universal_Q(m, n) at lambda-values of x, for m*n <= mmax.  Identities a
    truncated carrier cannot decide are flagged "insufficient".
    """
    entries = []

    def record(kind, indices, sides):
        # sides() computes lambda of the left side, the lambda-values and
        # the universal polynomial, in that order; a truncated carrier may
        # raise PrecisionError on the way
        try:
            lhs, values, universal = sides()
            rhs = eval_poly(universal, values, rule)
            if rule.meaningful(lhs, rhs):
                status = "holds" if rule.eq(lhs, rhs) else "fails"
            else:
                status = "insufficient"
            entry = IdentityCheck(kind, indices, status, (rule.describe, lhs, rhs))
        except PrecisionError:
            entry = IdentityCheck(kind, indices, "insufficient")
        entries.append(entry)

    def lams(n, *args):
        # e1, f1, e2, f2, ...: lambda^i of x (and of y)
        return {"%s%d" % (name, i): rule.lam(i, z)
                for i in range(1, n + 1) for name, z in zip("ef", args)}

    xy = rule.mul(x, y)
    for n in range(1, nmax + 1):
        record("product", (n,), lambda: (
            rule.lam(n, xy), lams(n, x, y), universal_P(n)))
    for m in range(1, mmax + 1):
        for n in range(1, mmax // m + 1):
            record("composition", (m, n), lambda: (
                rule.lam(m, rule.lam(n, x)), lams(m * n, x), universal_Q(m, n)))
    return SpecialReport(entries)


_S_RING = PolynomialRing(["s"])


def graded_space(dims):
    """The graded virtual vector space with dimension dims[j] (possibly
    negative) in degree j: the element sum of dims[j] s^j of Z[s]."""
    v = _S_RING.zero()
    for j, d in enumerate(dims):
        _check_int(d, "graded dimension")
        v = v.add(_S_RING.var("s", j).mul_int(d))
    return v


def graded_dims(v):
    """The dimensions [d_0, ..., d_top] of the graded space v, an element of
    Z[s] of degree top; [0] for v = 0."""
    _S_RING.validate(v)
    if v.layout is _S_RING._layout:
        # the ring's own layout has the one field s, so a key is its exponent
        dims = v.terms
    else:
        dims = {mono[0][1] if mono else 0: c for mono, c in v.items()}
    return [dims.get(j, 0) for j in range(max(dims, default=0) + 1)]


def graded_lambda_sequence(v, upto):
    """lambda^0(v), ..., lambda^upto(v) computed in one product pass.

    lambda_t is multiplicative over the graded pieces; the piece of
    dimension V in degree p contributes the coefficient stream
    binom(V, i) (p odd: exterior powers) or binom(V+i-1, i) (p even:
    symmetric powers) at s^{p i} t^i.  Negative V follows the same
    binomials, which is exactly the series-inverse convention for
    virtual spaces.
    """
    _check_int(upto, "lambda index")
    if upto < 0:
        raise InvalidInputError("negative lambda index")
    total = TruncSeries.one(_S_RING, upto + 1)
    for p, dim in enumerate(graded_dims(v)):
        if dim == 0:
            continue
        coeffs = []
        for i in range(upto + 1):
            c = gen_binom(dim, i) if p % 2 else gen_binom(dim + i - 1, i)
            coeffs.append(_S_RING.var("s", p * i).mul_int(c))
        total = total.mul(TruncSeries(_S_RING, coeffs))
    return list(total.coeffs)


def graded_lambda(m, v):
    """m-th lambda operation on a graded space."""
    return graded_lambda_sequence(v, m)[m]
