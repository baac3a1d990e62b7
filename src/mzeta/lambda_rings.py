"""Lambda structures: the big Witt ring on series with constant term 1,
truncated lambda data on arbitrary ring elements, Adams operations, the
opposite (sigma) structure, specialness checks, and graded vector spaces.

Conventions used throughout:

* A WittElement is a truncated series with constant term exactly 1.  Ring
  addition is series multiplication; ring multiplication and the exterior
  operations come from the ghost-coordinate routines in the series module,
  whose values agree with the universal symmetric-function polynomials.
* A LambdaElement stores the finite prefix lambda^0(x), ..., lambda^N(x).
  Operations state the order they need and raise PrecisionError otherwise.
* GradedSpace models integer polynomials in s as graded virtual vector
  spaces: lambda acts on an even-degree piece through symmetric powers and
  on an odd-degree piece through exterior powers, with negative dimensions
  handled by the same generalized binomial coefficients.
"""

from __future__ import annotations

from .errors import (
    InvalidElementError,
    InvalidInputError,
    PrecisionError,
    RingMismatchError,
)
from .rings import IntegerRing, MultiPoly, PolynomialRing, eval_poly
from .series import (
    TruncSeries,
    series_from_json,
    witt_adams_series,
    witt_exterior_series,
    witt_product_series,
)
from .symfunc import newton_polynomial, universal_P, universal_Q


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
    """Element of the big Witt ring: a series with constant term 1."""

    __slots__ = ("series",)

    def __init__(self, series):
        ring = series.ring
        if not ring.eq(series.coeffs[0], ring.one()):
            raise InvalidElementError("Witt elements have constant term 1")
        self.series = series

    @property
    def ring(self):
        return self.series.ring

    @property
    def precision(self):
        return self.series.precision

    @classmethod
    def one(cls, ring, precision):
        return cls(TruncSeries.one(ring, precision))

    @classmethod
    def from_json(cls, obj):
        return cls(series_from_json(obj))

    def to_json(self):
        return self.series.to_json()

    def truncate(self, precision):
        return WittElement(self.series.truncate(precision))

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


def witt_add(f, g):
    """Witt-ring addition: the ordinary product of the two series."""
    return WittElement(f.series.mul(g.series))


def witt_neg(f):
    """Witt-ring additive inverse: the series inverse."""
    return WittElement(f.series.inverse())


def witt_sub(f, g):
    return witt_add(f, witt_neg(g))


def witt_mul(f, g):
    """Witt-ring multiplication (pairwise root products)."""
    if f.ring.to_json() != g.ring.to_json():
        raise RingMismatchError("Witt product needs a common ring")
    return WittElement(witt_product_series(f.series, g.series))


def witt_lambda(k, f, precision=None):
    """k-th lambda operation on the Witt ring (root subsets of size k)."""
    return WittElement(witt_exterior_series(k, f.series, precision))


def witt_adams(n, f, precision=None):
    """n-th Adams operation on the Witt ring (roots to the n-th power)."""
    return WittElement(witt_adams_series(n, f.series, precision))


class LambdaElement:
    """A ring element together with lambda values up to a stated order."""

    __slots__ = ("ring", "lambdas")

    def __init__(self, ring, lambdas):
        lambdas = list(lambdas)
        if len(lambdas) < 2:
            raise InvalidElementError("lambda data needs order at least 1")
        if not ring.eq(lambdas[0], ring.one()):
            raise InvalidElementError("lambda^0 must be 1")
        for c in lambdas:
            ring.validate(c)
        self.ring = ring
        self.lambdas = lambdas

    @property
    def order(self):
        return len(self.lambdas) - 1

    @property
    def value(self):
        """The underlying element x = lambda^1(x)."""
        return self.lambdas[1]

    def lam(self, i):
        if i < 0 or i > self.order:
            raise PrecisionError(
                "lambda^%d requested but data stops at order %d" % (i, self.order)
            )
        return self.lambdas[i]

    def lambda_series(self):
        """The series 1 + x t + lambda^2(x) t^2 + ... (precision order+1)."""
        return TruncSeries(self.ring, self.lambdas)

    @classmethod
    def from_series(cls, series):
        return cls(series.ring, series.coeffs)

    @classmethod
    def line(cls, ring, a, order):
        """Element whose lambda series is 1 + a t."""
        data = [ring.one(), a] + [ring.zero()] * (order - 1)
        return cls(ring, data)

    @classmethod
    def integer_binomial(cls, r, order):
        """The integer r with its binomial lambda data over the integers."""
        ring = IntegerRing()
        return cls(ring, [ring.from_int(gen_binom(r, i)) for i in range(order + 1)])

    def to_json(self):
        return self.lambda_series().to_json()

    @classmethod
    def from_json(cls, obj):
        return cls.from_series(series_from_json(obj))

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return self.lambda_series().eq(other.lambda_series())

    __hash__ = None

    def __str__(self):
        return str(self.lambda_series())


def adams(n, x):
    """Adams operation: newton_polynomial(n) evaluated at e_i = lambda^i(x)."""
    if n < 1:
        raise InvalidInputError("Adams operations are indexed from 1")
    values = {"e%d" % i: x.lam(i) for i in range(1, n + 1)}
    return eval_poly(newton_polynomial(n), values, x.ring)


def opposite_sigma(x, order=None):
    """Opposite structure: sigma_t(x) is the inverse of lambda_{-t}(x).

    Takes lambda data to the requested order and returns sigma data to the
    same order; applying the operation twice returns the original data.
    """
    n = x.order if order is None else order
    if n > x.order:
        raise PrecisionError(
            "sigma to order %d needs lambda data to order %d, have %d"
            % (n, n, x.order)
        )
    lam = TruncSeries(x.ring, x.lambdas[: n + 1])
    return LambdaElement.from_series(lam.opposite())


class LambdaRule:
    """A lambda structure on some carrier: ring operations plus lam(n, x).

    Instances double as the operation table for evaluating the universal
    polynomials (from_int / add / mul), so identity checks can run over any
    carrier: integers, polynomial rings, or the big Witt ring itself.
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

    def lam(self, n, x):
        raise NotImplementedError

    def meaningful(self, a, b):
        """Whether comparing a and b actually tests anything."""
        return True

    def describe(self, a):
        return str(a)


class _IntegerCarrier(LambdaRule):
    """Plain Python ints as the carrier; subclasses choose lam."""

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b


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

    def from_int(self, n):
        return self.ring.from_int(n)

    def add(self, a, b):
        return self.ring.add(a, b)

    def mul(self, a, b):
        return self.ring.mul(a, b)

    def eq(self, a, b):
        return self.ring.eq(a, b)

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
        one_plus_t = TruncSeries.from_polynomial(
            self.ring, [self.ring.one(), self.ring.one()], self.precision
        )
        return WittElement(one_plus_t.pow(n))

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
    """One verified identity: what was compared and how it went."""

    __slots__ = ("kind", "indices", "status", "lhs", "rhs")

    def __init__(self, kind, indices, status, lhs=None, rhs=None):
        self.kind = kind
        self.indices = tuple(indices)
        self.status = status
        self.lhs = lhs
        self.rhs = rhs

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
        if self.lhs is not None:
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
    xy = rule.mul(x, y)
    for n in range(1, nmax + 1):
        try:
            lhs = rule.lam(n, xy)
            values = {}
            for i in range(1, n + 1):
                values["e%d" % i] = rule.lam(i, x)
                values["f%d" % i] = rule.lam(i, y)
            rhs = eval_poly(universal_P(n), values, rule)
            if rule.meaningful(lhs, rhs):
                status = "holds" if rule.eq(lhs, rhs) else "fails"
            else:
                status = "insufficient"
            entry = IdentityCheck(
                "product", (n,), status, rule.describe(lhs), rule.describe(rhs)
            )
        except PrecisionError:
            entry = IdentityCheck("product", (n,), "insufficient")
        entries.append(entry)
    for m in range(1, mmax + 1):
        for n in range(1, mmax // m + 1):
            try:
                lhs = rule.lam(m, rule.lam(n, x))
                values = {
                    "e%d" % i: rule.lam(i, x) for i in range(1, m * n + 1)
                }
                rhs = eval_poly(universal_Q(m, n), values, rule)
                if rule.meaningful(lhs, rhs):
                    status = "holds" if rule.eq(lhs, rhs) else "fails"
                else:
                    status = "insufficient"
                entry = IdentityCheck(
                    "composition",
                    (m, n),
                    status,
                    rule.describe(lhs),
                    rule.describe(rhs),
                )
            except PrecisionError:
                entry = IdentityCheck("composition", (m, n), "insufficient")
            entries.append(entry)
    return SpecialReport(entries)


_S_RING = PolynomialRing(["s"])


class GradedSpace:
    """Graded virtual vector space: an integer polynomial in s whose
    coefficient at s^j is the (possibly negative) dimension in degree j.
    """

    __slots__ = ("poly",)

    def __init__(self, poly):
        if not poly.variables() <= {"s"}:
            raise InvalidElementError("graded spaces live in the variable s")
        self.poly = poly

    @classmethod
    def from_coeffs(cls, dims):
        p = MultiPoly.const(0)
        for j, d in enumerate(dims):
            p = p.add(MultiPoly.var("s", j, d) if j else MultiPoly.const(d))
        return cls(p)

    def coefficient(self, j):
        return self.poly.coefficient_of("s", j).constant_term() if j else self.poly.constant_term()

    def degree(self):
        return self.poly.degree_in("s")

    def coeff_list(self):
        return [self.coefficient(j) for j in range(self.degree() + 1)]

    def constant_term(self):
        return self.poly.constant_term()

    def add(self, other):
        """Direct sum."""
        return GradedSpace(self.poly.add(other.poly))

    def mul(self, other):
        """Tensor product."""
        return GradedSpace(self.poly.mul(other.poly))

    def is_monoid_element(self):
        """Constant term 1 and no negative dimensions."""
        return self.constant_term() == 1 and all(
            c >= 0 for c in self.poly.terms.values()
        )

    def to_json(self):
        from .rings import poly_to_json

        return poly_to_json(self.poly)

    @classmethod
    def from_json(cls, obj):
        from .rings import poly_from_json

        return cls(poly_from_json(obj))

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.poly == other.poly

    __hash__ = None

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return "GradedSpace(%s)" % self.poly


def graded_lambda_sequence(v, upto):
    """lambda^0(v), ..., lambda^upto(v) computed in one product pass.

    lambda_t is multiplicative over the graded pieces; the piece of
    dimension V in degree p contributes the coefficient stream
    binom(V, i) (p odd: exterior powers) or binom(V+i-1, i) (p even:
    symmetric powers) at s^{p i} t^i.  Negative V follows the same
    binomials, which is exactly the series-inverse convention for
    virtual spaces.
    """
    if upto < 0:
        raise InvalidInputError("negative lambda index")
    total = TruncSeries.one(_S_RING, upto + 1)
    for p in range(v.degree() + 1):
        dim = v.coefficient(p)
        if dim == 0:
            continue
        coeffs = []
        for i in range(upto + 1):
            c = gen_binom(dim, i) if p % 2 else gen_binom(dim + i - 1, i)
            coeffs.append(MultiPoly.var("s", p * i, c) if p * i else MultiPoly.const(c))
        total = total.mul(TruncSeries(_S_RING, coeffs))
    return [GradedSpace(c) for c in total.coeffs]


def graded_lambda(m, v):
    """m-th lambda operation on a graded space."""
    return graded_lambda_sequence(v, m)[m]
