"""Variety expressions and their zeta series.

The expression language covers points, affine and projective spaces, split
tori, abstract smooth projective curves, disjoint unions, products, vector
bundles, and projective bundles.  Classes live in a free polynomial ring:
``L`` is the class of the affine line, and each positive-genus curve in an
expression contributes a Jacobian symbol together with free symbols for its
low symmetric powers (``J, c1, ..., c{2g-1}`` for the first curve, prefixed
families such as ``J2, c2_1, ...`` for later ones).  From degree ``2g`` on,
symmetric powers of a curve follow the stable recursion

    c[n] = c[n-1] + S * L^(n-g)        for n >= 2g,

where the step class ``S`` is the Jacobian symbol by default
(``increment="J"``) or the curve class ``c1`` itself (``increment="X"``).
Genus 0 is the projective line and needs no symbols at all.

``zeta_series`` and ``zeta_rational`` walk an expression by four rules.
Cells: a curve-free expression is a virtual sum of affine cells,
sum_k a_k [A^k] (``cell_profile``), and its zeta series is the product of
the factors (1 - L^k t)^(-a_k).  Twist: VB(X, r), PB(X, r) and a product
with a curve-free side are X twisted by a cell profile, and Z_{X x A^k}(t)
is Z_X(L^k t).  Curve: symmetric-power classes, or a numerator of degree at
most ``2g`` over (1 - t)(1 - Lt).  Disjoint: zeta series multiply.
``zeta_rational`` certifies its closed form against the series before
returning it.  A product of two positive-genus curves has no closed form
here: the ring carries no symbols for symmetric powers of the product and
they are not determined by the factors, so those raise NoClosedFormError
beyond the linear term.
"""

import math
from dataclasses import dataclass
from functools import reduce

from .errors import (
    InvalidInputError,
    NoClosedFormError,
    PrecisionError,
    VarietySyntaxError,
)
from .rationality import _eval_poly_at, verify_global
from .rings import MultiPoly, PolynomialRing, _json_int
from .series import TruncSeries, poly_mul, poly_pow, poly_scale_t, poly_str, poly_trim


def _check_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError("%s must be an integer" % what)


def _check_param(value, what):
    _check_int(value, what)
    if value < 0:
        raise InvalidInputError("%s must be nonnegative" % what)


@dataclass(frozen=True)
class Point:
    def __str__(self):
        return "point"


@dataclass(frozen=True)
class Affine:
    n: int

    def __post_init__(self):
        _check_param(self.n, "affine dimension")

    def __str__(self):
        return "A(%d)" % self.n


@dataclass(frozen=True)
class Proj:
    n: int

    def __post_init__(self):
        _check_param(self.n, "projective dimension")

    def __str__(self):
        return "P(%d)" % self.n


@dataclass(frozen=True)
class Torus:
    d: int

    def __post_init__(self):
        _check_param(self.d, "torus rank")

    def __str__(self):
        return "Gm(%d)" % self.d


@dataclass(frozen=True)
class Curve:
    genus: int

    def __post_init__(self):
        _check_param(self.genus, "genus")

    def __str__(self):
        return "Curve(%d)" % self.genus


@dataclass(frozen=True)
class Prod:
    left: object
    right: object

    def __str__(self):
        return "Prod(%s,%s)" % (self.left, self.right)


@dataclass(frozen=True)
class Disjoint:
    left: object
    right: object

    def __str__(self):
        return "Disj(%s,%s)" % (self.left, self.right)


@dataclass(frozen=True)
class VectorBundle:
    base: object
    rank: int

    def __post_init__(self):
        _check_param(self.rank, "bundle rank")

    def __str__(self):
        return "VB(%s,%d)" % (self.base, self.rank)


@dataclass(frozen=True)
class ProjBundle:
    base: object
    rank: int

    def __post_init__(self):
        _check_param(self.rank, "bundle rank")

    def __str__(self):
        return "PB(%s,%d)" % (self.base, self.rank)


_NODE_TYPES = (
    Point,
    Affine,
    Proj,
    Torus,
    Curve,
    Prod,
    Disjoint,
    VectorBundle,
    ProjBundle,
)


def _children(e):
    if isinstance(e, (Prod, Disjoint)):
        return (e.left, e.right)
    if isinstance(e, (VectorBundle, ProjBundle)):
        return (e.base,)
    return ()


def _check_expr(e):
    if not isinstance(e, _NODE_TYPES):
        raise InvalidInputError("not a variety expression: %r" % (e,))
    for child in _children(e):
        _check_expr(child)


class _Parser:
    """Recursive descent over the grammar

    expr := point | A(n) | P(n) | Gm(d) | Curve(g)
          | Prod(expr,expr) | Disj(expr,expr) | VB(expr,r) | PB(expr,r)

    Whitespace is skipped anywhere; error offsets are 1-based columns.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message, pos=None):
        where = self.pos if pos is None else pos
        raise VarietySyntaxError(message, where + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail("expected '%s'" % ch)
        self.pos += 1

    def parse_int(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            self.fail("expected an integer", start)
        value = _json_int(self.text[start:self.pos], "integer parameter")
        if value < 0:
            self.fail("negative parameter", start)
        return value

    def parse_expr(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            self.fail("expected a constructor")
        if name == "point":
            return Point()
        if name in ("A", "P", "Gm", "Curve"):
            ctor = {"A": Affine, "P": Proj, "Gm": Torus, "Curve": Curve}[name]
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            return ctor(n)
        if name in ("Prod", "Disj"):
            ctor = Prod if name == "Prod" else Disjoint
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return ctor(left, right)
        if name in ("VB", "PB"):
            ctor = VectorBundle if name == "VB" else ProjBundle
            self.expect("(")
            base = self.parse_expr()
            self.expect(",")
            rank = self.parse_int()
            self.expect(")")
            return ctor(base, rank)
        self.fail("unknown constructor '%s'" % name, start)


def parse_variety(text):
    if not isinstance(text, str):
        raise InvalidInputError("expected a string to parse")
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail("unexpected trailing input")
    return expr


def cell_profile(e):
    """Virtual cell decomposition of an expression.

    Returns a map from cell dimension k to the (possibly negative) number of
    copies of A(k), or None when the expression involves a positive-genus
    curve.  A torus Gm(d) is the alternating sum sum_k (-1)^(d-k) C(d,k) A(k).
    """
    if not _curve_free(e):
        return None
    if isinstance(e, Point):
        return {0: 1}
    if isinstance(e, Affine):
        return {e.n: 1}
    if isinstance(e, Proj):
        return {k: 1 for k in range(e.n + 1)}
    if isinstance(e, Torus):
        return {
            k: (-1) ** (e.d - k) * math.comb(e.d, k) for k in range(e.d + 1)
        }
    if isinstance(e, Curve):
        return {0: 1, 1: 1}
    if isinstance(e, Disjoint):
        out = cell_profile(e.left)
        for k, v in cell_profile(e.right).items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}
    twist = _twist(e)
    if twist is None:
        raise InvalidInputError("not a variety expression: %r" % (e,))
    profile, other = twist
    return _convolve(profile, cell_profile(other))


def _curve_free(e):
    """Whether no positive-genus curve occurs in e, so it has a cell profile."""
    if isinstance(e, Curve):
        return e.genus == 0
    return all(map(_curve_free, _children(e)))


def _twist(e):
    """(profile, other) when e is `other` twisted by a cell profile, else None.

    Then Z_e(t) is the product over k of Z_other(L^k t)^(a_k).  VB(b, r) is b
    twisted by A(r), PB(b, r) is b twisted by P(r), and a product is its
    other side twisted by a curve-free side, the left one first.
    """
    if isinstance(e, VectorBundle):
        return {e.rank: 1}, e.base
    if isinstance(e, ProjBundle):
        return dict.fromkeys(range(e.rank + 1), 1), e.base
    if isinstance(e, Prod):
        for side, other in ((e.left, e.right), (e.right, e.left)):
            if _curve_free(side):
                return cell_profile(side), other
    return None


def _cell_series(ring, profile, n):
    """prod_k (1 - L^k t)^(-a_k) to n terms, one O(n) pass per unit of |a_k|.

    Dividing by (1 - x t) is c[i] += x c[i-1] going upward; multiplying by
    it is c[i] -= x c[i-1] going downward.
    """
    c = [ring.one()] + [ring.zero()] * (n - 1)
    for k, a in sorted(profile.items()):
        x = MultiPoly.var("L", k)
        for _ in range(abs(a)):
            if a > 0:
                for i in range(1, n):
                    c[i] = ring.add(c[i], ring.mul(x, c[i - 1]))
            else:
                for i in range(n - 1, 0, -1):
                    c[i] = ring.sub(c[i], ring.mul(x, c[i - 1]))
    return TruncSeries(ring, c)


def _convolve(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _jacobian_name(index):
    return "J" if index == 1 else "J%d" % index


def _power_name(index, i):
    return "c%d" % i if index == 1 else "c%d_%d" % (index, i)


def _family_names(index, genus):
    names = [_jacobian_name(index)]
    names.extend(_power_name(index, i) for i in range(1, 2 * genus))
    return names


class CurveModel:
    """Symmetric-power classes of one positive-genus curve.

    Classes c1..c_{2g-1} are free symbols; later ones come from the stable
    recursion with step class J (default) or c1 (increment "X").
    """

    def __init__(self, ring, genus, index, increment):
        self.ring = ring
        self.genus = genus
        self.index = index
        self.increment = increment
        self._classes = [ring.one()]

    def sym_class(self, n):
        ring = self.ring
        g = self.genus
        while len(self._classes) <= n:
            m = len(self._classes)
            if m <= 2 * g - 1:
                value = ring.var(_power_name(self.index, m))
            else:
                if self.increment == "J":
                    step = ring.var(_jacobian_name(self.index))
                else:
                    step = ring.var(_power_name(self.index, 1))
                bump = ring.mul(step, MultiPoly.var("L", m - g))
                value = ring.add(self._classes[m - 1], bump)
            self._classes.append(value)
        return self._classes[n]


class MotivicModel:
    """Ring and curve bookkeeping for one variety expression.

    Positive-genus curve occurrences are numbered in reading order; each
    gets its own symbol family.  The same Curve object appearing twice (by
    reference) denotes the same curve.
    """

    def __init__(self, expr, increment="J"):
        if increment not in ("J", "X"):
            raise InvalidInputError("curve increment must be 'J' or 'X'")
        _check_expr(expr)
        self.expr = expr
        self.increment = increment
        curves = []
        seen = set()

        def walk(node):
            if isinstance(node, Curve) and node.genus >= 1:
                if id(node) not in seen:
                    seen.add(id(node))
                    curves.append(node)
            for child in _children(node):
                walk(child)

        walk(expr)
        names = ["L"]
        for idx, node in enumerate(curves, start=1):
            names.extend(_family_names(idx, node.genus))
        self.ring = PolynomialRing(names)
        self._models = {}
        for idx, node in enumerate(curves, start=1):
            self._models[id(node)] = CurveModel(
                self.ring, node.genus, idx, increment
            )
        self.L = self.ring.var("L")

    def zeta_series(self, terms):
        return self.series_of(self.expr, terms)

    def series_of(self, subexpr, terms):
        """Zeta series of a subexpression of this model's expression.

        Curve nodes are matched by object identity, so pass nodes taken from
        the expression the model was built with.
        """
        _check_int(terms, "number of terms")
        if terms < 1:
            raise InvalidInputError("need at least one coefficient")
        return self._zeta(subexpr, terms)

    def _zeta(self, e, n):
        ring = self.ring
        profile = cell_profile(e)
        if profile is not None:
            return _cell_series(ring, profile, n)
        if isinstance(e, Curve):
            model = self._models[id(e)]
            return TruncSeries(ring, [model.sym_class(i) for i in range(n)])
        if isinstance(e, Disjoint):
            return self._zeta(e.left, n).mul(self._zeta(e.right, n))
        twist = _twist(e)
        if twist is not None:
            profile, other = twist
            base = self._zeta(other, n)
            pieces = [
                base.scale_arg(MultiPoly.var("L", k)).pow(a)
                for k, a in sorted(profile.items())
            ]
            return reduce(TruncSeries.mul, pieces)
        if n <= 2:
            coeffs = [ring.one()]
            if n == 2:
                ca = self._zeta(e.left, 2).coefficient(1)
                cb = self._zeta(e.right, 2).coefficient(1)
                coeffs.append(ring.mul(ca, cb))
            return TruncSeries(ring, coeffs)
        raise NoClosedFormError(
            "the zeta series of a product of two positive-genus curves "
            "is not determined beyond the linear coefficient"
        )

    def rational_form(self):
        factors, num, den = self._form(self.expr)
        ring = self.ring
        for k, eps in sorted(factors.items()):
            binom = [ring.one(), ring.neg(MultiPoly.var("L", k))]
            piece = poly_pow(ring, binom, abs(eps))
            if eps > 0:
                num = poly_mul(ring, num, piece)
            else:
                den = poly_mul(ring, den, piece)
        num = poly_trim(ring, num)
        den = poly_trim(ring, den)
        verified = (len(num) - 1) + (len(den) - 1) + 2
        f = self.zeta_series(verified)
        report = verify_global(f, den, num)
        if not report.product_ok:
            raise RuntimeError(
                "closed form failed verification against the series; "
                "this is a bug"
            )
        return ZetaRationalForm(ring, num, den, verified)

    def _form(self, e):
        """Closed form as (factor exponents, extra numerator, extra denominator).

        The factor map sends k to the net exponent of (1 - L^k t); the extra
        polynomials carry curve numerators (and, through products against
        virtual cells, possibly curve denominators).
        """
        ring = self.ring
        profile = cell_profile(e)
        if profile is not None:
            return (
                {k: -a for k, a in profile.items()},
                [ring.one()],
                [ring.one()],
            )
        if isinstance(e, Curve):
            g = e.genus
            series = self._zeta(e, 2 * g + 1)
            shear = _cell_series(ring, {0: -1, 1: -1}, 2 * g + 1)
            num = poly_trim(ring, shear.mul(series).coeffs)
            return ({0: -1, 1: -1}, num, [ring.one()])
        if isinstance(e, Disjoint):
            return _form_mul(ring, self._form(e.left), self._form(e.right))
        twist = _twist(e)
        if twist is None:
            raise NoClosedFormError(
                "no closed rational form for a product of two "
                "positive-genus curves"
            )
        profile, other = twist
        base = self._form(other)
        out = ({}, [ring.one()], [ring.one()])
        for k, a in sorted(profile.items()):
            piece = _form_pow(ring, self._form_shift(base, k), a)
            out = _form_mul(ring, out, piece)
        return out

    def _form_shift(self, form, r):
        """Substitute t -> L^r t throughout a closed form."""
        if r == 0:
            return form
        factors, num, den = form
        ring = self.ring
        scale = MultiPoly.var("L", r)
        return (
            {k + r: v for k, v in factors.items()},
            poly_scale_t(ring, num, scale),
            poly_scale_t(ring, den, scale),
        )


def _form_mul(ring, fa, fb):
    factors = dict(fa[0])
    for k, v in fb[0].items():
        factors[k] = factors.get(k, 0) + v
    factors = {k: v for k, v in factors.items() if v}
    return (
        factors,
        poly_mul(ring, fa[1], fb[1]),
        poly_mul(ring, fa[2], fb[2]),
    )


def _form_pow(ring, form, a):
    factors = {k: v * a for k, v in form[0].items() if v * a}
    num = poly_pow(ring, form[1], abs(a))
    den = poly_pow(ring, form[2], abs(a))
    if a >= 0:
        return (factors, num, den)
    return (factors, den, num)


class ZetaRationalForm:
    """A numerator/denominator pair certified against the zeta series."""

    def __init__(self, ring, num, den, verified_to):
        self.ring = ring
        self.num = num
        self.den = den
        self.verified_to = verified_to

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "num": [self.ring.elem_to_json(c) for c in self.num],
            "den": [self.ring.elem_to_json(c) for c in self.den],
            "verified_to": self.verified_to,
        }

    def __str__(self):
        return "(%s) / (%s)" % (
            poly_str(self.ring, self.num),
            poly_str(self.ring, self.den),
        )


def zeta_series(expr, terms, increment="J"):
    return MotivicModel(expr, increment).zeta_series(terms)


def zeta_rational(expr, increment="J"):
    return MotivicModel(expr, increment).rational_form()


class VirtualFinitenessReport:
    """Outcome of the exterior-power polynomiality check.

    kind "direct" means the exterior series of the class itself ends within
    the window; kind "difference" exhibits the class as y - z with both
    exterior series polynomial: y the projective-line class and z the
    complementary class.
    """

    def __init__(self, expr, kind, lam, polynomial, witness_y, witness_z):
        self.expr = expr
        self.kind = kind
        self.lam = lam
        self.polynomial = polynomial
        self.witness_y = witness_y
        self.witness_z = witness_z

    @property
    def precision(self):
        return self.lam.precision

    def to_json(self):
        ring = self.lam.ring
        return {
            "expr": str(self.expr),
            "kind": self.kind,
            "lambda_series": self.lam.to_json(),
            "polynomial_to_precision": self.polynomial,
            "witness_y": [ring.elem_to_json(c) for c in self.witness_y],
            "witness_z": [ring.elem_to_json(c) for c in self.witness_z],
        }

    def __str__(self):
        ring = self.lam.ring
        lines = [
            "virtual finiteness of %s (window %d)" % (self.expr, self.precision),
            "  lambda_t: %s" % self.lam,
            "  polynomial within window: %s" % ("yes" if self.polynomial else "no"),
            "  witness y: %s" % poly_str(ring, self.witness_y),
            "  witness z: %s" % poly_str(ring, self.witness_z),
        ]
        return "\n".join(lines)


def virtual_finiteness_check(expr, precision, increment="J"):
    """Exhibit the class of expr as a difference of lambda-finite elements.

    Supported expressions: point, P(1), and Curve(g).  The opposite-structure
    series lambda_t of the class is the inverse of the zeta series at -t; for
    a curve it is not polynomial, but multiplying by the projective-line
    witness (1+t)(1+Lt) leaves a polynomial of degree at most 2g.
    """
    supported = isinstance(expr, (Point, Curve)) or (
        isinstance(expr, Proj) and expr.n == 1
    )
    if not supported:
        raise InvalidInputError(
            "virtual finiteness check supports point, P(1), and Curve(g)"
        )
    genus = expr.genus if isinstance(expr, Curve) else 0
    _check_int(precision, "precision")
    if precision < max(2 * genus + 2, 4):
        raise PrecisionError(
            "need precision at least %d" % max(2 * genus + 2, 4)
        )
    model = MotivicModel(expr, increment)
    ring = model.ring
    f = model.zeta_series(precision)
    at_minus_t = f.scale_arg(ring.from_int(-1))
    lam = at_minus_t.inverse()
    last = lam.last_nonzero()
    polynomial = last is not None and last < precision - 1
    if polynomial:
        return VirtualFinitenessReport(
            expr,
            "direct",
            lam,
            True,
            poly_trim(ring, lam.coeffs),
            [ring.one()],
        )
    pline = [ring.one(), ring.add(ring.one(), model.L), model.L]
    witness = TruncSeries.from_polynomial(ring, pline, precision).mul(at_minus_t)
    if not witness.is_zero_beyond(2 * genus):
        raise RuntimeError(
            "curve witness series has a nonzero tail; this is a bug"
        )
    return VirtualFinitenessReport(
        expr,
        "difference",
        lam,
        False,
        pline,
        poly_trim(ring, witness.coeffs[: 2 * genus + 1]),
    )


def specialize(value, assignment):
    """Substitute integers for the motivic symbols.

    A ring element becomes an integer (or exact fraction); a series becomes
    a series over the rationals.  Every variable that occurs must be covered
    by the assignment, with "*" accepted as an explicit default.
    """
    if isinstance(value, TruncSeries):
        from .rationality import apply_measure

        return apply_measure(value, assignment)
    if not isinstance(value, MultiPoly):
        raise InvalidInputError("expected a ring element or series")
    result = _eval_poly_at(value, assignment)
    if result.denominator == 1:
        return int(result)
    return result
