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

Every expression the grammar accepts has a zeta function that is a
product of factors 1/(1 - L^k t) and Z_C(L^k t), because
Z_{X u Y} = Z_X Z_Y and Z_{X x A^k}(t) = Z_X(L^k t).  One bottom-up walk
(``_factors``) returns that product as a map from factor to exponent: an
int key k is 1/(1 - L^k t), so the int part is a virtual cell
decomposition sum_k a_k [A^k]; a key (C, k) is Z_C(L^k t) for an atom C, a
positive-genus curve or a product of two curve-bearing sides.  Three
readers share the map.  ``cell_profile`` is the map when it has only int
keys.  ``zeta_series`` multiplies the atom series (symmetric-power
classes for a curve) and then applies the cell factors in place.
``zeta_rational`` writes Z_C(t) as a numerator N_C of degree at most 2g
over (1 - t)(1 - Lt), keeps the denominator as its list of factors (one
per unit of exponent), and certifies the closed form against the series
before returning it: the series, truncated at ``verified_to`` terms, is
multiplied by each factor in turn and must then equal the numerator mod
t^verified_to.  A product of two positive-genus curves has no closed
form here: the ring carries no symbols for symmetric powers of the product
and they are not determined by the factors, so those raise
NoClosedFormError beyond the linear term.
"""

import math

from .errors import (
    InvalidInputError,
    NoClosedFormError,
    PrecisionError,
    ToolkitError,
    VarietySyntaxError,
)
from .rationality import _check_images, _eval_poly_at, _product_holds, apply_measure
from .rings import JsonPayload, MultiPoly, PolynomialRing, _check_int, _json_int
from .series import TruncSeries, poly_mul, poly_pow, poly_scale_t, poly_str, poly_trim


def _check_param(value, what):
    _check_int(value, what)
    if value < 0:
        raise InvalidInputError("%s must be nonnegative" % what)


class _Node:
    """An expression node: immutable, equal to a node of its own type with
    equal fields, hashed as the tuple of its fields and shown as
    Type(field=value, ...).  A subclass lists its fields in __slots__, in
    the order its constructor takes them, and checks them in
    __post_init__."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                "%s() takes %d field values, got %d"
                % (type(self).__name__, len(self.__slots__), len(values))
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __reduce__(self):
        return type(self), self._values()


class Point(_Node):
    __slots__ = ()

    def __str__(self):
        return "point"


class Affine(_Node):
    __slots__ = ("n",)

    def __post_init__(self):
        _check_param(self.n, "affine dimension")

    def __str__(self):
        return "A(%d)" % self.n


class Proj(_Node):
    __slots__ = ("n",)

    def __post_init__(self):
        _check_param(self.n, "projective dimension")

    def __str__(self):
        return "P(%d)" % self.n


class Torus(_Node):
    __slots__ = ("d",)

    def __post_init__(self):
        _check_param(self.d, "torus rank")

    def __str__(self):
        return "Gm(%d)" % self.d


class Curve(_Node):
    __slots__ = ("genus",)

    def __post_init__(self):
        _check_param(self.genus, "genus")

    def __str__(self):
        return "Curve(%d)" % self.genus


class Prod(_Node):
    __slots__ = ("left", "right")

    def __str__(self):
        return "Prod(%s,%s)" % (self.left, self.right)


class Disjoint(_Node):
    __slots__ = ("left", "right")

    def __str__(self):
        return "Disj(%s,%s)" % (self.left, self.right)


class VectorBundle(_Node):
    __slots__ = ("base", "rank")

    def __post_init__(self):
        _check_param(self.rank, "bundle rank")

    def __str__(self):
        return "VB(%s,%d)" % (self.base, self.rank)


class ProjBundle(_Node):
    __slots__ = ("base", "rank")

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
    factors = _factors(e)
    return factors if _cells_only(factors) else None


class _Atom:
    """A curve-bearing node as half of a factor key, compared by identity:
    node equality makes two separate Curve(1) nodes equal."""

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node

    def __eq__(self, other):
        return self.node is other.node

    def __hash__(self):
        return id(self.node)


def _factors(e):
    """Z_e(t) as a map from factor to exponent (see the module docstring):
    an int key k is 1/(1 - L^k t) and a key (atom, k) is Z_atom(L^k t).
    VB(b, r) twists b by A(r), PB(b, r) twists it by P(r), and a product
    with a curve-free side twists the other side by that side's profile.
    """
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
        return {(_Atom(e), 0): 1} if e.genus else {0: 1, 1: 1}
    if isinstance(e, Disjoint):
        return _shifted({0: 1}, _factors(e.right), _factors(e.left))
    if isinstance(e, VectorBundle):
        return _shifted({e.rank: 1}, _factors(e.base))
    if isinstance(e, ProjBundle):
        return _shifted(dict.fromkeys(range(e.rank + 1), 1), _factors(e.base))
    if isinstance(e, Prod):
        left, right = _factors(e.left), _factors(e.right)
        if _cells_only(left):
            return _shifted(left, right)
        if _cells_only(right):
            return _shifted(right, left)
        return {(_Atom(e), 0): 1}
    raise InvalidInputError("not a variety expression: %r" % (e,))


def _cells_only(factors):
    return all(isinstance(key, int) for key in factors)


def _shifted(profile, factors, out=None):
    """out times the product over k of (factors at t -> L^k t)^(a_k): every
    key shifts by k and every exponent is scaled by a_k."""
    out = {} if out is None else out
    for k, a in profile.items():
        for key, v in factors.items():
            key = key + k if isinstance(key, int) else (key[0], key[1] + k)
            out[key] = out.get(key, 0) + a * v
    return {key: v for key, v in out.items() if v}


def _cell_series(ring, profile, c):
    """The series c times prod_k (1 - L^k t)^(-a_k), computed in place in
    the list c, one O(n) pass per unit of |a_k|.

    Dividing by (1 - x t) is c[i] += x c[i-1] going upward; multiplying by
    it is c[i] -= x c[i-1] going downward.
    """
    n = len(c)
    for k, a in sorted(profile.items()):
        x = ring.var("L", k)
        for _ in range(abs(a)):
            if a > 0:
                for i in range(1, n):
                    c[i] = ring.add(c[i], ring.mul(x, c[i - 1]))
            else:
                for i in range(n - 1, 0, -1):
                    c[i] = ring.sub(c[i], ring.mul(x, c[i - 1]))
    return TruncSeries(ring, c)


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
                bump = ring.mul(step, ring.var("L", m - g))
                value = ring.add(self._classes[m - 1], bump)
            self._classes.append(value)
        return self._classes[n]


def _check_terms(terms):
    _check_int(terms, "number of terms")
    if terms < 1:
        raise InvalidInputError("need at least one coefficient")


class MotivicModel:
    """Ring and curve bookkeeping for one variety expression.

    Positive-genus curve occurrences are numbered in reading order; each
    gets its own symbol family.  The same Curve object appearing twice (by
    reference) denotes the same curve.  ``curves`` lists those Curve nodes
    in that order, once each.
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
        self.curves = tuple(curves)
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
        _check_terms(terms)
        return self._zeta(subexpr, terms)

    def _zeta(self, e, n):
        """The atom series of _factors(e), each at its shift and exponent,
        multiplied, then the cell factors applied in place."""
        ring = self.ring
        factors = _factors(e)
        atoms = {}
        out = None
        for key, v in factors.items():
            if isinstance(key, int):
                continue
            atom, k = key
            if atom not in atoms:
                atoms[atom] = self._atom_series(atom.node, n)
            piece = atoms[atom]
            if k:
                piece = piece.scale_arg(ring.var("L", k))
            piece = piece.pow(v)
            out = piece if out is None else out.mul(piece)
        if out is None:
            coeffs = [ring.one()] + [ring.zero()] * (n - 1)
        else:
            coeffs = list(out.coeffs)
        cells = {k: a for k, a in factors.items() if isinstance(k, int)}
        return _cell_series(ring, cells, coeffs)

    def _atom_series(self, e, n):
        ring = self.ring
        if isinstance(e, Curve):
            return TruncSeries(ring, self._sym_classes(e, n))
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

    def _sym_classes(self, curve, n):
        model = self._models.get(id(curve))
        if model is None:
            raise InvalidInputError(
                "%s is not a node of this model's expression "
                "(curves are matched by identity)" % curve
            )
        return [model.sym_class(i) for i in range(n)]

    def rational_form(self, terms=None):
        """The closed form num/den of the zeta series f, certified as
        den f = num mod t^verified_to one factor of den at a time
        (rationality._product_holds).  f is expanded once, to max(terms,
        verified_to) coefficients, and kept as the form's series.  Without
        a closed form, the series to terms coefficients is expanded first,
        so its own error wins."""
        if terms is not None:
            _check_terms(terms)
        try:
            num, den, factors = self._closed_form()
        except ToolkitError:
            if terms is not None:
                self.zeta_series(terms)
            raise
        verified = (len(num) - 1) + (len(den) - 1) + 2
        f = self.zeta_series(max(terms or 0, verified))
        if not _product_holds(self.ring, f.coeffs[:verified], factors, num):
            raise RuntimeError(
                "closed form failed verification against the series; "
                "this is a bug"
            )
        return ZetaRationalForm(self.ring, num, den, verified, f)

    def _closed_form(self):
        """(num, den, factors) with den the product of the factors, one per
        unit of exponent.  Each curve key (C, k) with exponent v becomes
        N_C(L^k t)^v over ((1 - L^k t)(1 - L^(k+1) t))^v, where N_C, of
        degree at most 2g, is Z_C(t)(1 - t)(1 - Lt); the cell factors
        become binomials."""
        ring = self.ring
        num = [ring.one()]
        factors = []
        cells = {}
        numerators = {}
        for key, v in _factors(self.expr).items():
            if isinstance(key, int):
                cells[key] = cells.get(key, 0) + v
                continue
            atom, k = key
            curve = atom.node
            if not isinstance(curve, Curve):
                raise NoClosedFormError(
                    "no closed rational form for a product of two "
                    "positive-genus curves"
                )
            if atom not in numerators:
                classes = self._sym_classes(curve, 2 * curve.genus + 1)
                shear = _cell_series(ring, {0: -1, 1: -1}, classes)
                numerators[atom] = poly_trim(ring, shear.coeffs)
            base = numerators[atom]
            if k:
                base = poly_scale_t(ring, base, ring.var("L", k))
            if v > 0:
                num = poly_mul(ring, num, poly_pow(ring, base, v))
            else:
                factors += [base] * -v
            for j in (k, k + 1):
                cells[j] = cells.get(j, 0) + v
        for k, a in sorted(cells.items()):
            if not a:
                continue
            binom = [ring.one(), ring.neg(ring.var("L", k))]
            if a < 0:
                num = poly_mul(ring, num, poly_pow(ring, binom, -a))
            else:
                factors += [binom] * a
        den = [ring.one()]
        for factor in factors:
            den = poly_mul(ring, den, factor)
        return poly_trim(ring, num), poly_trim(ring, den), factors


class ZetaRationalForm(JsonPayload):
    """A numerator/denominator pair certified against the zeta series, the
    first verified_to coefficients of series."""

    def __init__(self, ring, num, den, verified_to, series):
        self.ring = ring
        self.num = num
        self.den = den
        self.verified_to = verified_to
        self.series = series

    def payload(self):
        return {
            "ring": self.ring.to_json(),
            "num": list(self.num),
            "den": list(self.den),
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


class VirtualFinitenessReport(JsonPayload):
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

    def payload(self):
        return {
            "expr": str(self.expr),
            "kind": self.kind,
            "lambda_series": self.lam.payload(),
            "polynomial_to_precision": self.polynomial,
            "witness_y": list(self.witness_y),
            "witness_z": list(self.witness_z),
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
    """Substitute ints or Fractions for the motivic symbols.

    A ring element becomes an int when its value is integral and a
    Fraction in lowest terms otherwise; a series becomes a series over the
    rationals.  Every variable that occurs must be covered by the
    assignment, with "*" accepted as an explicit default; an image that is
    not an int or a Fraction (a bool, a float, a string) is an
    InvalidMeasureError.
    """
    if isinstance(value, TruncSeries):
        return apply_measure(value, assignment)
    if not isinstance(value, MultiPoly):
        raise InvalidInputError("expected a ring element or series")
    _check_images(assignment)
    result = _eval_poly_at(value, assignment)
    if result.denominator == 1:
        return int(result)
    return result
