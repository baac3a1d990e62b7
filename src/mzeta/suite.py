"""Named self-checks runnable from the CLI and from the test suite.

Every documented behavior example has a named check here, plus the nine
acceptance checks that exercise whole pipelines.  Checks are deterministic:
randomized ones derive their generator from the battery seed and the check
name, so outcomes do not depend on execution order or selection.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr

from .errors import VarietySyntaxError
from .lambda_rings import (
    BigWitt,
    BinomialIntegers,
    GradedSpace,
    LambdaElement,
    LineMonomials,
    SigmaIntegers,
    WittElement,
    adams,
    check_special,
    graded_lambda,
    graded_lambda_sequence,
    opposite_sigma,
    witt_add,
    witt_lambda,
    witt_mul,
)
from .measures import (
    SurfaceData,
    boundedness_check,
    hilb_leading_term,
    irrationality_harness,
    mu,
    mu_sym_sequence,
)
from .motivic import (
    Affine,
    Curve,
    Disjoint,
    Point,
    Prod,
    Proj,
    ProjBundle,
    Torus,
    VectorBundle,
    cell_profile,
    parse_variety,
    specialize,
    virtual_finiteness_check,
    zeta_rational,
    zeta_series,
)
from .oracles import multiset_graded_lambda, point_counts
from .rationality import (
    QQ,
    GroupSeries,
    NoWitnessUpTo,
    PeriodFound,
    apply_measure,
    hankel_test,
    pade_reconstruct,
    periodic_ratio_test,
    pointwise_test,
    reconstruct_from_witness,
    verify_global,
)
from .rings import (
    FractionElem,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
    eval_poly,
)
from .series import TruncSeries, power_sums, series_from_json
from .symfunc import (
    elementary_symmetric,
    newton_polynomial,
    rewrite_in_elementaries,
    universal_P,
    universal_P_from_roots,
    universal_Q,
    universal_Q_from_roots,
    witt_product_coeff,
)

DEFAULT_SEED = 1729

_REGISTRY = {}


def check(name):
    def wrap(fn):
        if name in _REGISTRY:
            raise ValueError("duplicate check name %r" % name)
        _REGISTRY[name] = fn
        return fn

    return wrap


def _require(cond, message):
    if not cond:
        raise AssertionError(message)


class CheckOutcome:
    __slots__ = ("name", "ok", "seconds", "error")

    def __init__(self, name, ok, seconds, error=""):
        self.name = name
        self.ok = ok
        self.seconds = seconds
        self.error = error

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if not self.ok:
            out["error"] = self.error
        return out

    def __str__(self):
        tag = "PASS" if self.ok else "FAIL"
        base = "%s %s (%.2fs)" % (tag, self.name, self.seconds)
        return base if self.ok else "%s: %s" % (base, self.error)


def check_names():
    return tuple(_REGISTRY)


def run_checks(names=None, seed=DEFAULT_SEED):
    if names is None:
        selected = list(_REGISTRY)
    else:
        unknown = [n for n in names if n not in _REGISTRY]
        if unknown:
            from .errors import InvalidInputError

            raise InvalidInputError("unknown checks: %s" % ", ".join(unknown))
        selected = list(names)
    outcomes = []
    for name in selected:
        rng = random.Random("%d:%s" % (seed, name))
        start = time.monotonic()
        try:
            _REGISTRY[name](rng)
            outcomes.append(CheckOutcome(name, True, time.monotonic() - start))
        except AssertionError as e:
            outcomes.append(
                CheckOutcome(
                    name,
                    False,
                    time.monotonic() - start,
                    str(e) or "assertion failed",
                )
            )
        except Exception as e:
            outcomes.append(
                CheckOutcome(
                    name,
                    False,
                    time.monotonic() - start,
                    "%s: %s" % (type(e).__name__, e),
                )
            )
    return outcomes


# ---------------------------------------------------------------- helpers


_ZZ = IntegerRing()
_INTS = BinomialIntegers()


def _int(n):
    return MultiPoly.const(n)


def _L_ring():
    return PolynomialRing(("L",))


def _L_power(i):
    return MultiPoly.const(1) if i == 0 else MultiPoly.var("L", i)


def _one_minus(ring, c, precision):
    return TruncSeries.from_polynomial(ring, [ring.one(), ring.neg(c)], precision)


def _geom_sum(n):
    """1 + L + ... + L^n."""
    out = MultiPoly.const(1)
    for j in range(1, n + 1):
        out = out.add(MultiPoly.var("L", j))
    return out


def _fib_ints(n):
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def _random_witt(rng, ring, precision, degree=2, span=3):
    coeffs = [ring.one()]
    for _ in range(precision - 1):
        p = MultiPoly.const(rng.randint(-span, span))
        for d in range(1, degree + 1):
            c = rng.randint(-span, span)
            if c:
                p = p.add(MultiPoly.var("L", d).mul_int(c))
        coeffs.append(p)
    return WittElement(TruncSeries(ring, coeffs))


def _surface_general_type():
    return SurfaceData(q=0, pg=2, plurigenera=[2, 3, 4, 5, 6])


def _surface_k3():
    return SurfaceData(q=0, pg=1, plurigenera=[1, 1, 1, 1, 1])


def _surface_abelian():
    return SurfaceData(q=2, pg=1, plurigenera=[1, 1, 1])


def _surface_rational():
    return SurfaceData(q=0, pg=0, plurigenera=[0, 0, 0])


# ---------------------------------------------------------------- ring core


@check("ring_square_zero_product")
def _ring_square_zero_product(rng):
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    _require(ring.is_zero(ring.mul(x, x)), "x*x must reduce to zero")


@check("ring_additive_identity")
def _ring_additive_identity(rng):
    for _ in range(25):
        a = _int(rng.randint(-500, 500))
        _require(_ZZ.eq(_ZZ.add(_ZZ.zero(), a), a), "0 + a must equal a")


@check("ring_square_zero_partial_products")
def _ring_square_zero_partial(rng):
    ring = SquareZeroRing(prefix="x")
    x1 = ring.var_by_index(1)
    x3 = ring.var_by_index(3)
    both = ring.mul(x1, x3)
    _require(not both.is_zero(), "x1*x3 must survive")
    _require(ring.is_zero(ring.mul(both, x1)), "(x1*x3)*x1 must vanish")


@check("ring_fraction_cancellation")
def _ring_fraction_cancellation(rng):
    L = MultiPoly.var("L")
    lhs = FractionElem(
        MultiPoly.var("L", 2).add(L.neg()), L.add(MultiPoly.const(-1))
    )
    _require(lhs == FractionElem(L, MultiPoly.const(1)), "(L^2-L)/(L-1) = L")


@check("ring_square_zero_square_eq")
def _ring_square_zero_square_eq(rng):
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    _require(ring.eq(ring.mul(x, x), ring.zero()), "x^2 must equal 0")


@check("ring_poly_product_eq")
def _ring_poly_product_eq(rng):
    s = MultiPoly.var("s")
    one = MultiPoly.const(1)
    lhs = one.add(s).mul(one.add(s.mul_int(2)))
    rhs = one.add(s.mul_int(3)).add(MultiPoly.var("s", 2).mul_int(2))
    _require(lhs == rhs, "(1+s)(1+2s) = 1+3s+2s^2")


# ------------------------------------------------------------------ series


@check("series_inverse_cancels")
def _series_inverse_cancels(rng):
    f = _one_minus(_ZZ, _ZZ.one(), 10)
    _require(f.inverse().mul(f).eq(TruncSeries.one(_ZZ, 10)), "f^-1 f = 1")


@check("series_two_point_counts")
def _series_two_point_counts(rng):
    zpt = TruncSeries.geometric(_ZZ, _ZZ.one(), 12)
    sq = zpt.mul(zpt)
    for n in range(12):
        _require(
            sq.coefficient(n) == _int(n + 1),
            "coefficient %d must be %d" % (n, n + 1),
        )


@check("series_square_zero_binomial_square")
def _series_square_zero_binomial(rng):
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    f = TruncSeries.from_polynomial(ring, [ring.one(), x], 8)
    expected = TruncSeries.from_polynomial(ring, [ring.one(), x.mul_int(2)], 8)
    _require(f.mul(f).eq(expected), "(1+xt)^2 = 1+2xt when x^2 = 0")


@check("series_geometric_inverse")
def _series_geometric_inverse(rng):
    inv = _one_minus(_ZZ, _ZZ.one(), 12).inverse()
    _require(
        all(inv.coefficient(i) == _int(1) for i in range(12)),
        "1/(1-t) has all coefficients 1",
    )


@check("series_square_zero_line_inverse")
def _series_square_zero_line_inverse(rng):
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    f = _one_minus(ring, ring.one().add(x), 8)
    inv = f.inverse()
    for i in range(8):
        expected = MultiPoly.const(1).add(x.mul_int(i))
        _require(ring.eq(inv.coefficient(i), expected), "(1+x)^i = 1+ix")


@check("series_projective_line_sums")
def _series_projective_line_sums(rng):
    ring = _L_ring()
    f = _one_minus(ring, ring.one(), 10).mul(
        _one_minus(ring, ring.var("L"), 10)
    ).inverse()
    for n in range(10):
        _require(
            ring.eq(f.coefficient(n), _geom_sum(n)),
            "coefficient %d must be 1+L+...+L^%d" % (n, n),
        )


@check("series_scale_by_L")
def _series_scale_by_L(rng):
    ring = _L_ring()
    f = TruncSeries.geometric(ring, ring.one(), 10).scale_arg(ring.var("L"))
    for i in range(10):
        _require(ring.eq(f.coefficient(i), _L_power(i)), "t -> Lt scales a_i by L^i")


@check("series_scale_identity")
def _series_scale_identity(rng):
    f = TruncSeries.from_ints(_ZZ, [rng.randint(-9, 9) for _ in range(10)])
    _require(f.scale_arg(_ZZ.one()).eq(f), "scaling by 1 is the identity")


@check("series_scale_involution")
def _series_scale_involution(rng):
    f = TruncSeries.from_ints(_ZZ, [rng.randint(-9, 9) for _ in range(10)])
    flip = _int(-1)
    _require(f.scale_arg(flip).scale_arg(flip).eq(f), "t -> -t twice is the identity")


@check("series_opposite_line")
def _series_opposite_line(rng):
    f = TruncSeries.from_polynomial(_ZZ, [_int(1), _int(1)], 10)
    _require(
        f.opposite().eq(TruncSeries.geometric(_ZZ, _ZZ.one(), 10)),
        "opposite of 1+t is the geometric series",
    )


@check("series_opposite_involution")
def _series_opposite_involution(rng):
    coeffs = [1] + [rng.randint(-5, 5) for _ in range(9)]
    f = TruncSeries.from_ints(_ZZ, coeffs)
    _require(f.opposite().opposite().eq(f), "opposite is an involution")


@check("series_opposite_projective_line")
def _series_opposite_projective_line(rng):
    ring = _L_ring()
    L = ring.var("L")
    f = TruncSeries.from_polynomial(ring, [ring.one(), ring.one()], 12).mul(
        TruncSeries.from_polynomial(ring, [ring.one(), L], 12)
    )
    oracle = _one_minus(ring, ring.one(), 12).mul(_one_minus(ring, L, 12)).inverse()
    _require(f.opposite().eq(oracle), "(1+t)(1+Lt) flips to the zeta of a line")


# ----------------------------------------------------------------- symfunc


@check("symfunc_rewrite_power_sum")
def _symfunc_rewrite_power_sum(rng):
    p = MultiPoly.var("a1", 2).add(MultiPoly.var("a2", 2))
    got = rewrite_in_elementaries(p, [["a1", "a2"]])
    expected = MultiPoly.var("e1", 2).add(MultiPoly.var("e2").mul_int(-2))
    _require(got == expected, "a1^2+a2^2 = e1^2-2e2")


@check("symfunc_rewrite_generator")
def _symfunc_rewrite_generator(rng):
    p = MultiPoly.var("a1").add(MultiPoly.var("a2"))
    got = rewrite_in_elementaries(p, [["a1", "a2"]])
    _require(got == MultiPoly.var("e1"), "a1+a2 = e1")


@check("symfunc_rewrite_mixed_product")
def _symfunc_rewrite_mixed(rng):
    a1, a2 = MultiPoly.var("a1"), MultiPoly.var("a2")
    p = a1.mul(a1).mul(a2).add(a1.mul(a2).mul(a2))
    got = rewrite_in_elementaries(p, [["a1", "a2"]])
    _require(
        got == MultiPoly.var("e1").mul(MultiPoly.var("e2")),
        "a1^2 a2 + a1 a2^2 = e1 e2",
    )


@check("symfunc_P1_shape")
def _symfunc_P1(rng):
    _require(
        universal_P(1) == MultiPoly.var("e1").mul(MultiPoly.var("f1")),
        "P_1 = e1 f1",
    )


@check("symfunc_P2_shape")
def _symfunc_P2(rng):
    expected = (
        MultiPoly.var("e1", 2)
        .mul(MultiPoly.var("f2"))
        .add(MultiPoly.var("e2").mul(MultiPoly.var("f1", 2)))
        .add(MultiPoly.var("e2").mul(MultiPoly.var("f2")).mul_int(-2))
    )
    _require(universal_P(2) == expected, "P_2 = e1^2 f2 + e2 f1^2 - 2 e2 f2")


@check("symfunc_P2_binomial_value")
def _symfunc_P2_binomial(rng):
    values = {"e1": 2, "e2": 1, "f1": 2, "f2": 1}
    got = eval_poly(universal_P(2), values, _INTS)
    _require(got == 6, "P_2 at the rank-two data must be C(4,2) = 6")


@check("symfunc_Q_first_row")
def _symfunc_Q_first_row(rng):
    for n in range(1, 5):
        _require(
            universal_Q(1, n) == MultiPoly.var("e%d" % n),
            "Q_{1,%d} must be e%d" % (n, n),
        )


@check("symfunc_Q22_shape")
def _symfunc_Q22(rng):
    expected = MultiPoly.var("e1").mul(MultiPoly.var("e3")).add(
        MultiPoly.var("e4").neg()
    )
    _require(universal_Q(2, 2) == expected, "Q_{2,2} = e1 e3 - e4")
    values = {"e%d" % i: math.comb(4, i) for i in range(1, 5)}
    _require(
        eval_poly(universal_Q(2, 2), values, _INTS) == 15,
        "Q_{2,2} at dimension 4 must be C(6,2) = 15",
    )


@check("symfunc_Q_binomial_consistency")
def _symfunc_Q_binomial(rng):
    for m in range(1, 4):
        for n in range(1, 4):
            if m * n > 9:
                continue
            q = universal_Q(m, n)
            for r in range(7):
                values = {"e%d" % i: math.comb(r, i) for i in range(1, m * n + 1)}
                got = eval_poly(q, values, _INTS)
                want = math.comb(math.comb(r, n), m)
                _require(
                    got == want,
                    "Q_{%d,%d} at r=%d gave %d, want %d" % (m, n, r, got, want),
                )


@check("symfunc_newton_small")
def _symfunc_newton_small(rng):
    e1, e2, e3 = (MultiPoly.var("e%d" % i) for i in (1, 2, 3))
    _require(newton_polynomial(1) == e1, "p_1 = e1")
    _require(newton_polynomial(2) == e1.mul(e1).add(e2.mul_int(-2)), "p_2 shape")
    expected = e1.mul(e1).mul(e1).add(e1.mul(e2).mul_int(-3)).add(e3.mul_int(3))
    _require(newton_polynomial(3) == expected, "p_3 = e1^3 - 3 e1 e2 + 3 e3")


@check("symfunc_witt_coeff_first")
def _symfunc_witt_first(rng):
    _require(
        witt_product_coeff(1) == MultiPoly.var("x1").mul(MultiPoly.var("y1")),
        "first product coefficient is x1 y1",
    )


@check("symfunc_witt_coeff_second")
def _symfunc_witt_second(rng):
    expected = (
        MultiPoly.var("x1", 2)
        .mul(MultiPoly.var("y2"))
        .add(MultiPoly.var("x2").mul(MultiPoly.var("y1", 2)))
        .add(MultiPoly.var("x2").mul(MultiPoly.var("y2")).mul_int(-2))
    )
    _require(witt_product_coeff(2) == expected, "second product coefficient shape")


@check("symfunc_witt_coeff_closure")
def _symfunc_witt_closure(rng):
    zero = MultiPoly.const(0)
    kill = {name: zero for name in ("x2", "x3", "y2", "y3")}
    got = witt_product_coeff(3).substitute(kill)
    _require(got.is_zero(), "degree-3 coefficient vanishes for two linear factors")


# ------------------------------------------------------------- lambda witt


@check("witt_add_squares")
def _witt_add_squares(rng):
    one_t = TruncSeries.from_polynomial(_ZZ, [_int(1), _int(1)], 10)
    f = WittElement(one_t)
    _require(
        witt_add(f, f).series.eq(one_t.mul(one_t)),
        "Witt addition is series multiplication",
    )


@check("witt_add_identity")
def _witt_add_identity(rng):
    ring = _L_ring()
    f = _random_witt(rng, ring, 8)
    _require(
        witt_add(f, WittElement.one(ring, 8)).eq(f),
        "the constant series 1 is the additive identity",
    )


@check("witt_add_disjoint_union")
def _witt_add_disjoint(rng):
    ring = _L_ring()
    za = WittElement(TruncSeries.geometric(ring, ring.var("L"), 12))
    zp = WittElement(TruncSeries.geometric(ring, ring.one(), 12))
    total = witt_add(za, zp)
    oracle = _one_minus(ring, ring.one(), 12).mul(
        _one_minus(ring, ring.var("L"), 12)
    ).inverse()
    _require(total.series.eq(oracle), "zeta of a disjoint union multiplies")


@check("witt_mul_rank_one")
def _witt_mul_rank_one(rng):
    ring = PolynomialRing(("a", "b"))
    f = WittElement(TruncSeries.from_polynomial(ring, [ring.one(), ring.var("a")], 8))
    g = WittElement(TruncSeries.from_polynomial(ring, [ring.one(), ring.var("b")], 8))
    expected = TruncSeries.from_polynomial(
        ring, [ring.one(), ring.var("a").mul(ring.var("b"))], 8
    )
    _require(witt_mul(f, g).series.eq(expected), "(1+at)(1+bt) maps to 1+abt")


@check("witt_mul_unit_roots")
def _witt_mul_unit_roots(rng):
    one_t = TruncSeries.from_polynomial(_ZZ, [_int(1), _int(1)], 10)
    sq = WittElement(one_t.mul(one_t))
    single = WittElement(one_t)
    _require(
        witt_mul(sq, single).series.eq(one_t.mul(one_t)),
        "two unit roots times one unit root gives two unit roots",
    )


@check("witt_mul_degree_bound")
def _witt_mul_degree_bound(rng):
    f = WittElement(
        TruncSeries.from_polynomial(_ZZ, [_int(c) for c in (1, 1, 2, 1)], 12)
    )
    g = WittElement(
        TruncSeries.from_polynomial(_ZZ, [_int(c) for c in (1, 2, 1)], 12)
    )
    product = witt_mul(f, g)
    _require(
        product.series.is_zero_beyond(6),
        "product of degree 3 and degree 2 stops at degree 6",
    )


@check("witt_lambda_one")
def _witt_lambda_one(rng):
    f = _random_witt(rng, _L_ring(), 8)
    _require(witt_lambda(1, f).eq(f), "the first exterior power is the identity")


@check("witt_lambda_unit_roots")
def _witt_lambda_unit_roots(rng):
    one_t = TruncSeries.from_polynomial(_ZZ, [_int(1), _int(1)], 11)
    cube = one_t.mul(one_t).mul(one_t)
    lam2 = witt_lambda(2, WittElement(cube))
    _require(
        lam2.series.agrees_to(cube, lam2.precision),
        "three unit roots have C(3,2) = 3 pair products, all 1",
    )


@check("witt_lambda_zero_unit")
def _witt_lambda_zero_unit(rng):
    f = _random_witt(rng, _L_ring(), 8)
    lam0 = witt_lambda(0, f)
    expected = TruncSeries.from_polynomial(f.ring, [f.ring.one(), f.ring.one()], 8)
    _require(
        lam0.series.eq(expected),
        "the zeroth exterior power is 1+t, the product unit",
    )


@check("adams_one")
def _adams_one(rng):
    x = LambdaElement.integer_binomial(rng.randint(-6, 6), 4)
    _require(adams(1, x) == x.value, "psi^1 is the identity")


@check("adams_two_symbolic")
def _adams_two_symbolic(rng):
    ring = PolynomialRing(("x", "y"))
    x = LambdaElement(ring, [ring.one(), ring.var("x"), ring.var("y")])
    expected = MultiPoly.var("x", 2).add(MultiPoly.var("y").mul_int(-2))
    _require(adams(2, x) == expected, "psi^2 x = x^2 - 2 lambda^2 x")


@check("adams_line_powers")
def _adams_line_powers(rng):
    ring = PolynomialRing(("a",))
    x = LambdaElement.line(ring, ring.var("a"), 5)
    for n in range(1, 5):
        _require(
            adams(n, x) == MultiPoly.var("a", n),
            "psi^%d of a line element is its %d-th power" % (n, n),
        )


@check("sigma_binomial_value")
def _sigma_binomial_value(rng):
    x = LambdaElement.integer_binomial(2, 5)
    sigma = opposite_sigma(x)
    _require(sigma.lam(3) == _int(4), "sigma^3(2) = C(4,3) = 4")
    for n in range(6):
        _require(
            sigma.lam(n) == _int(math.comb(2 + n - 1, n)),
            "sigma^n(2) follows the symmetric-power count",
        )


@check("sigma_involution")
def _sigma_involution(rng):
    data = [_int(1)] + [_int(rng.randint(-5, 5)) for _ in range(5)]
    x = LambdaElement(_ZZ, data)
    _require(
        opposite_sigma(opposite_sigma(x)) == x,
        "the opposite of the opposite is the original",
    )


@check("sigma_of_unit")
def _sigma_of_unit(rng):
    sigma = opposite_sigma(LambdaElement.integer_binomial(1, 6))
    for n in range(7):
        _require(sigma.lam(n) == _int(1), "sigma^n(1) = 1")


@check("special_binomial_integers")
def _special_binomial(rng):
    rule = BinomialIntegers()
    for x in range(-3, 4):
        for y in range(-3, 4):
            report = check_special(rule, x, y, 4, 6)
            _require(
                report.all_hold,
                "binomial integers must satisfy the identities at x=%d y=%d"
                % (x, y),
            )


@check("special_sigma_failure")
def _special_sigma_failure(rng):
    rule = SigmaIntegers()
    report = check_special(rule, 2, 2, 2, 0)
    _require(not report.all_hold, "the battery must flag a failure")
    entry = report.find("product", 2)
    _require(entry is not None and entry.status == "fails", "sigma^2 identity fails")
    _require(
        entry.lhs == "10" and entry.rhs == "6",
        "recorded sides are 10 vs 6, got %s vs %s" % (entry.lhs, entry.rhs),
    )
    _require(rule.lam(2, 4) == 10, "sigma^2(4) = 10")
    values = {"e1": 2, "e2": 3, "f1": 2, "f2": 3}
    _require(
        eval_poly(universal_P(2), values, _INTS) == 6,
        "the product polynomial evaluates to 6",
    )


@check("special_line_elements")
def _special_line_elements(rng):
    ring = PolynomialRing(("u", "v"))
    rule = LineMonomials(ring)
    report = check_special(rule, ring.var("u"), ring.var("v"), 3, 4)
    _require(report.all_hold, "line elements satisfy all identities")


@check("graded_lambda_exterior")
def _graded_lambda_exterior(rng):
    g = 3
    v = GradedSpace.from_coeffs([1, g])
    for m in range(6):
        image = graded_lambda(m, v)
        for j in range(m + 1):
            _require(
                image.coefficient(j) == math.comb(g, j),
                "lambda^%d coefficient %d must be C(%d,%d)" % (m, j, g, j),
            )


@check("graded_lambda_k3_powers")
def _graded_lambda_k3(rng):
    v = GradedSpace.from_coeffs([1, 0, 1])
    for m in range(7):
        expected = [1 if j % 2 == 0 else 0 for j in range(2 * m + 1)]
        _require(
            graded_lambda(m, v).coeff_list() == expected,
            "lambda^%d of 1+s^2 is the truncated even sum" % m,
        )


@check("graded_lambda_zero")
def _graded_lambda_zero(rng):
    v = GradedSpace.from_coeffs([1, 5, 7])
    _require(
        graded_lambda(0, v) == GradedSpace.from_coeffs([1]),
        "lambda^0 is the unit",
    )


# -------------------------------------------------------------- rationality


@check("hankel_geometric_window")
def _hankel_geometric(rng):
    f = TruncSeries.geometric(_ZZ, _int(2), 12)
    report = hankel_test(f, 1, 4)
    _require(report.summary == (1, 0), "a geometric series vanishes at order 1")


@check("hankel_square_zero_window")
def _hankel_square_zero(rng):
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    f = TruncSeries(ring, [x] * 12)
    report = hankel_test(f, 1, 4)
    _require(
        report.summary == (1, 0),
        "a square-zero multiple passes the order-1 determinant test",
    )


@check("hankel_surviving_monomial")
def _hankel_surviving_monomial(rng):
    ring = SquareZeroRing(prefix="x")
    f = TruncSeries(ring, [ring.var_by_index(i + 1) for i in range(17)])
    report = hankel_test(f, 3, 10)
    _require(report.summary is None, "no vanishing window may be reported")
    for m in range(4):
        det = report.det(m, 0)
        key = tuple(sorted(("x%d" % (1 + 2 * j), 1) for j in range(m + 1)))
        _require(
            dict(det.items()).get(key) == 1,
            "the monomial x1 x3 ... x%d survives at order %d" % (1 + 2 * m, m),
        )


@check("verify_geometric")
def _verify_geometric(rng):
    f = TruncSeries.geometric(_ZZ, _ZZ.one(), 12)
    report = verify_global(f, [_int(1), _int(-1)], [_int(1)])
    _require(report.product_ok, "(1-t) sum t^i = 1")
    _require(report.uniqueness == "certified", "uniqueness holds over the integers")


@check("verify_fibonacci")
def _verify_fibonacci(rng):
    f = TruncSeries.from_ints(_ZZ, _fib_ints(15))
    report = verify_global(f, [_int(1), _int(-1), _int(-1)], [_int(1)])
    _require(report.product_ok, "the recurrence clears the denominator")
    _require(report.uniqueness == "certified", "uniqueness over the integers")


@check("verify_projective_line")
def _verify_projective_line(rng):
    ring = _L_ring()
    L = ring.var("L")
    f = _one_minus(ring, ring.one(), 12).mul(_one_minus(ring, L, 12)).inverse()
    g = [ring.one(), ring.one().add(L).neg(), L]
    report = verify_global(f, g, [ring.one()])
    _require(
        report.product_ok and report.uniqueness == "certified",
        "(1-t)(1-Lt) times the zeta of a line is 1",
    )


@check("pade_geometric")
def _pade_geometric(rng):
    f = TruncSeries.geometric(QQ, QQ.from_int(1), 10)
    result = pade_reconstruct(f, 1)
    _require(result.success, "degree 1 must succeed")
    _require(
        QQ.eq(result.den[0], QQ.from_int(1))
        and QQ.eq(result.den[1], QQ.from_int(-1)),
        "denominator 1 - t",
    )


@check("pade_fibonacci")
def _pade_fibonacci(rng):
    f = TruncSeries.from_ints(QQ, _fib_ints(12))
    result = pade_reconstruct(f, 2)
    _require(result.success, "degree 2 must succeed")
    want = [QQ.from_int(1), QQ.from_int(-1), QQ.from_int(-1)]
    _require(
        all(QQ.eq(a, b) for a, b in zip(result.den, want)),
        "denominator 1 - t - t^2",
    )
    _require(not pade_reconstruct(f, 1).success, "degree 1 must fail")


@check("pade_theta_gaps_fail")
def _pade_theta_fails(rng):
    coeffs = [1 if int(math.isqrt(i)) ** 2 == i else 0 for i in range(30)]
    f = TruncSeries.from_ints(QQ, coeffs)
    for d in range(5):
        _require(
            not pade_reconstruct(f, d).success,
            "square-gap series admits no degree-%d recurrence" % d,
        )


@check("pointwise_projective_line")
def _pointwise_projective_line(rng):
    ring = _L_ring()
    f = _one_minus(ring, ring.one(), 12).mul(
        _one_minus(ring, ring.var("L"), 12)
    ).inverse()
    verdict = pointwise_test(f, [{"L": 4}], 3)[0]
    _require(verdict.rational, "the count specialization is rational")
    want = [QQ.from_int(1), QQ.from_int(-5), QQ.from_int(4)]
    _require(
        all(QQ.eq(a, b) for a, b in zip(verdict.result.den, want)),
        "denominator (1-t)(1-4t)",
    )


@check("pointwise_augmentation")
def _pointwise_augmentation(rng):
    ring = SquareZeroRing(prefix="x")
    f = TruncSeries(ring, [ring.var_by_index(i + 1) for i in range(8)])
    verdict = pointwise_test(f, [{"*": 0}], 2)[0]
    _require(verdict.rational, "killing every nilpotent leaves a rational series")


@check("pointwise_euler_characteristic")
def _pointwise_euler(rng):
    ring = _L_ring()
    f = _one_minus(ring, ring.one(), 10).mul(
        TruncSeries.geometric(ring, ring.var("L"), 10)
    )
    verdict = pointwise_test(f, [{"L": 1}], 2)[0]
    _require(verdict.rational, "the L=1 specialization is rational")
    _require(verdict.result.den_deg == 0, "the image is the constant series 1")


@check("witness_monomial_powers")
def _witness_monomial_powers(rng):
    one = MultiPoly.const(1)
    L = MultiPoly.var("L")
    gs = GroupSeries.from_polynomials([_L_power(i) for i in range(20)])
    witness = periodic_ratio_test(gs, 4, 8)
    _require(isinstance(witness, PeriodFound), "powers of L have a period")
    _require(witness.period == 1 and witness.offset == 0, "period 1 from the start")
    _require(witness.ratios[0] == FractionElem(L, one), "the ratio is L")
    rebuilt = reconstruct_from_witness(gs, witness, 30)
    for i in range(30):
        _require(
            rebuilt.coeffs[i] == FractionElem(_L_power(i), one),
            "reconstruction matches L^i",
        )


@check("witness_half_speed_powers")
def _witness_half_speed(rng):
    one = MultiPoly.const(1)
    L = MultiPoly.var("L")
    gs = GroupSeries.from_polynomials([_L_power(i // 2) for i in range(24)])
    witness = periodic_ratio_test(gs, 4, 6)
    _require(
        isinstance(witness, PeriodFound) and witness.period == 2,
        "halved exponents have period 2",
    )
    _require(witness.offset == 0, "no offset needed")
    _require(
        all(h == FractionElem(L, one) for h in witness.ratios),
        "both residue ratios are L",
    )
    rebuilt = reconstruct_from_witness(gs, witness, 30)
    for i in range(30):
        _require(
            rebuilt.coeffs[i] == FractionElem(_L_power(i // 2), one),
            "reconstruction matches L^(i//2)",
        )


@check("witness_quadratic_exponents")
def _witness_quadratic(rng):
    gs = GroupSeries.from_polynomials([_L_power(i * i) for i in range(26)])
    witness = periodic_ratio_test(gs, 4, 8)
    _require(isinstance(witness, NoWitnessUpTo), "quadratic exponents defeat periods")
    _require(witness.n_max == 4 and witness.i0_max == 8, "bounds echoed back")


# ------------------------------------------------------------------ motivic


@check("parse_projective_plane")
def _parse_projective_plane(rng):
    _require(parse_variety("P(2)") == Proj(2), "P(2) parses")
    _require(parse_variety("  P ( 2 ) ") == Proj(2), "whitespace is ignored")


@check("parse_ruled_surface")
def _parse_ruled_surface(rng):
    _require(
        parse_variety("PB(Curve(1),1)") == ProjBundle(Curve(1), 1),
        "a ruled surface is a line bundle over a curve",
    )


@check("parse_error_position")
def _parse_error_position(rng):
    try:
        parse_variety("Prod(A(1)")
    except VarietySyntaxError as e:
        _require(e.offset == 10, "error lands at offset 10, got %d" % e.offset)
    else:
        raise AssertionError("truncated input must fail to parse")


@check("zeta_point_series")
def _zeta_point(rng):
    f = zeta_series(Point(), 8)
    _require(
        all(f.ring.eq(f.coefficient(i), f.ring.one()) for i in range(8)),
        "every symmetric power of a point is a point",
    )


@check("zeta_projective_line_series")
def _zeta_projective_line(rng):
    f = zeta_series(Proj(1), 5)
    for n in range(5):
        _require(
            f.ring.eq(f.coefficient(n), _geom_sum(n)),
            "coefficient %d is 1+L+...+L^%d" % (n, n),
        )


@check("zeta_torus_series")
def _zeta_torus(rng):
    f = zeta_series(Torus(1), 4)
    ring = f.ring
    expected = [
        MultiPoly.const(1),
        MultiPoly.var("L").add(MultiPoly.const(-1)),
        MultiPoly.var("L", 2).add(MultiPoly.var("L").neg()),
        MultiPoly.var("L", 3).add(MultiPoly.var("L", 2).neg()),
    ]
    for i, want in enumerate(expected):
        _require(ring.eq(f.coefficient(i), want), "torus coefficient %d" % i)


@check("rational_affine_three")
def _rational_affine_three(rng):
    form = zeta_rational(Affine(3))
    _require(form.num == [form.ring.one()], "numerator 1")
    _require(
        form.den == [form.ring.one(), MultiPoly.var("L", 3).neg()],
        "denominator 1 - L^3 t",
    )


@check("rational_projective_plane")
def _rational_projective_plane(rng):
    form = zeta_rational(Proj(2))
    _require(form.num == [form.ring.one()], "numerator 1")
    _require(len(form.den) == 4, "denominator degree 3")
    f = zeta_series(Proj(2), form.verified_to)
    report = verify_global(f, form.den, form.num)
    _require(report.product_ok, "closed form clears the series")


@check("rational_curve_two")
def _rational_curve_two(rng):
    form = zeta_rational(Curve(2))
    _require(
        form.ring.variables == ("L", "J", "c1", "c2", "c3"),
        "genus-2 model ring carries L, J, c1..c3",
    )
    _require(len(form.num) <= 5, "numerator degree at most 4")
    one = form.ring.one()
    L = form.ring.var("L")
    _require(
        form.den == [one, one.add(L).neg(), L],
        "denominator (1-t)(1-Lt)",
    )


@check("virtual_projective_line")
def _virtual_projective_line(rng):
    report = virtual_finiteness_check(Proj(1), 8)
    ring = report.lam.ring
    _require(report.kind == "direct" and report.polynomial, "directly finite")
    want = [ring.one(), ring.one().add(ring.var("L")), ring.var("L")]
    _require(report.witness_y == want, "lambda_t = (1+t)(1+Lt)")


@check("virtual_curve_difference")
def _virtual_curve_difference(rng):
    report = virtual_finiteness_check(Curve(2), 10)
    _require(report.kind == "difference", "a curve needs the difference form")
    _require(not report.polynomial, "lambda_t itself does not terminate")
    _require(len(report.witness_z) <= 5, "second witness has degree at most 4")
    num = zeta_rational(Curve(2)).num
    flipped = [c if j % 2 == 0 else c.neg() for j, c in enumerate(num)]
    _require(report.witness_z == flipped, "witness is the numerator at -t")


@check("virtual_point")
def _virtual_point(rng):
    report = virtual_finiteness_check(Point(), 4)
    ring = report.lam.ring
    _require(report.kind == "direct" and report.polynomial, "a point is finite")
    _require(report.witness_y == [ring.one(), ring.one()], "lambda_t = 1 + t")


@check("specialize_projective_line")
def _specialize_projective_line(rng):
    image = specialize(zeta_series(Proj(1), 5), {"L": 3})
    expected = [1, 4, 13, 40, 121]
    for i, want in enumerate(expected):
        _require(
            QQ.eq(image.coefficient(i), QQ.from_int(want)),
            "count at L=3 is (3^(n+1)-1)/2",
        )


@check("specialize_torus_at_one")
def _specialize_torus_at_one(rng):
    image = specialize(zeta_series(Torus(1), 6), {"L": 1})
    _require(QQ.eq(image.coefficient(0), QQ.from_int(1)), "constant term 1")
    _require(
        all(QQ.is_zero(image.coefficient(i)) for i in range(1, 6)),
        "all higher coefficients vanish at L=1",
    )


@check("specialize_affine_at_zero")
def _specialize_affine_at_zero(rng):
    image = specialize(zeta_series(Affine(1), 5), {"L": 0})
    _require(QQ.eq(image.coefficient(0), QQ.from_int(1)), "constant term 1")
    _require(
        all(QQ.is_zero(image.coefficient(i)) for i in range(1, 5)),
        "L=0 kills every positive symmetric power",
    )


CELL_CORPUS = (
    "point",
    "A(1)",
    "A(3)",
    "P(1)",
    "P(2)",
    "Gm(1)",
    "Gm(2)",
    "Gm(3)",
    "VB(P(1),2)",
    "PB(A(2),1)",
    "PB(P(1),2)",
    "Disj(P(1),A(2))",
    "Disj(Gm(1),point)",
    "Prod(P(1),P(1))",
    "Prod(Gm(1),A(1))",
)


def _variety_tree(rng, depth, curves=True):
    """Random grammar text of depth at most depth, with curves of genus at
    most 2 and never a positive-genus curve on both sides of a product."""
    if depth > 0 and rng.random() < 0.7:
        op = rng.choice(["Prod", "Disj", "VB", "PB"])
        left = _variety_tree(rng, depth - 1, curves)
        if op in ("VB", "PB"):
            return "%s(%s,%d)" % (op, left, rng.randint(1, 2))
        if op == "Prod" and cell_profile(parse_variety(left)) is None:
            curves = False
        return "%s(%s,%s)" % (op, left, _variety_tree(rng, depth - 1, curves))
    leaf = rng.choice(["point", "A", "P", "Gm"] + ["Curve"] * 2 * curves)
    if leaf == "Curve":
        return "Curve(%d)" % rng.randint(0, 2)
    return leaf if leaf == "point" else "%s(%d)" % (leaf, rng.randint(1, 3))


def _weil_polynomial(rng, genus, q):
    """Random integer 1 + a_1 t + ... + q^g t^(2g) with the functional
    equation P(t) = q^g t^(2g) P(1/(qt)); it need not come from a curve."""
    low = [1] + [rng.randint(-2 * i - 1, 2 * i + 1) for i in range(1, genus + 1)]
    return low + [q ** (genus - i) * low[i] for i in reversed(range(genus))]


def _curve_nodes(e):
    """The positive-genus Curve nodes of e in reading order."""
    if isinstance(e, Curve):
        return [e] if e.genus else []
    if isinstance(e, (ProjBundle, VectorBundle)):
        return _curve_nodes(e.base)
    if isinstance(e, (Disjoint, Prod)):
        return _curve_nodes(e.left) + _curve_nodes(e.right)
    return []


@check("zeta_point_counts")
def _zeta_point_counts(rng):
    """Under L -> q (and each curve's symbols read off a Weil polynomial)
    the ghost coordinates of a zeta series are signed point counts, which
    oracles.point_counts derives without any series code."""
    texts = list(CELL_CORPUS) + [_variety_tree(rng, 2) for _ in range(30)]
    terms = 6
    for text in texts:
        expr = parse_variety(text)
        f = zeta_series(expr, terms)
        curves = _curve_nodes(expr)
        for q in (2, 3, 5):
            weil = {id(c): _weil_polynomial(rng, c.genus, q) for c in curves}
            names = iter(f.ring.variables[1:])
            assignment = {"L": q}
            for c in curves:
                P = weil[id(c)]
                assignment[next(names)] = sum(P)
                for i in range(1, 2 * c.genus):
                    # t^i coefficient of P(t) / ((1 - t)(1 - q t))
                    assignment[next(names)] = sum(
                        P[j] * q ** m for j in range(i + 1) for m in range(i - j + 1)
                    )
            ghosts = power_sums(apply_measure(f, assignment), terms - 1)
            for n in range(1, terms):
                want = (-1) ** (n - 1) * point_counts(expr, q, n, weil)
                _require(
                    ghosts[n - 1] == want,
                    "%s at q=%d: ghost %d is %s, want %d"
                    % (text, q, n, ghosts[n - 1], want),
                )


# ----------------------------------------------------------------- measures


@check("mu_k3")
def _mu_k3(rng):
    _require(
        mu(_surface_k3(), 1) == GradedSpace.from_coeffs([1, 0, 1]),
        "K3-type measure is 1 + s^2",
    )


@check("mu_abelian")
def _mu_abelian(rng):
    _require(
        mu(_surface_abelian(), 1) == GradedSpace.from_coeffs([1, 2, 1]),
        "abelian-type measure is 1 + 2s + s^2",
    )


@check("mu_all_plurigenera_zero")
def _mu_all_zero(rng):
    s = SurfaceData(q=0, pg=0, plurigenera=[0, 0, 0], h1n={2: 0, 3: 0})
    for n in range(1, 4):
        _require(
            mu(s, n) == GradedSpace.from_coeffs([1]),
            "every measure of plurigenus-free data is 1",
        )


@check("sym_sequence_exterior")
def _sym_sequence_exterior(rng):
    entries = graded_lambda_sequence(GradedSpace.from_coeffs([1, 4]), 6)
    for m, entry in enumerate(entries):
        for j in range(m + 1):
            _require(
                entry.coefficient(j) == math.comb(4, j),
                "symmetric powers of curve-like data count exterior powers",
            )


@check("sym_sequence_k3")
def _sym_sequence_k3(rng):
    seq = mu_sym_sequence(_surface_k3(), 6)
    for m in range(7):
        expected = [1 if j % 2 == 0 else 0 for j in range(2 * m + 1)]
        _require(seq.entry(m).coeff_list() == expected, "entry m is the even sum")


@check("sym_sequence_abelian_entry")
def _sym_sequence_abelian(rng):
    seq = mu_sym_sequence(_surface_abelian(), 4)
    entry = seq.entry(2)
    _require(entry.coefficient(1) == 2, "degree-1 coefficient stays 2")
    _require(entry.coefficient(4) == 1, "leading coefficient 1")


@check("hilb_line_case")
def _hilb_line_case(rng):
    s = _surface_k3()
    for m in range(6):
        _require(hilb_leading_term(s, 2, m) == 1, "P_n = 1 gives 1 for every m")


@check("hilb_pair_choose")
def _hilb_pair_choose(rng):
    _require(
        hilb_leading_term(_surface_general_type(), 1, 3) == 4,
        "P = 2 at m = 3 gives C(4,3) = 4",
    )


@check("hilb_zero_case")
def _hilb_zero_case(rng):
    s = _surface_rational()
    _require(hilb_leading_term(s, 1, 0) == 1, "m = 0 gives the empty space")
    for m in range(1, 5):
        _require(hilb_leading_term(s, 1, m) == 0, "P_n = 0 kills every m >= 1")


@check("bounded_abelian_track")
def _bounded_abelian_track(rng):
    report = boundedness_check(mu_sym_sequence(_surface_abelian(), 6), 1)
    _require(report.values[1:] == [2] * 6, "the degree-1 track stays at 2")
    _require(report.s1_constant, "constant from m = 1 on")


@check("bounded_k3_track")
def _bounded_k3_track(rng):
    report = boundedness_check(mu_sym_sequence(_surface_k3(), 6), 1)
    _require(report.values == [0] * 7, "no degree-1 terms for K3-type data")


@check("bounded_leading_growth")
def _bounded_leading_growth(rng):
    report = boundedness_check(mu_sym_sequence(_surface_general_type(), 6), 0)
    _require(
        report.leading_values == [m + 1 for m in range(7)],
        "leading track is m+1 for pg = 2",
    )
    _require(report.leading_strictly_increasing, "strictly increasing")


@check("harness_general_type")
def _harness_general_type(rng):
    report = irrationality_harness(_surface_general_type(), 1, 10)
    _require(isinstance(report.witness, NoWitnessUpTo), "no witness in the box")
    _require(report.witness.n_max == 4 and report.witness.i0_max == 6, "box (4,6)")
    _require(
        report.certificate.argument == "tracks" and report.certificate.holds,
        "growth certificate from the trend tracks",
    )


@check("harness_all_zero_inapplicable")
def _harness_all_zero(rng):
    report = irrationality_harness(_surface_rational(), 1, 10)
    _require(not report.applicable, "no positive plurigenus, no harness")
    _require("1/(1 - t)" in report.note, "the rational series is named")


@check("harness_k3_direct")
def _harness_k3_direct(rng):
    report = irrationality_harness(_surface_k3(), 1, 10)
    _require(isinstance(report.witness, NoWitnessUpTo), "no witness in the box")
    _require(
        report.certificate.argument == "direct" and report.certificate.holds,
        "refutation by direct ratio comparison",
    )


# --------------------------------------------------------------------- cli


@check("cli_zeta_json")
def _cli_zeta_json(rng):
    from . import cli

    buf = io.StringIO()
    code = cli.run(["zeta", "P(1)", "--terms", "3", "--format", "json"], out=buf)
    _require(code == 0, "exit code 0")
    payload = json.loads(buf.getvalue())
    f = series_from_json(payload["series"])
    _require(f.eq(zeta_series(Proj(1), 3)), "emitted series matches the library")
    again = io.StringIO()
    cli.run(["zeta", "P(1)", "--terms", "3", "--format", "json"], out=again)
    _require(again.getvalue() == buf.getvalue(), "byte-identical reruns")


@check("cli_universal_newton")
def _cli_universal_newton(rng):
    from . import cli

    buf = io.StringIO()
    code = cli.run(["universal", "--which", "newton", "--n", "2"], out=buf)
    _require(code == 0, "exit code 0")
    _require(buf.getvalue().strip() == "e1^2 - 2*e2", "text form of p_2")


@check("cli_error_exits")
def _cli_error_exits(rng):
    from . import cli

    buf = io.StringIO()
    code = cli.run(["zeta", "Q(3)", "--terms", "2"], out=buf)
    _require(code == 1, "domain errors exit 1")
    payload = json.loads(buf.getvalue())
    _require(payload["error"]["error"] == "syntax", "machine-readable error body")
    buf = io.StringIO()
    code = cli.run(
        ["universal", "--which", "Q", "--n", "6", "--m", "2"], out=buf
    )
    _require(code == 1, "cutoff errors exit 1")
    _require(
        json.loads(buf.getvalue())["error"]["error"] == "degree_cutoff",
        "cutoff is reported, not silently computed",
    )
    with redirect_stderr(io.StringIO()):
        code = cli.run(["zeta", "P(1)"], out=io.StringIO())
    _require(code == 2, "usage errors exit 2")


# -------------------------------------------------------------- acceptance


@check("acceptance_1_lambda_axioms")
def _acceptance_1(rng):
    start = time.monotonic()
    ring = _L_ring()
    elems = [_random_witt(rng, ring, 16) for _ in range(50)]
    one_t = TruncSeries.from_polynomial(ring, [ring.one(), ring.one()], 16)
    for f in elems:
        short = f.truncate(6)
        lam0 = witt_lambda(0, short)
        _require(
            lam0.series.eq(one_t.truncate(6)),
            "lambda^0 is the product unit 1+t",
        )
        _require(witt_lambda(1, short).eq(short), "lambda^1 is the identity")
    pairs = list(zip(elems[0::2], elems[1::2]))
    for f, g in pairs:
        total = witt_add(f, g)
        for n in range(2, 4):
            lhs = witt_lambda(n, total)
            rhs = None
            for i in range(n + 1):
                term = witt_mul(witt_lambda(i, f), witt_lambda(n - i, g))
                rhs = term if rhs is None else witt_add(rhs, term)
            _require(lhs.eq(rhs), "additive expansion of lambda^%d" % n)
        rule = BigWitt(ring, 6)
        report = check_special(rule, f.truncate(6), g.truncate(6), 3, 0)
        _require(report.all_hold, "product identities hold on the big ring")
    elapsed = time.monotonic() - start
    _require(elapsed < 60, "criterion ran in %.1fs, over budget" % elapsed)


@check("acceptance_2_universal_polynomials")
def _acceptance_2(rng):
    for n in range(1, 5):
        _require(
            universal_P(n) == universal_P_from_roots(n, extra=1),
            "P_%d agrees with the root expansion and is stable" % n,
        )
        for r in range(7):
            for r2 in range(7):
                values = {}
                for i in range(1, n + 1):
                    values["e%d" % i] = math.comb(r, i)
                    values["f%d" % i] = math.comb(r2, i)
                _require(
                    eval_poly(universal_P(n), values, _INTS)
                    == math.comb(r * r2, n),
                    "P_%d binomial oracle at (%d,%d)" % (n, r, r2),
                )
    for m in range(1, 9):
        for n in range(1, 9):
            if m * n > 8:
                continue
            _require(
                universal_Q(m, n) == universal_Q_from_roots(m, n, extra=1),
                "Q_{%d,%d} agrees with the root expansion" % (m, n),
            )
            for r in range(7):
                values = {
                    "e%d" % i: math.comb(r, i) for i in range(1, m * n + 1)
                }
                _require(
                    eval_poly(universal_Q(m, n), values, _INTS)
                    == math.comb(math.comb(r, n), m),
                    "Q_{%d,%d} binomial oracle at r=%d" % (m, n, r),
                )
    for n in range(1, 9):
        names = tuple("a%d" % j for j in range(1, n + 1))
        ring = PolynomialRing(names)
        mapping = {
            "e%d" % i: elementary_symmetric(i, names) for i in range(1, n + 1)
        }
        got = eval_poly(newton_polynomial(n), mapping, ring)
        want = MultiPoly.const(0)
        for name in names:
            want = want.add(MultiPoly.var(name, n))
        _require(got == want, "p_%d back-substitutes to the power sum" % n)
        for r in range(7):
            values = {"e%d" % i: math.comb(r, i) for i in range(1, n + 1)}
            _require(
                eval_poly(newton_polynomial(n), values, _INTS) == r,
                "p_%d of r unit roots is r" % n,
            )


@check("acceptance_3_sigma_failure")
def _acceptance_3(rng):
    _special_sigma_failure(rng)


@check("acceptance_4_witt_closure")
def _acceptance_4(rng):
    ring = _L_ring()
    for _ in range(30):
        dm = rng.randint(0, 4)
        dn = rng.randint(0, 4)
        fc = [ring.one()] + [
            MultiPoly.const(rng.randint(-3, 3)) for _ in range(dm)
        ]
        gc = [ring.one()] + [
            MultiPoly.const(rng.randint(-3, 3)) for _ in range(dn)
        ]
        f = WittElement(TruncSeries.from_polynomial(ring, fc, 25))
        g = WittElement(TruncSeries.from_polynomial(ring, gc, 25))
        product = witt_mul(f, g)
        _require(
            product.series.is_zero_beyond(dm * dn),
            "coefficients above degree %d must vanish" % (dm * dn),
        )


@check("acceptance_5_curve_theorem")
def _acceptance_5(rng):
    for increment in ("J", "X"):
        for g in range(4):
            f = zeta_series(Curve(g), 25, increment=increment)
            ring = f.ring
            shear = _one_minus(ring, ring.one(), 25).mul(
                _one_minus(ring, ring.var("L"), 25)
            )
            _require(
                shear.mul(f).is_zero_beyond(2 * g),
                "numerator degree at most %d for genus %d" % (2 * g, g),
            )
    f = zeta_series(Proj(1), 25)
    ring = f.ring
    oracle = _one_minus(ring, ring.one(), 25).mul(
        _one_minus(ring, ring.var("L"), 25)
    ).inverse()
    _require(f.eq(oracle), "the zeta of a line is 1/((1-t)(1-Lt))")


@check("acceptance_6_counterexample_gallery")
def _acceptance_6(rng):
    start = time.monotonic()
    ring = SquareZeroRing(("x",))
    x = ring.var("x")
    report = hankel_test(TruncSeries(ring, [x] * 12), 1, 4)
    _require(report.summary == (1, 0), "nilpotent multiple vanishes at order 1")
    big = SquareZeroRing(prefix="x")
    f = TruncSeries(big, [big.var_by_index(i + 1) for i in range(17)])
    report = hankel_test(f, 3, 10)
    _require(report.summary is None, "distinct nilpotents never vanish")
    for m in range(4):
        key = tuple(sorted(("x%d" % (1 + 2 * j), 1) for j in range(m + 1)))
        _require(
            dict(report.det(m, 0).items()).get(key) == 1,
            "surviving monomial at order %d" % m,
        )
    verdict = pointwise_test(f, [{"*": 0}], 2)[0]
    _require(verdict.rational, "the augmentation image is rational")
    elapsed = time.monotonic() - start
    _require(elapsed < 30, "gallery ran in %.1fs, over budget" % elapsed)


@check("acceptance_7_periodic_ratio")
def _acceptance_7(rng):
    _witness_monomial_powers(rng)
    _witness_half_speed(rng)
    _witness_quadratic(rng)


@check("acceptance_8_measure_pipeline")
def _acceptance_8(rng):
    abelian = _surface_abelian()
    seq = mu_sym_sequence(abelian, 6)
    for m in range(7):
        _require(
            seq.entry(m).coeff_list() == multiset_graded_lambda(m, [1, 2, 1]),
            "generating function and multiset expansion agree at m=%d" % m,
        )
    track = boundedness_check(seq, 1)
    _require(track.values[1:] == [2] * 6, "degree-1 track constant at 2")
    general = _surface_general_type()
    leading = boundedness_check(mu_sym_sequence(general, 6), 0).leading_values
    for m in range(7):
        _require(
            leading[m] == hilb_leading_term(general, 1, m) == m + 1,
            "leading coefficient matches the symmetric-power count",
        )
    for surface in (general, _surface_k3(), abelian):
        report = irrationality_harness(surface, 1, 10)
        _require(
            isinstance(report.witness, NoWitnessUpTo),
            "no witness for %s" % surface,
        )
        _require(report.certificate.holds, "certificate for %s" % surface)
    report = irrationality_harness(_surface_rational(), 1, 10)
    _require(not report.applicable, "plurigenus-free data is out of scope")
    ones = TruncSeries.from_ints(QQ, [1] * 12)
    check_rational = verify_global(
        ones, [QQ.from_int(1), QQ.from_int(-1)], [QQ.from_int(1)]
    )
    _require(
        check_rational.product_ok and check_rational.uniqueness == "certified",
        "the all-ones measure series is 1/(1 - t)",
    )


def _predicted_pade_degree(profile, q):
    """Minimal diagonal reconstruction degree of a cell-profile zeta at L=q.

    Collapses the (1 - q^k t) factor multiset: factors with q^k = 0 drop
    out, equal values cancel between numerator and denominator, and the
    answer is the larger of the surviving numerator and denominator
    degrees (the diagonal needs both to fit).
    """
    net = {}
    for k, a in profile.items():
        value = q ** k
        if value == 0:
            continue
        net[value] = net.get(value, 0) + a
    den = sum(a for a in net.values() if a > 0)
    num = -sum(a for a in net.values() if a < 0)
    return max(den, num)


@check("acceptance_9_cross_module")
def _acceptance_9(rng):
    for text in CELL_CORPUS:
        expr = parse_variety(text)
        form = zeta_rational(expr)
        den_deg = len(form.den) - 1
        num_deg = len(form.num) - 1
        precision = max(den_deg + num_deg + 2, 2 * den_deg + 3, 16)
        f = zeta_series(expr, precision)
        report = verify_global(f, form.den, form.num)
        _require(
            report.product_ok and report.uniqueness == "certified",
            "%s: closed form fails the global check" % text,
        )
        hankel = hankel_test(f, den_deg, 2)
        _require(
            hankel.summary is not None and hankel.summary[0] <= den_deg,
            "%s: no vanishing window within the denominator degree" % text,
        )
        profile = cell_profile(expr)
        for q in range(5):
            d = _predicted_pade_degree(profile, q)
            image = apply_measure(f, {"L": q})
            _require(
                pade_reconstruct(image, d).success,
                "%s at L=%d: degree %d must succeed" % (text, q, d),
            )
            if d > 0:
                _require(
                    not pade_reconstruct(image, d - 1).success,
                    "%s at L=%d: degree %d must fail" % (text, q, d - 1),
                )
