"""Witt arithmetic in ghost coordinates against a root oracle.

A WittElement holds its series, its ghost vector (the power sums of its
roots) or both, and every Witt operation works on ghost vectors.  The
oracle here uses no power sums: an element is a product of linear factors
f = prod(1 + r_i t), built by series multiplication, and each operation's
answer is the product of the linear factors of its roots.  The product of
f and g has roots r_i s_j, the k-th exterior power has roots prod_{i in S}
r_i over the k-subsets S (k = 0: the one root 1), and the n-th Adams
operation has roots r_i^n; the additive group is the series product and
inverse.  Roots are drawn from each of the four ring kinds, and the
generic case takes four root variables per factor at precision 5, where
e_1..e_4 are independent and the check is the universal identity.
Operands come in all three forms.  Read as lambda data, f is lambda_t(x)
of an element x with roots r_i: the Adams operation psi^n(x) reads a ghost
coordinate, p_n = sum r_i^n, and is also checked against Newton's identity,
and the opposite structure sigma_t(x) is prod (1 - r_i t)^(-1).
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from mzeta import series as series_module
from mzeta.errors import InvalidInputError, PrecisionError, RingMismatchError
from mzeta.lambda_rings import (
    BigWitt,
    WittElement,
    adams,
    opposite_sigma,
    witt_adams,
    witt_add,
    witt_lambda,
    witt_mul,
    witt_neg,
    witt_sub,
)
from mzeta.rings import QQ, IntegerRing, PolynomialRing, SquareZeroRing, eval_poly
from mzeta.series import TruncSeries, series_from_json
from mzeta.symfunc import newton_polynomial

RINGS = {
    "Z": IntegerRing(),
    "Z[L,a]": PolynomialRing(["L", "a"]),
    "Z[a,b]/sq": SquareZeroRing(["a", "b"]),
    "Q": QQ,
}
GENERIC = PolynomialRing(["r1", "r2", "r3", "r4", "s1", "s2", "s3", "s4"])
CASES = sorted(RINGS) + ["generic"]
FORMS = ("series", "ghost", "both")


def _random_coeff(rng, ring):
    if ring is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    c = ring.from_int(rng.randint(-3, 3))
    for v in getattr(ring, "variables", None) or ():
        c = ring.add(c, ring.mul(ring.from_int(rng.randint(-2, 2)), ring.var(v)))
    if isinstance(ring, SquareZeroRing):
        ab = ring.mul(ring.var("a"), ring.var("b"))
        c = ring.add(c, ring.mul(ring.from_int(rng.randint(-2, 2)), ab))
    return c


def _cases(name):
    """(ring, roots of f, roots of g, precision of f, precision of g)."""
    if name == "generic":
        rs = [GENERIC.var("r%d" % i) for i in range(1, 5)]
        ss = [GENERIC.var("s%d" % i) for i in range(1, 5)]
        return [(GENERIC, rs, ss, 5, 5), (GENERIC, rs, ss, 5, 3)]
    ring = RINGS[name]
    rng = random.Random(name)
    out = []
    for nf, ng in ((7, 7), (7, 5), (4, 8), (1, 1), (1, 4)):
        rs = [_random_coeff(rng, ring) for _ in range(rng.randint(0, 6))]
        ss = [_random_coeff(rng, ring) for _ in range(rng.randint(0, 6))]
        out.append((ring, rs, ss, nf, ng))
    return out


def _product(ring, xs):
    out = ring.one()
    for x in xs:
        out = ring.mul(out, x)
    return out


def _from_roots(ring, roots, precision):
    """prod (1 + r t) over the roots, by series multiplication."""
    out = TruncSeries.one(ring, precision)
    for r in roots:
        out = out.mul(TruncSeries.from_polynomial(ring, [ring.one(), r][:precision], precision))
    return out


def _exterior_roots(ring, roots, k):
    return [_product(ring, S) for S in itertools.combinations(roots, k)]


def _element(f, form):
    """The Witt element of series f, holding its series, its ghost vector
    or both."""
    w = WittElement(f)
    if form == "series":
        assert w._ghost is None
        return w
    if form == "ghost":
        w = witt_lambda(1, w)  # lambda^1 is a ghost slice: no series yet
        assert w._series is None
        return w
    w.ghost
    assert w._series is not None and w._ghost is not None
    return w


def _assert_series(w, want):
    assert w.precision == want.precision
    assert w.series.eq(want), "%s != %s" % (w.series, want)


@pytest.mark.parametrize("form_g", FORMS)
@pytest.mark.parametrize("form_f", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_ring_operations_match_series_reference(case, form_f, form_g):
    for ring, rs, ss, nf, ng in _cases(case):
        f, g = _from_roots(ring, rs, nf), _from_roots(ring, ss, ng)
        F, G = _element(f, form_f), _element(g, form_g)
        _assert_series(witt_add(F, G), f.mul(g))
        _assert_series(witt_sub(F, G), f.mul(g.inverse()))
        _assert_series(witt_neg(F), f.inverse())
        pairs = [ring.mul(r, s) for r in rs for s in ss]
        _assert_series(witt_mul(F, G), _from_roots(ring, pairs, min(nf, ng)))
        # the operands are unchanged by use
        assert F.series.eq(f) and G.series.eq(g)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_lambda_and_adams_match_series_reference(case, form):
    for ring, rs, ss, nf, ng in _cases(case):
        for roots, n in ((rs, nf), (ss, ng)):
            f = _from_roots(ring, roots, n)
            for k in range(5):
                # t^m needs f's coefficients up to t^(k m); lambda^0 needs none
                limit = (n - 1) // k + 1 if k else n + 2
                subsets = _exterior_roots(ring, roots, k)
                for m in range(1, limit + 1):
                    _assert_series(witt_lambda(k, _element(f, form), m),
                                   _from_roots(ring, subsets, m))
                if k:
                    _assert_series(witt_lambda(k, _element(f, form)),
                                   _from_roots(ring, subsets, limit))
                    with pytest.raises(PrecisionError):
                        witt_lambda(k, _element(f, form), limit + 1)
            for k in range(1, 5):
                limit = (n - 1) // k + 1
                powers = [_product(ring, [r] * k) for r in roots]
                for m in range(1, limit + 1):
                    _assert_series(witt_adams(k, _element(f, form), m),
                                   _from_roots(ring, powers, m))
                _assert_series(witt_adams(k, _element(f, form)), _from_roots(ring, powers, limit))
                with pytest.raises(PrecisionError):
                    witt_adams(k, _element(f, form), limit + 1)
            for bad in (0, -1, -2):
                for k in (0, 2):
                    with pytest.raises(PrecisionError):
                        witt_lambda(k, _element(f, form), bad)
                with pytest.raises(PrecisionError):
                    witt_adams(2, _element(f, form), bad)
            # lambda^0 reads no coefficient of f: f's precision by default
            _assert_series(witt_lambda(0, _element(f, form)), _from_roots(ring, [ring.one()], n))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_adams_matches_newton_table(ring_name):
    # psi^n(x) is the n-th ghost coordinate of lambda_t(x); the reference
    # evaluates Newton's p_n(e_1..e_n) at e_i = lambda^i(x)
    ring = RINGS[ring_name]
    rng = random.Random(ring_name)
    for order in (6, 8):
        coeffs = [ring.one()] + [_random_coeff(rng, ring) for _ in range(order)]
        x = WittElement(TruncSeries(ring, coeffs))
        for n in range(1, 7):
            values = {"e%d" % i: coeffs[i] for i in range(1, n + 1)}
            assert ring.eq(adams(n, x), eval_poly(newton_polynomial(n), values, ring))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", CASES)
def test_sigma_and_adams_match_roots(case, form):
    # x = lambda_t(x) = prod (1 + r_i t): sigma_t(x) = prod (1 - r_i t)^(-1)
    # and psi^k(x) = sum r_i^k
    for ring, rs, ss, nf, ng in _cases(case):
        for roots, n in ((rs, nf), (ss, ng)):
            f = _from_roots(ring, roots, n)
            for m in range(1, n + 1):
                want = TruncSeries.one(ring, m)
                for r in roots:
                    want = want.mul(TruncSeries.geometric(ring, r, m))
                _assert_series(opposite_sigma(_element(f, form), m - 1), want)
                if m == n:
                    _assert_series(opposite_sigma(_element(f, form)), want)
            with pytest.raises(PrecisionError):
                opposite_sigma(_element(f, form), n)
            for k in range(1, n):
                power_sum = ring.zero()
                for r in roots:
                    power_sum = ring.add(power_sum, _product(ring, [r] * k))
                assert ring.eq(adams(k, _element(f, form)), power_sum)
            with pytest.raises(PrecisionError):
                adams(n, _element(f, form))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_big_witt_from_int_is_a_power_of_one_plus_t(ring_name):
    ring = RINGS[ring_name]
    for precision in (2, 6):
        rule = BigWitt(ring, precision)
        one_t = TruncSeries.from_polynomial(ring, [ring.one(), ring.one()], precision)
        for n in range(-4, 5):
            _assert_series(rule.from_int(n), one_t.pow(n))


@pytest.mark.parametrize("form", FORMS)
def test_truncate_keeps_what_the_element_holds(form):
    ring = RINGS["Z[L,a]"]
    rng = random.Random(form)
    f = _from_roots(ring, [_random_coeff(rng, ring) for _ in range(8)], 9)
    F = _element(f, form)
    for m in (1, 4, 9):
        short = F.truncate(m)
        assert (short._series is None) == (F._series is None)
        assert (short._ghost is None) == (F._ghost is None)
        _assert_series(short, f.truncate(m))
    for bad in (0, 10):
        with pytest.raises(PrecisionError):
            F.truncate(bad)


# on a ghost-only element truncate(2.5) raised a bare TypeError from the
# slice, and truncate(True) kept True as the precision
@pytest.mark.parametrize("form", FORMS)
def test_truncate_takes_integers(form):
    F = _element(TruncSeries.from_ints(IntegerRing(), [1, 3, 3, 1]), form)
    for bad in (2.5, True, "2"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            F.truncate(bad)
    assert F.truncate(2).precision == 2


# BigWitt.pow(x, -1) reached rings.power, which never returned, and
# pow(x, False) was x^0; witt_mul raises after a few products so a
# regression fails fast
def test_big_witt_pow_takes_nonnegative_integers(monkeypatch):
    calls = [0]

    def bounded_mul(self, a, b):
        calls[0] += 1
        if calls[0] > 8:
            raise RuntimeError("pow formed more products than it needs")
        return witt_mul(a, b)

    monkeypatch.setattr(BigWitt, "mul", bounded_mul)
    ring = IntegerRing()
    rule = BigWitt(ring, 4)
    x = WittElement(TruncSeries.from_ints(ring, [1, 2, 0, 0]))
    for bad in (-1, 1.5, True, False, 0.0):
        with pytest.raises(InvalidInputError, match="^exponent must be"):
            rule.pow(x, bad)
    assert calls[0] == 0
    _assert_series(rule.pow(x, 2), witt_mul(x, x).series)
    _assert_series(rule.pow(x, 0), rule.from_int(1).series)


def test_ghost_is_read_only():
    F = WittElement(TruncSeries.from_ints(IntegerRing(), [1, 3, 3, 1]))
    assert F.ghost == tuple(series_module.power_sums(F.series, 3))
    with pytest.raises(AttributeError):
        F.ghost = ()
    with pytest.raises(AttributeError):
        F.series = F.series


@pytest.mark.parametrize("op", [witt_add, witt_sub, witt_mul])
@pytest.mark.parametrize("form", FORMS)
def test_ring_mismatch_raises(op, form):
    f = _element(TruncSeries.from_ints(IntegerRing(), [1, 1, 0]), form)
    g = _element(TruncSeries.from_ints(RINGS["Z[L,a]"], [1, 1, 0]), form)
    with pytest.raises(RingMismatchError):
        op(f, g)
    with pytest.raises(RingMismatchError):
        op(g, f)


def _l_series_json(rng, precision):
    """A random precision-N series over Z[L] with quadratic coefficients,
    shaped like the benchmark's additivity inputs."""
    coeffs = [{"terms": [{"c": "1", "e": {}}]}]
    for _ in range(precision - 1):
        terms = [{"c": str(rng.choice((-3, -2, -1, 1, 2, 3))), "e": {"L": d} if d else {}}
                 for d in range(3)]
        coeffs.append({"terms": terms})
    return {"ring": {"kind": "poly", "vars": ["L"]}, "precision": precision, "coeffs": coeffs}


def test_additivity_converts_each_input_once(monkeypatch):
    """lambda^n(f+g) against sum_i lambda^i(f) lambda^{n-i}(g), n = 2, 3.

    power_sums runs exactly twice: f and g arrive as series, and the first
    use of each (in f + g) computes its ghost vector, which the element
    then keeps.  Every other operand is either f, g, or the result of a
    Witt operation, and those are born in ghost coordinates.  Going back,
    to_json reconstructs each series with from_power_sums, never with
    power_sums.  The series-in, series-out operations called power_sums
    22 times for the same sequence.
    """
    calls = []
    original = series_module.power_sums

    def counting(f, upto):
        calls.append(upto)
        return original(f, upto)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mzeta") and \
                getattr(module, "power_sums", None) is original:
            monkeypatch.setattr(module, "power_sums", counting)

    rng = random.Random(16)
    f = WittElement(series_from_json(_l_series_json(rng, 16)))
    g = WittElement(series_from_json(_l_series_json(rng, 16)))
    total = witt_add(f, g)
    lhs, rhs = [], []
    for n in (2, 3):
        lhs.append(witt_lambda(n, total).to_json())
        acc = None
        for i in range(n + 1):
            term = witt_mul(witt_lambda(i, f), witt_lambda(n - i, g))
            acc = term if acc is None else witt_add(acc, term)
        rhs.append(acc.to_json())
    assert calls == [15, 15]
    assert lhs == rhs
