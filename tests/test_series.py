"""Series layer: truncation rules, inversion, scaling, opposite, power sums,
and the ring.dot convolutions against schoolbook add/mul references."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from mzeta.errors import (
    ExactDivisionError,
    InvalidElementError,
    InvalidInputError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from mzeta.rings import (
    QQ,
    FractionField,
    IntegerRing,
    PolynomialRing,
    SquareZeroRing,
)
from mzeta import series as series_module
from mzeta.series import (
    TruncSeries,
    from_power_sums,
    ghost_exterior,
    poly_mul,
    poly_pow,
    power_sums,
    series_from_json,
)

Z = IntegerRing()
ZL = PolynomialRing(["L"])


def test_geometric_times_inverse_is_one():
    f = TruncSeries.geometric(ZL, ZL.var("L"), 12)
    g = f.inverse()
    assert g.mul(f).eq(TruncSeries.one(ZL, 12))
    # 1/(1-Lt) has inverse 1 - Lt
    assert [str(c) for c in g.coeffs[:3]] == ["1", "-L", "0"]


def test_truncate_below_one_is_a_precision_error():
    f = TruncSeries.from_ints(Z, [1, 2, 3, 4])
    for bad in (-1, 0):
        with pytest.raises(PrecisionError, match=str(bad)):
            f.truncate(bad)
    assert f.truncate(1).eq(TruncSeries.from_ints(Z, [1]))


# each took a non-integer: truncate(1.5) and geometric(..., 2.5) raised a
# bare TypeError, and truncate(True) and pow(True) were taken as 1
def test_truncate_takes_integers():
    f = TruncSeries.from_ints(Z, [1, 2, 3, 4])
    for bad in (1.5, True, Fraction(2), "2"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            f.truncate(bad)


def test_geometric_takes_integer_precision():
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            TruncSeries.geometric(QQ, QQ.one(), bad)
    assert TruncSeries.geometric(QQ, Fraction(1, 2), 3).coeffs == (1, Fraction(1, 2), Fraction(1, 4))


# each of these raised a bare TypeError on 1.5, and coefficient(True) read a_1
def test_coefficient_takes_integer_index():
    f = TruncSeries.from_ints(Z, [1, 2, 3, 4])
    for bad in (1.5, True, "1"):
        with pytest.raises(InvalidInputError, match="^coefficient index must be an integer$"):
            f.coefficient(bad)
    assert f.coefficient(1).as_int() == 2


def test_is_zero_beyond_takes_integer_degree():
    f = TruncSeries.from_ints(Z, [1, 2, 0, 0])
    for bad in (1.5, True, "1"):
        with pytest.raises(InvalidInputError, match="^degree must be an integer$"):
            f.is_zero_beyond(bad)
    assert f.is_zero_beyond(1) and not f.is_zero_beyond(0)


def test_one_takes_integer_precision():
    for bad in (1.5, True, "3"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            TruncSeries.one(Z, bad)
    assert TruncSeries.one(Z, 3).eq(TruncSeries.from_ints(Z, [1, 0, 0]))


def test_from_polynomial_takes_integer_precision():
    for bad in (1.5, True, "3"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            TruncSeries.from_polynomial(Z, [Z.one(), Z.one()], bad)
    assert TruncSeries.from_polynomial(Z, [Z.one()], 2).eq(TruncSeries.from_ints(Z, [1, 0]))


def test_power_sums_takes_integer_count():
    f = TruncSeries.from_ints(Z, [1, 3, 2])
    for bad in (1.5, True, "2"):
        with pytest.raises(InvalidInputError, match="^power sum count must be an integer$"):
            power_sums(f, bad)
    # roots 1 and 2
    assert [c.as_int() for c in power_sums(f, 2)] == [3, 5]


def test_from_power_sums_takes_integer_precision():
    ps = [Z.from_int(3), Z.from_int(5)]
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            from_power_sums(Z, ps, bad)
    assert from_power_sums(Z, ps, 3).eq(TruncSeries.from_ints(Z, [1, 3, 2]))


def test_ghost_exterior_takes_integer_index_and_precision():
    ps = power_sums(TruncSeries.from_ints(Z, [1, 3, 2, 0, 0, 0, 0]), 6)
    for bad in (1.5, True, "2"):
        with pytest.raises(InvalidInputError, match="^exterior power index must be an integer$"):
            ghost_exterior(Z, bad, ps, 3)
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            ghost_exterior(Z, 2, ps, bad)
    # the second exterior power of roots 1 and 2 is the one root 2
    assert [c.as_int() for c in ghost_exterior(Z, 2, ps, 3)] == [2, 4]


# agrees_to(f, 1.5) raised a bare TypeError from range, True compared one
# coefficient and -3 compared none
def test_agrees_to_takes_a_nonnegative_integer_precision():
    f = TruncSeries.from_ints(Z, [1, 2, 3, 4])
    g = TruncSeries.from_ints(Z, [5, 2, 3, 4])
    for bad in (1.5, True, "2"):
        with pytest.raises(InvalidInputError, match="^precision must be an integer$"):
            f.agrees_to(g, bad)
    for bad in (-1, -3):
        with pytest.raises(PrecisionError, match="negative precision %d" % bad):
            f.agrees_to(g, bad)
    assert f.agrees_to(g, 0) and not f.agrees_to(g, 1)
    assert f.agrees_to(f, 4)


# poly_pow(ring, p, -1) never returned and 1.5 raised a bare TypeError;
# poly_mul raises after a few products so a regression fails fast
def test_poly_pow_takes_nonnegative_integers(monkeypatch):
    calls = [0]

    def bounded_poly_mul(ring, a, b):
        calls[0] += 1
        if calls[0] > 8:
            raise RuntimeError("poly_pow formed more products than it needs")
        return poly_mul(ring, a, b)

    monkeypatch.setattr(series_module, "poly_mul", bounded_poly_mul)
    one_plus_t = [Z.one(), Z.one()]
    for bad in (1.5, True):
        with pytest.raises(InvalidInputError, match="^exponent must be an integer$"):
            poly_pow(Z, one_plus_t, bad)
    for bad in (-1, -4):
        with pytest.raises(InvalidInputError, match="^exponent must be nonnegative"):
            poly_pow(Z, one_plus_t, bad)
    assert calls[0] == 0
    assert [c.as_int() for c in poly_pow(Z, one_plus_t, 3)] == [1, 3, 3, 1]


def test_mul_truncates_to_min_precision():
    a = TruncSeries.from_ints(Z, [1, 1, 1, 1, 1])
    b = TruncSeries.from_ints(Z, [1, 2, 3])
    assert a.mul(b).precision == 3
    assert a.add(b).precision == 3
    with pytest.raises(PrecisionError):
        a.coefficient(7)


def test_pow_matches_repeated_product():
    f = TruncSeries.from_ints(Z, [1, 2, -1, 3, 0, 5])
    expected = TruncSeries.one(Z, 6)
    for n in range(7):
        assert f.pow(n).eq(expected)
        assert f.pow(-n).mul(expected).eq(TruncSeries.one(Z, 6))
        expected = expected.mul(f)


def test_pow_takes_integers():
    f = TruncSeries.from_ints(Z, [1, 2, -1])
    for bad in (1.5, True, Fraction(2), None):
        with pytest.raises(InvalidElementError, match="^an exponent must be an integer, not "):
            f.pow(bad)


def test_point_zeta_squared():
    ones = TruncSeries.from_ints(Z, [1] * 8)
    sq = ones.mul(ones)
    assert [c.as_int() for c in sq.coeffs] == [i + 1 for i in range(8)]


def test_inverse_in_square_zero_ring():
    ring = SquareZeroRing(["x"])
    x = ring.var("x")
    one = ring.one()
    # 1 - (x+1) t  ->  coefficients (1+x)^i = 1 + i x
    f = TruncSeries(ring, [one, ring.neg(ring.add(one, x))] + [ring.zero()] * 8)
    g = f.inverse()
    for i, c in enumerate(g.coeffs):
        assert ring.eq(c, ring.add(one, x.mul_int(i)))


def test_inverse_requires_unit_constant_term():
    f = TruncSeries.from_ints(Z, [2, 1, 1])
    with pytest.raises(NotInvertibleError):
        f.inverse()


def test_two_factor_inverse_partial_fractions_oracle():
    # 1/((1-t)(1-Lt)) should have coefficients 1 + L + ... + L^n
    L = ZL.var("L")
    one = ZL.one()
    n = 10
    f = TruncSeries.from_polynomial(ZL, [one, ZL.neg(ZL.add(one, L)), L], n)
    g = f.inverse()
    acc = ZL.zero()
    p = one
    for i in range(n):
        acc = ZL.add(acc, p)
        assert ZL.eq(g.coeffs[i], acc)
        p = ZL.mul(p, L)


def test_scale_arg_and_involution():
    rng = random.Random(3)
    coeffs = [1] + [rng.randint(-5, 5) for _ in range(9)]
    f = TruncSeries.from_ints(Z, coeffs)
    minus = Z.from_int(-1)
    assert f.scale_arg(minus).scale_arg(minus).eq(f)
    # opposite is an involution
    assert f.opposite().opposite().eq(f)


def test_opposite_of_p1_factorization():
    # (1+t)(1+Lt) maps to 1/((1-t)(1-Lt)) under f(t) -> f(-t)^{-1}
    L = ZL.var("L")
    one = ZL.one()
    n = 9
    f = TruncSeries.from_polynomial(ZL, [one, ZL.add(one, L), L], n)
    g = f.opposite()
    expect = TruncSeries.from_polynomial(ZL, [one, ZL.neg(ZL.add(one, L)), L], n).inverse()
    assert g.eq(expect)


def test_ring_mismatch_rejected():
    a = TruncSeries.from_ints(Z, [1, 2])
    b = TruncSeries.from_ints(ZL, [1, 2])
    with pytest.raises(RingMismatchError):
        a.mul(b)


def test_series_json_round_trip():
    L = ZL.var("L")
    f = TruncSeries(ZL, [ZL.one(), L, ZL.mul(L, L)])
    blob = json.dumps(f.to_json(), sort_keys=True)
    g = series_from_json(json.loads(blob))
    assert g.eq(f)
    assert json.dumps(g.to_json(), sort_keys=True) == blob
    q = FractionField(Z)
    h = TruncSeries(q, [q.one(), q.divide_exact(q.one(), 2)])
    blob2 = json.dumps(h.to_json(), sort_keys=True)
    assert series_from_json(json.loads(blob2)).eq(h)


@pytest.mark.parametrize(
    "precision, ncoeffs, kind",
    [(True, 1, "bool"), (2.0, 2, "float"), ("2", 2, "str")],
    ids=["true", "float", "string"],
)
def test_series_json_precision_must_be_an_int(precision, ncoeffs, kind):
    # each value equals (or prints as) the coefficient count, so only the
    # type check can reject it
    obj = TruncSeries.from_ints(Z, [1] * ncoeffs).to_json()
    obj["precision"] = precision
    with pytest.raises(InvalidInputError) as info:
        series_from_json(obj)
    assert info.value.payload()["error"] == "invalid_input"
    assert str(info.value) == "a series' 'precision' must be an integer, got %s" % kind


def test_power_sums_of_known_roots():
    # f = (1+t)(1+2t)(1+3t): p_k = 1 + 2^k + 3^k
    f = TruncSeries.from_ints(Z, [1, 6, 11, 6, 0, 0, 0, 0])
    p = power_sums(f, 7)
    for k in range(1, 8):
        assert p[k - 1].as_int() == 1 + 2**k + 3**k


def test_power_sums_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [1] + [rng.randint(-6, 6) for _ in range(9)]
        f = TruncSeries.from_ints(Z, coeffs)
        p = power_sums(f, 9)
        g = from_power_sums(Z, p, 10)
        assert g.eq(f)


def test_power_sums_precision_guard():
    f = TruncSeries.from_ints(Z, [1, 1, 1])
    with pytest.raises(PrecisionError):
        power_sums(f, 5)


# Schoolbook references: one r.add(acc, r.mul(x, y)) per product, the way
# the convolutions were written before they went through ring.dot.


def ref_series_mul(r, a, b):
    out = []
    for k in range(min(len(a), len(b))):
        acc = r.zero()
        for i in range(k + 1):
            acc = r.add(acc, r.mul(a[i], b[k - i]))
        out.append(acc)
    return out


def ref_inverse(r, a):
    u = r.invert(a[0])
    out = [u]
    for k in range(1, len(a)):
        acc = r.zero()
        for i in range(1, k + 1):
            acc = r.add(acc, r.mul(a[i], out[k - i]))
        out.append(r.neg(r.mul(u, acc)))
    return out


def ref_poly_mul(r, a, b):
    out = [r.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = r.add(out[i + j], r.mul(x, y))
    return out


def ref_power_sums(r, e, upto):
    p = []
    for k in range(1, upto + 1):
        acc = r.mul_int(e[k], k if k % 2 else -k)
        for i in range(1, k):
            term = r.mul(e[i], p[k - i - 1])
            acc = r.add(acc, term if i % 2 else r.neg(term))
        p.append(acc)
    return p


def ref_from_power_sums(r, psums, precision):
    e = [r.one()]
    for k in range(1, precision):
        acc = r.zero()
        for i in range(1, k + 1):
            term = r.mul(e[k - i], psums[i - 1])
            acc = r.add(acc, term if i % 2 else r.neg(term))
        e.append(r.divide_exact(acc, k))
    return e


CONV_RINGS = {
    "Z": Z,
    "poly": PolynomialRing(["L", "J", "c1"]),
    "square_zero": SquareZeroRing(["x1", "x2", "x3", "x4"]),
    "Q": FractionField(Z),
}


def _rand_elem(ring, rng):
    """A random element, zero about a quarter of the time."""
    if rng.random() < 0.25:
        return ring.zero()
    if ring.kind == "fraction":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    c = ring.from_int(rng.randint(-4, 4))
    names = getattr(ring, "variables", ())
    for _ in range(rng.randint(0, 3) if names else 0):
        term = ring.from_int(rng.randint(-3, 3))
        for v in rng.sample(names, rng.randint(1, 2)):
            term = ring.mul(term, ring.var(v))
        c = ring.add(c, term)
    return c


def _rand_list(ring, rng, n):
    return [_rand_elem(ring, rng) for _ in range(n)]


def _with_constant(ring, rng, a, unit):
    """a with its constant coefficient set to unit plus, in a square-zero
    quotient, a nilpotent (still a unit there).  Over Q unit is a Fraction,
    already an element."""
    c = unit if ring.kind == "fraction" else ring.from_int(unit)
    if ring.kind == "square_zero":
        c = ring.add(c, ring.sub(a[0], ring.from_int(a[0].constant_term())))
    return [c] + a[1:]


def _same(ring, got, want):
    # MultiPoly equality compares the term dicts, so a stored zero
    # coefficient in either list is a mismatch
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for i, (x, y) in enumerate(zip(got, want)):
        assert type(x) is type(y) and ring.eq(x, y), i


@pytest.mark.parametrize("kind", sorted(CONV_RINGS))
def test_series_mul_and_inverse_match_schoolbook(kind):
    ring = CONV_RINGS[kind]
    rng = random.Random("series-" + kind)
    for _ in range(40):
        a = _rand_list(ring, rng, rng.randint(1, 8))
        b = _rand_list(ring, rng, rng.randint(1, 8))
        _same(ring, TruncSeries(ring, a).mul(TruncSeries(ring, b)).coeffs, ref_series_mul(ring, a, b))
        unit = rng.choice((1, -1)) if ring.kind != "fraction" else Fraction(rng.choice((1, -3)), 2)
        a = _with_constant(ring, rng, a, unit)
        _same(ring, TruncSeries(ring, a).inverse().coeffs, ref_inverse(ring, a))


@pytest.mark.parametrize("kind", sorted(CONV_RINGS))
def test_poly_mul_matches_schoolbook(kind):
    ring = CONV_RINGS[kind]
    rng = random.Random("poly-" + kind)
    shapes = [(1, 1), (1, 5), (5, 1), (2, 7), (7, 2), (4, 4)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(20)]
    for n, m in shapes:
        a, b = _rand_list(ring, rng, n), _rand_list(ring, rng, m)
        _same(ring, poly_mul(ring, a, b), ref_poly_mul(ring, a, b))


@pytest.mark.parametrize("kind", sorted(CONV_RINGS))
def test_power_sums_match_schoolbook(kind):
    ring = CONV_RINGS[kind]
    rng = random.Random("psums-" + kind)
    for _ in range(30):
        n = rng.randint(1, 9)
        e = [ring.one()] + _rand_list(ring, rng, n - 1)
        p = power_sums(TruncSeries(ring, e), n - 1)
        _same(ring, p, ref_power_sums(ring, e, n - 1))
        _same(ring, from_power_sums(ring, p, n).coeffs, ref_from_power_sums(ring, p, n))
        _same(ring, from_power_sums(ring, p, n).coeffs, e)


@pytest.mark.parametrize("kind", sorted(CONV_RINGS))
def test_from_power_sums_of_arbitrary_sums_matches_schoolbook(kind):
    # sums that come from no series: over Z and Z[vars] a division by k may
    # fail, and then both sides must fail
    ring = CONV_RINGS[kind]
    rng = random.Random("arbitrary-" + kind)
    for _ in range(30):
        n = rng.randint(1, 7)
        p = _rand_list(ring, rng, n - 1)
        try:
            want = ref_from_power_sums(ring, p, n)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                from_power_sums(ring, p, n)
            continue
        _same(ring, from_power_sums(ring, p, n).coeffs, want)
