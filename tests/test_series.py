"""Series layer: truncation rules, inversion, scaling, opposite, power sums."""

from __future__ import annotations

import json
import random

import pytest

from mzeta.errors import NotInvertibleError, PrecisionError, RingMismatchError
from mzeta.rings import (
    FractionField,
    IntegerRing,
    PolynomialRing,
    SquareZeroRing,
)
from mzeta.series import TruncSeries, from_power_sums, power_sums, series_from_json

Z = IntegerRing()
ZL = PolynomialRing(["L"])


def test_geometric_times_inverse_is_one():
    f = TruncSeries.geometric(ZL, ZL.var("L"), 12)
    g = f.inverse()
    assert g.mul(f).eq(TruncSeries.one(ZL, 12))
    # 1/(1-Lt) has inverse 1 - Lt
    assert [str(c) for c in g.coeffs[:3]] == ["1", "-L", "0"]


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
