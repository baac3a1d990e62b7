"""Ring layer: arithmetic axioms, quotient reduction, fractions, JSON."""

from __future__ import annotations

import json
import random

import pytest

from mzeta.errors import (
    ExactDivisionError,
    InvalidElementError,
    NotInvertibleError,
    RingMismatchError,
)
from mzeta.rings import (
    FractionElem,
    FractionField,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
    eval_poly,
    poly_exact_div,
    poly_from_json,
    poly_to_json,
    power,
    ring_from_json,
)

Z = IntegerRing()
ZL = PolynomialRing(["L"])
ZXY = PolynomialRing(["x", "y"])
SQ = SquareZeroRing(["x"])
QL = FractionField(ZL)


def rand_poly(rng, ring, nvars=2, max_terms=4, max_exp=3, max_coeff=9):
    names = list(ring.variables) if getattr(ring, "variables", None) else []
    if not names and getattr(ring, "prefix", None):
        names = [ring.prefix + str(i) for i in range(1, nvars + 1)]
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = []
        for v in names:
            e = rng.randrange(max_exp + 1)
            if isinstance(ring, SquareZeroRing):
                e = min(e, 1)
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = rng.randint(-max_coeff, max_coeff)
    return MultiPoly(terms)


def test_multipoly_basics():
    x = MultiPoly.var("x")
    y = MultiPoly.var("y")
    p = x.mul(x).add(y.mul_int(-2)).add(MultiPoly.const(1))
    assert str(p) == "x^2 - 2*y + 1"
    assert p.total_degree() == 2
    assert p.degree_in("x") == 2 and p.degree_in("y") == 1
    assert p.substitute({"x": MultiPoly.const(3), "y": MultiPoly.const(4)}).as_int() == 2
    assert MultiPoly.const(0).is_zero()
    assert p.coefficient_of("x", 2).as_int() == 1


def test_ring_axioms_randomized():
    rng = random.Random(20260819)
    for ring in (Z, ZXY, SquareZeroRing(["u", "v", "w"])):
        for _ in range(60):
            a = rand_poly(rng, ring)
            b = rand_poly(rng, ring)
            c = rand_poly(rng, ring)
            if isinstance(ring, SquareZeroRing):
                a, b, c = ring.reduce(a), ring.reduce(b), ring.reduce(c)
            assert ring.eq(ring.add(a, b), ring.add(b, a))
            assert ring.eq(ring.mul(a, b), ring.mul(b, a))
            assert ring.eq(ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c)))
            assert ring.eq(ring.mul(a, ring.mul(b, c)), ring.mul(ring.mul(a, b), c))
            assert ring.eq(ring.add(a, ring.neg(a)), ring.zero())
            assert ring.eq(ring.mul(a, ring.one()), a)


def test_square_zero_reduction_is_eager():
    ring = SquareZeroRing(["x"])
    x = ring.var("x")
    one = ring.one()
    a = ring.add(one, x)
    # (1+x)^2 = 1 + 2x since x^2 dies
    sq = ring.mul(a, a)
    assert ring.eq(sq, ring.add(one, x.mul_int(2)))
    # units with nilpotent parts multiply to 1: (1+x)(1-x) = 1
    b = ring.sub(one, x)
    assert ring.eq(ring.mul(a, b), one)
    # stored elements may never carry squares
    with pytest.raises(InvalidElementError):
        ring.validate(MultiPoly.var("x", 2))


def test_square_zero_lazy_family():
    ring = SquareZeroRing(prefix="x")
    x3 = ring.var_by_index(3)
    x17 = ring.var_by_index(17)
    assert ring.eq(ring.mul(x3, x17), ring.mul(x17, x3))
    assert ring.is_zero(ring.mul(x3, x3))
    with pytest.raises(RingMismatchError):
        ring.validate(MultiPoly.var("y1"))


def test_square_zero_inverse():
    ring = SquareZeroRing(["x", "y"])
    x, y = ring.var("x"), ring.var("y")
    u = ring.add(ring.add(ring.one(), x), y)
    inv = ring.invert(u)
    assert ring.eq(ring.mul(u, inv), ring.one())
    v = ring.sub(x, ring.one())  # -1 + x
    assert ring.eq(ring.mul(v, ring.invert(v)), ring.one())
    with pytest.raises(NotInvertibleError):
        ring.invert(x)


def test_integer_ring_guards():
    with pytest.raises(RingMismatchError):
        Z.validate(MultiPoly.var("x"))
    assert Z.eq(Z.mul(Z.from_int(6), Z.from_int(-7)), Z.from_int(-42))
    with pytest.raises(NotInvertibleError):
        Z.invert(Z.from_int(2))


def test_mixed_ring_operands_rejected():
    with pytest.raises(RingMismatchError):
        ZL.add(ZL.var("L"), MultiPoly.var("J"))
    with pytest.raises(RingMismatchError):
        QL.add(QL.one(), MultiPoly.const(1))


def test_fraction_equality_cross_multiplication():
    L = ZL.var("L")
    num = ZL.sub(ZL.mul(L, L), L)  # L^2 - L
    den = ZL.sub(L, ZL.one())  # L - 1
    a = FractionElem(num, den)
    b = QL.from_base(L)
    assert QL.eq(a, b)
    assert not QL.eq(a, QL.one())
    # no auto-normalization: stored parts are what was given
    assert a.num == num and a.den == den


def test_fraction_unequal_to_other_types():
    # != follows __eq__: a non-fraction operand is unequal, without a warning
    one = FractionElem(MultiPoly.const(1), MultiPoly.const(1))
    assert one != 5 and not one == 5
    assert one != FractionElem(MultiPoly.const(2), MultiPoly.const(1))
    assert not one != FractionElem(MultiPoly.const(2), MultiPoly.const(2))


def test_fraction_field_arithmetic():
    rng = random.Random(7)
    for _ in range(40):
        parts = []
        for _ in range(3):
            num = rand_poly(rng, ZL, max_terms=3, max_exp=2)
            den = rand_poly(rng, ZL, max_terms=2, max_exp=2)
            if den.is_zero():
                den = MultiPoly.const(1)
            parts.append(FractionElem(num, den))
        a, b, c = parts
        assert QL.eq(QL.add(a, b), QL.add(b, a))
        assert QL.eq(QL.mul(a, QL.add(b, c)), QL.add(QL.mul(a, b), QL.mul(a, c)))
        if not QL.is_zero(a):
            assert QL.eq(QL.mul(a, QL.invert(a)), QL.one())


def test_fraction_display_normalization():
    L = ZL.var("L")
    f = FractionElem(L.mul_int(2), MultiPoly.const(-4))
    n = f.normalized()
    assert str(n) == "(-L)/(2)" or str(n) == "(-1*L)/(2)"
    assert QL.eq(f, n)


def test_poly_exact_div():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    a = x.add(y)
    b = x.sub(y)
    prod = a.mul(b)
    assert poly_exact_div(prod, a) == b
    with pytest.raises(ExactDivisionError):
        poly_exact_div(x, a)
    with pytest.raises(ExactDivisionError):
        poly_exact_div(MultiPoly.const(3), MultiPoly.const(2))


def test_divide_exact_by_int():
    p = MultiPoly.var("x").mul_int(6).add(MultiPoly.const(9))
    q = p.divide_int_exact(3)
    assert str(q) == "2*x + 3"
    with pytest.raises(ExactDivisionError):
        p.divide_int_exact(4)


def test_poly_json_round_trip_bit_exact():
    rng = random.Random(99)
    for _ in range(30):
        p = rand_poly(rng, ZXY)
        blob = json.dumps(poly_to_json(p), sort_keys=True)
        q = poly_from_json(json.loads(blob))
        assert p == q
        assert json.dumps(poly_to_json(q), sort_keys=True) == blob


def test_ring_json_round_trip():
    for ring in (Z, ZL, SQ, SquareZeroRing(prefix="x"), QL, FractionField(Z)):
        blob = json.dumps(ring.to_json(), sort_keys=True)
        back = ring_from_json(json.loads(blob))
        assert back == ring
        assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_coefficients_exceed_machine_ints():
    big = 10**40
    a = MultiPoly.const(big)
    assert Z.mul(a, a).as_int() == 10**80
    blob = poly_to_json(Z.mul(a, a))
    assert poly_from_json(blob).as_int() == 10**80


def test_power_by_squaring_product_count():
    count = [0]

    def mul(a, b):
        count[0] += 1
        return a * b

    for n in range(40):
        count[0] = 0
        assert power(3, n, mul, 1) == 3**n
        # bit_length - 1 squarings plus popcount - 1 combining products
        assert count[0] == max(n.bit_length() + bin(n).count("1") - 2, 0)
    x = MultiPoly.var("x")
    assert power(x, 1, mul, None) is x
    assert Z.pow(MultiPoly.const(-2), 0) == MultiPoly.const(1)
    assert ZL.pow(ZL.var("L"), 5) == MultiPoly.var("L", 5)


def test_eval_poly():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    expr = x.mul(x).add(y.mul_int(-1))  # x^2 - y
    val = eval_poly(expr, {"x": ZL.var("L"), "y": ZL.one()}, ZL)
    assert ZL.eq(val, ZL.sub(ZL.mul(ZL.var("L"), ZL.var("L")), ZL.one()))
