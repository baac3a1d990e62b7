"""Ring layer: arithmetic axioms, quotient reduction, fractions, JSON."""

from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from mzeta.errors import (
    ExactDivisionError,
    InvalidElementError,
    InvalidInputError,
    NotInvertibleError,
    RingMismatchError,
)
from mzeta.rationality import QQ
from mzeta.rings import (
    FractionElem,
    FractionField,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
    eval_poly,
    poly_from_json,
    poly_to_json,
    power,
    ring_from_json,
)
from mzeta.series import TruncSeries, series_from_json

Z = IntegerRing()
ZL = PolynomialRing(["L"])
ZXY = PolynomialRing(["x", "y"])
SQ = SquareZeroRing(["x"])


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
    assert p.substitute({"x": MultiPoly.const(3), "y": MultiPoly.const(4)}).as_int() == 2
    assert MultiPoly.const(0).is_zero()


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
    # ring arithmetic trusts its operands: a foreign element is rejected
    # where it enters, by series construction and by JSON load
    with pytest.raises(RingMismatchError):
        TruncSeries(ZL, [ZL.var("L"), MultiPoly.var("J")])
    with pytest.raises(RingMismatchError):
        TruncSeries(QQ, [QQ.one(), MultiPoly.const(1)])
    with pytest.raises(RingMismatchError):
        series_from_json({"ring": ZL.to_json(),
                          "coeffs": [poly_to_json(ZL.var("L")), poly_to_json(MultiPoly.var("J"))]})


def test_fraction_equality_cross_multiplication():
    L = ZL.var("L")
    num = ZL.sub(ZL.mul(L, L), L)  # L^2 - L
    den = ZL.sub(L, ZL.one())  # L - 1
    a = FractionElem(num, den)
    b = FractionElem(L, ZL.one())
    assert a == b
    assert not a == FractionElem(ZL.one(), ZL.one())
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
        a, b, c = (Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
        assert QQ.eq(QQ.add(a, b), QQ.add(b, a))
        assert QQ.eq(QQ.mul(a, QQ.add(b, c)), QQ.add(QQ.mul(a, b), QQ.mul(a, c)))
        if not QQ.is_zero(a):
            assert QQ.eq(QQ.mul(a, QQ.invert(a)), QQ.one())


def test_fraction_display_normalization():
    L = ZL.var("L")
    f = FractionElem(L.mul_int(2), MultiPoly.const(-4))
    n = f.normalized()
    assert str(n) == "(-L)/(2)" or str(n) == "(-1*L)/(2)"
    assert f == n


def test_rationals_are_one_fraction_backed_field():
    from_json = ring_from_json({"kind": "fraction", "of": {"kind": "integers"}})
    for ring in (FractionField(Z), from_json, copy.deepcopy(QQ), pickle.loads(pickle.dumps(QQ))):
        assert ring is QQ
    assert QQ.from_int(3) == Fraction(3)
    with pytest.raises(NotInvertibleError):
        QQ.invert(QQ.zero())
    with pytest.raises(RingMismatchError):
        QQ.validate(FractionElem(MultiPoly.const(1), MultiPoly.const(2)))


def test_fraction_field_of_a_polynomial_ring_is_rejected():
    # Q is the only field of fractions, built or read from JSON
    with pytest.raises(InvalidInputError):
        FractionField(ZL)
    with pytest.raises(InvalidInputError):
        ring_from_json({"kind": "fraction", "of": ZL.to_json()})


def test_rational_json_in_lowest_terms():
    a = QQ.elem_from_json({"num": {"terms": [{"c": "6", "e": {}}]},
                           "den": {"terms": [{"c": "-4", "e": {}}]}})
    assert a == Fraction(-3, 2)
    assert QQ.elem_to_json(a) == {
        "num": {"terms": [{"c": "-3", "e": {}}]},
        "den": {"terms": [{"c": "2", "e": {}}]},
    }
    # text is what the unreduced fraction printed
    for n, d in [(0, 5), (6, -4), (-7, 3), (12, 4), (5, 1)]:
        want = str(FractionElem(MultiPoly.const(n), MultiPoly.const(d)))
        assert QQ.elem_str(Fraction(n, d)) == want


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
    for ring in (Z, ZL, SQ, SquareZeroRing(prefix="x"), FractionField(Z)):
        blob = json.dumps(ring.to_json(), sort_keys=True)
        back = ring_from_json(json.loads(blob))
        assert back == ring
        assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_square_zero_json_with_vars_and_prefix_is_rejected():
    # one field must not silently win over the other
    with pytest.raises(InvalidInputError, match="either a variable list or a prefix"):
        ring_from_json({"kind": "square_zero", "vars": ["y"], "prefix": "x"})
    assert ring_from_json({"kind": "square_zero", "vars": ["y"]}).variables == ("y",)
    assert ring_from_json({"kind": "square_zero", "prefix": "x"}).prefix == "x"


def test_coefficients_exceed_machine_ints():
    big = 10**40
    a = MultiPoly.const(big)
    assert Z.mul(a, a).as_int() == 10**80
    blob = poly_to_json(Z.mul(a, a))
    assert poly_from_json(blob).as_int() == 10**80


def test_substitute_images_are_polynomials_or_ints():
    p = MultiPoly.var("x").add(MultiPoly.const(1))
    assert p.substitute({"x": 2}) == MultiPoly.const(3)
    assert p.substitute({"x": -1}).is_zero()
    # 2.7 gave 3, "3" gave 4 and Fraction(1, 2) a bare KeyError
    for bad in (2.7, "3", Fraction(1, 2), True, None):
        with pytest.raises(InvalidElementError, match="image of 'x' must be an integer"):
            p.substitute({"x": bad})
    # a name p does not use is ignored, but its image is still checked
    with pytest.raises(InvalidElementError, match="image of 'y' must be an integer"):
        p.substitute({"y": 0.5})


def test_constants_are_ints():
    # each stored the term {0: 0}, a zero value that is_zero() denied
    for call in (
        lambda: MultiPoly.const(Fraction(1, 2)),
        lambda: ZL.from_int(0.5),
        lambda: MultiPoly.const(True),
        lambda: SQ.from_int("1"),
    ):
        with pytest.raises(InvalidElementError, match="constant must be an integer"):
            call()
    assert ZL.from_int(0).is_zero() and MultiPoly.const(-4).as_int() == -4


def test_var_exponents_and_coefficients_are_ints():
    # a negative exponent gave 0
    for call in (lambda: MultiPoly.var("x", -1), lambda: ZXY.var("x", -2)):
        with pytest.raises(InvalidElementError, match="^negative exponent on 'x'$"):
            call()
    # 1.5 raised a bare TypeError, and a coefficient 0.5 was stored
    for call in (
        lambda: MultiPoly.var("x", 1.5),
        lambda: MultiPoly.var("x", 1, 0.5),
        lambda: ZXY.var("x", True),
    ):
        with pytest.raises(InvalidElementError, match="of 'x' must be an integer"):
            call()
    assert MultiPoly.var("x", 0, 5) == MultiPoly.const(5)
    assert MultiPoly.var("x", 3, 0).is_zero()


# each took a non-integer: mul_int stored the float coefficient 0.5,
# divide_int_exact gave 2.0, pow (of a polynomial or in a ring) and the
# constructor raised a bare TypeError and QQ.from_int gave Fraction(1, 2)
def test_mul_int_takes_integers():
    x = MultiPoly.var("x")
    for call in (lambda: x.mul_int(0.5), lambda: ZL.mul_int(ZL.var("L"), Fraction(1, 2)),
                 lambda: QQ.mul_int(Fraction(1, 3), 0.5), lambda: x.mul_int(True)):
        with pytest.raises(InvalidElementError, match="^a multiplier must be an integer, not "):
            call()
    assert x.mul_int(-3) == MultiPoly.var("x", 1, -3) and x.mul_int(0).is_zero()


def test_divide_int_exact_takes_integers():
    x6 = MultiPoly.var("x", 1, 6)
    for call in (lambda: x6.divide_int_exact(0.5), lambda: Z.divide_exact(Z.from_int(4), 2.0),
                 lambda: QQ.divide_exact(Fraction(1), 0.5)):
        with pytest.raises(InvalidElementError, match="^a divisor must be an integer, not float$"):
            call()
    assert x6.divide_int_exact(-2) == MultiPoly.var("x", 1, -3)
    with pytest.raises(ExactDivisionError, match="division by zero"):
        x6.divide_int_exact(0)


def test_pow_takes_integers():
    x = MultiPoly.var("x")
    for bad in (1.5, Fraction(2), "2", None):
        for call in (lambda: x.pow(bad), lambda: ZL.pow(ZL.var("L"), bad),
                     lambda: QQ.pow(Fraction(2), bad)):
            with pytest.raises(InvalidElementError, match="^an exponent must be an integer, not "):
                call()
    assert x.pow(3) == MultiPoly.var("x", 3) and x.pow(0) == MultiPoly.const(1)


def test_constructor_takes_integer_exponents_and_coefficients():
    with pytest.raises(InvalidElementError, match="^the exponent of 'x' must be an integer, not float$"):
        MultiPoly({(("x", 1.5),): 1})
    with pytest.raises(InvalidElementError, match="^a coefficient must be an integer, not float$"):
        MultiPoly({(("x", 1),): 0.5})
    assert MultiPoly({(("x", 2),): 3, (("x", 0),): 0}) == MultiPoly.var("x", 2, 3)


def test_qq_from_int_takes_integers():
    for bad in (0.5, Fraction(1, 2), True, "1"):
        with pytest.raises(InvalidElementError, match="^a ring constant must be an integer, not "):
            QQ.from_int(bad)
    assert QQ.from_int(-4) == Fraction(-4) and type(QQ.one()) is Fraction


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
