import random

import pytest

from mzeta.errors import InvalidElementError, InvalidInputError, PrecisionError
from mzeta.lambda_rings import (
    BigWitt,
    BinomialIntegers,
    GradedSpace,
    LambdaElement,
    LineMonomials,
    SigmaIntegers,
    WittElement,
    adams,
    check_special,
    gen_binom,
    graded_lambda,
    graded_lambda_sequence,
    opposite_sigma,
    witt_adams,
    witt_add,
    witt_lambda,
    witt_mul,
    witt_neg,
)
from mzeta.oracles import binom, multiset_graded_lambda
from mzeta.rings import IntegerRing, PolynomialRing
from mzeta.series import TruncSeries

Z = IntegerRing()


def random_witt(rng, ring, precision, bound=4):
    coeffs = [ring.one()] + [
        ring.from_int(rng.randint(-bound, bound)) for _ in range(precision - 1)
    ]
    return WittElement(TruncSeries(ring, coeffs))


def test_gen_binom_basics():
    assert gen_binom(5, 2) == 10
    assert gen_binom(5, 0) == 1
    assert gen_binom(3, 5) == 0
    assert gen_binom(-2, 3) == -4
    assert gen_binom(-1, 4) == 1
    assert gen_binom(4, -1) == 0


def test_witt_element_needs_constant_one():
    with pytest.raises(InvalidElementError):
        WittElement(TruncSeries.from_ints(Z, [2, 1, 1]))


def test_witt_addition_is_series_multiplication():
    f = WittElement(TruncSeries.from_ints(Z, [1, 1, 0, 0]))
    s = witt_add(f, f)
    assert [c.as_int() for c in s.series.coeffs] == [1, 2, 1, 0]


def test_witt_additive_group_axioms():
    rng = random.Random(31415)
    R = PolynomialRing(["L"])
    for _ in range(8):
        f = random_witt(rng, R, 8, 2)
        g = random_witt(rng, R, 8, 2)
        h = random_witt(rng, R, 8, 2)
        assert witt_add(f, g) == witt_add(g, f)
        assert witt_add(witt_add(f, g), h) == witt_add(f, witt_add(g, h))
        assert witt_add(f, witt_neg(f)) == WittElement.one(R, 8)
        assert witt_add(f, WittElement.one(R, 8)) == f


def test_witt_mul_rank_one_and_identity():
    R = PolynomialRing(["a", "b"])
    f = WittElement(TruncSeries.from_polynomial(R, [R.one(), R.var("a")], 6))
    g = WittElement(TruncSeries.from_polynomial(R, [R.one(), R.var("b")], 6))
    prod = witt_mul(f, g)
    expected = TruncSeries.from_polynomial(
        R, [R.one(), R.var("a").mul(R.var("b"))], 6
    )
    assert prod.series.eq(expected)
    one = WittElement(
        TruncSeries.from_polynomial(R, [R.one(), R.one()], 6)
    )  # 1 + t is the ring unit
    assert witt_mul(one, f).series.eq(f.series)


def test_witt_mul_equal_roots():
    # (1+t)^2 times (1+t) has 2*1 roots, all equal to 1
    f = WittElement(TruncSeries.from_ints(Z, [1, 2, 1, 0, 0, 0]))
    g = WittElement(TruncSeries.from_ints(Z, [1, 1, 0, 0, 0, 0]))
    assert [c.as_int() for c in witt_mul(f, g).series.coeffs] == [1, 2, 1, 0, 0, 0]


def test_witt_mul_distributes_over_add():
    rng = random.Random(8128)
    for _ in range(6):
        f = random_witt(rng, Z, 6)
        g = random_witt(rng, Z, 6)
        h = random_witt(rng, Z, 6)
        left = witt_mul(f, witt_add(g, h))
        right = witt_add(witt_mul(f, g), witt_mul(f, h))
        assert left == right


def test_witt_lambda_axioms_randomized():
    # lambda^0 = 1, lambda^1 = id, and the Cauchy sum rule for lambda^n(f+g)
    rng = random.Random(5050)
    unit = TruncSeries.from_polynomial(Z, [Z.one(), Z.one()], 8)
    for _ in range(6):
        f = random_witt(rng, Z, 8, 3)
        g = random_witt(rng, Z, 8, 3)
        # lambda^0 is the ring unit of the Witt ring, the series 1 + t
        assert witt_lambda(0, f).series.eq(unit)
        assert witt_lambda(1, f).series.eq(f.series)
        for n in (2, 3):
            lhs = witt_lambda(n, witt_add(f, g))
            rhs = None
            for i in range(n + 1):
                term = witt_mul(witt_lambda(i, f), witt_lambda(n - i, g))
                rhs = term if rhs is None else witt_add(rhs, term)
            m = min(lhs.precision, rhs.precision)
            assert m >= 2
            assert lhs.series.agrees_to(rhs.series, m)


def test_witt_lambda_split_example():
    # three equal roots: the 2-subsets multiply back to 1
    f = WittElement(TruncSeries.from_ints(Z, [1, 3, 3, 1, 0, 0, 0, 0, 0, 0]))
    sq = witt_lambda(2, f)
    assert [c.as_int() for c in sq.series.coeffs] == [1, 3, 3, 1, 0]


def test_witt_polynomial_closure_small():
    rng = random.Random(2718)
    for _ in range(4):
        fc = [1] + [rng.randint(-3, 3) for _ in range(2)]
        gc = [1] + [rng.randint(-3, 3) for _ in range(2)]
        f = WittElement(TruncSeries.from_ints(Z, fc + [0] * 22))
        g = WittElement(TruncSeries.from_ints(Z, gc + [0] * 22))
        prod = witt_mul(f, g)
        for i in range(5, prod.precision):
            assert prod.series.coefficient(i).is_zero()


def test_adams_newton_shape():
    # generic lambda data: psi^2 = x^2 - 2 lambda^2(x)
    R = PolynomialRing(["l1", "l2", "l3"])
    x = LambdaElement(R, [R.one(), R.var("l1"), R.var("l2"), R.var("l3")])
    got = adams(2, x)
    want = R.sub(R.mul(R.var("l1"), R.var("l1")), R.mul_int(R.var("l2"), 2))
    assert R.eq(got, want)
    assert R.eq(adams(1, x), R.var("l1"))


def test_adams_on_line_elements():
    R = PolynomialRing(["a"])
    x = LambdaElement.line(R, R.var("a"), 5)
    for n in range(1, 6):
        assert R.eq(adams(n, x), R.pow(R.var("a"), n))


def test_adams_needs_order():
    x = LambdaElement.integer_binomial(3, 2)
    with pytest.raises(PrecisionError):
        adams(3, x)


def test_adams_additive_on_witt_sums():
    rng = random.Random(60902)
    for _ in range(5):
        f = random_witt(rng, Z, 9, 3)
        g = random_witt(rng, Z, 9, 3)
        n = rng.randint(2, 3)
        lhs = witt_adams(n, witt_add(f, g))
        rhs = witt_add(witt_adams(n, f), witt_adams(n, g))
        assert lhs == rhs


def test_sigma_of_binomial_integers():
    for r in range(-3, 4):
        x = LambdaElement.integer_binomial(r, 6)
        s = opposite_sigma(x)
        for n in range(7):
            assert s.lam(n).as_int() == binom(r + n - 1, n)
    two = opposite_sigma(LambdaElement.integer_binomial(2, 3))
    assert two.lam(3).as_int() == 4


def test_sigma_is_an_involution():
    rng = random.Random(777)
    R = PolynomialRing(["u", "v"])
    for _ in range(6):
        data = [R.one()]
        for _ in range(5):
            c = R.from_int(rng.randint(-2, 2))
            if rng.random() < 0.5:
                c = R.add(c, R.var("u" if rng.random() < 0.5 else "v"))
            data.append(c)
        x = LambdaElement(R, data)
        assert opposite_sigma(opposite_sigma(x)) == x


def test_sigma_of_one_is_one():
    x = LambdaElement.integer_binomial(1, 6)
    s = opposite_sigma(x)
    assert [c.as_int() for c in s.lambdas] == [1] * 7


def test_sigma_order_guard():
    x = LambdaElement.integer_binomial(2, 3)
    with pytest.raises(PrecisionError):
        opposite_sigma(x, 5)


def test_check_special_binomial_integers():
    rule = BinomialIntegers()
    for x in range(-3, 4):
        for y in range(-3, 4):
            rep = check_special(rule, x, y, 4, 6)
            assert rep.all_hold, (x, y, rep.failures())


def test_check_special_sigma_failure():
    rep = check_special(SigmaIntegers(), 2, 2, 2, 2)
    entry = rep.find("product", 2)
    assert entry.status == "fails"
    assert entry.lhs == "10"
    assert entry.rhs == "6"
    assert not rep.all_hold


def test_check_special_line_monomials():
    R = PolynomialRing(["a", "b"])
    rule = LineMonomials(R)
    rep = check_special(rule, R.var("a"), R.var("b"), 3, 4)
    assert rep.all_hold


def test_line_rule_rejects_general_elements():
    R = PolynomialRing(["a", "b"])
    rule = LineMonomials(R)
    with pytest.raises(InvalidInputError):
        rule.lam(2, R.add(R.var("a"), R.var("b")))


def test_check_special_big_witt():
    rng = random.Random(424242)
    rule = BigWitt(Z, 5)
    for _ in range(5):
        f = random_witt(rng, Z, 5, 3)
        g = random_witt(rng, Z, 5, 3)
        rep = check_special(rule, f, g, 3, 3)
        for e in rep.entries:
            assert e.status in ("holds", "insufficient")
            if e.status == "insufficient":
                continue
        assert not rep.failures()


def test_check_special_reports_insufficient_window():
    # precision 2 leaves lambda^2 with a single coefficient: nothing to test
    rule = BigWitt(Z, 2)
    f = WittElement(TruncSeries.from_ints(Z, [1, 2]))
    g = WittElement(TruncSeries.from_ints(Z, [1, 3]))
    rep = check_special(rule, f, g, 2, 2)
    entry = rep.find("product", 2)
    assert entry.status == "insufficient"


def test_graded_lambda_curve_data():
    for g in (0, 1, 3):
        v = GradedSpace.from_coeffs([1, g])
        for m in range(5):
            got = graded_lambda(m, v).coeff_list()
            want = [binom(g, j) for j in range(m + 1)]
            while want and want[-1] == 0:
                want.pop()
            if not want:
                want = [0]
            assert got == want


def test_graded_lambda_k3_data():
    v = GradedSpace.from_coeffs([1, 0, 1])
    for m in range(1, 6):
        got = graded_lambda(m, v).coeff_list()
        want = [0] * (2 * m + 1)
        for i in range(m + 1):
            want[2 * i] = 1
        assert got == want


def test_graded_lambda_zero_is_one():
    v = GradedSpace.from_coeffs([1, 5, 7])
    assert graded_lambda(0, v).coeff_list() == [1]


def test_graded_lambda_direct_sum_rule():
    rng = random.Random(1202)
    for _ in range(8):
        u = GradedSpace.from_coeffs([rng.randint(-2, 3) for _ in range(3)])
        v = GradedSpace.from_coeffs([rng.randint(-2, 3) for _ in range(3)])
        for m in range(4):
            lhs = graded_lambda(m, u.add(v))
            rhs = None
            for i in range(m + 1):
                term = graded_lambda(i, u).mul(graded_lambda(m - i, v))
                rhs = term if rhs is None else rhs.add(term)
            assert lhs == rhs


def test_graded_lambda_multiset_oracle():
    rng = random.Random(908)
    for _ in range(8):
        dims = [rng.randint(-2, 3) for _ in range(rng.randint(1, 4))]
        v = GradedSpace.from_coeffs(dims)
        for m in range(5):
            got = graded_lambda(m, v).coeff_list()
            want = multiset_graded_lambda(m, dims)
            assert got == want, (dims, m)


def test_graded_lambda_sequence_consistent():
    v = GradedSpace.from_coeffs([1, 2, 1])
    seq = graded_lambda_sequence(v, 6)
    assert len(seq) == 7
    for m in range(7):
        assert seq[m] == graded_lambda(m, v)


def test_graded_space_monoid_predicate():
    assert GradedSpace.from_coeffs([1, 2, 0, 1]).is_monoid_element()
    assert not GradedSpace.from_coeffs([0, 1]).is_monoid_element()
    assert not GradedSpace.from_coeffs([1, -1]).is_monoid_element()


def test_witt_and_lambda_json_round_trip():
    f = WittElement(TruncSeries.from_ints(Z, [1, -2, 5]))
    assert WittElement.from_json(f.to_json()) == f
    x = LambdaElement.integer_binomial(4, 3)
    assert LambdaElement.from_json(x.to_json()) == x
