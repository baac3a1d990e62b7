import random

import pytest

from mzeta.errors import (
    InvalidElementError,
    InvalidInputError,
    PrecisionError,
    RingMismatchError,
)
from mzeta.lambda_rings import (
    BigWitt,
    BinomialIntegers,
    LineMonomials,
    SigmaIntegers,
    WittElement,
    adams,
    check_special,
    gen_binom,
    graded_dims,
    graded_lambda,
    graded_lambda_sequence,
    graded_space,
    opposite_sigma,
    witt_adams,
    witt_add,
    witt_lambda,
    witt_mul,
    witt_neg,
)
from mzeta.measures import (
    MeasureSequence,
    SurfaceData,
    boundedness_check,
    hilb_leading_term,
    irrationality_harness,
    mu,
    mu_sym_sequence,
)
from mzeta.oracles import binom, multiset_graded_lambda
from mzeta.rings import IntegerRing, MultiPoly, PolynomialRing
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


def test_foreign_elements_rejected_without_ring_arithmetic():
    # ring operations trust their operands, so these checks are the ones
    # that catch a mixed ring
    ZL = PolynomialRing(["L"])
    f = WittElement(TruncSeries.from_ints(Z, [1, 1, 0]))
    g = WittElement(TruncSeries.from_ints(ZL, [1, 1, 0]))
    with pytest.raises(RingMismatchError):
        witt_mul(f, g)
    with pytest.raises(RingMismatchError):
        WittElement(TruncSeries(Z, [Z.one(), MultiPoly.var("J")]))


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
    x = WittElement(TruncSeries(R, [R.one(), R.var("l1"), R.var("l2"), R.var("l3")]))
    got = adams(2, x)
    want = R.sub(R.mul(R.var("l1"), R.var("l1")), R.mul_int(R.var("l2"), 2))
    assert R.eq(got, want)
    assert R.eq(adams(1, x), R.var("l1"))


def test_adams_on_line_elements():
    R = PolynomialRing(["a"])
    x = WittElement(TruncSeries.from_polynomial(R, [R.one(), R.var("a")], 6))
    for n in range(1, 6):
        assert R.eq(adams(n, x), R.pow(R.var("a"), n))


def test_adams_needs_order():
    x = BigWitt(Z, 3).from_int(3)
    with pytest.raises(PrecisionError):
        adams(3, x)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: TruncSeries.one(Z, 0), PrecisionError),
        (lambda: TruncSeries.one(Z, -3), PrecisionError),
        (lambda: TruncSeries.geometric(Z, Z.from_int(2), 0), PrecisionError),
        (lambda: WittElement.one(Z, 0), PrecisionError),
        (lambda: WittElement(TruncSeries.from_polynomial(Z, [Z.one(), Z.from_int(2)], 1)),
         PrecisionError),
        (lambda: WittElement(TruncSeries.from_polynomial(Z, [Z.one(), Z.from_int(2)], 0)),
         PrecisionError),
        (lambda: BigWitt(Z, 1).from_int(3), InvalidInputError),
    ],
    ids=["one-0", "one-neg", "geometric-0", "witt-one-0", "line-0",
         "line-neg", "binomial-0"],
)
def test_constructors_reject_sizes_below_one(make, error):
    with pytest.raises(error):
        make()


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
        s = opposite_sigma(BigWitt(Z, 7).from_int(r)).series
        for n in range(7):
            assert s.coefficient(n).as_int() == binom(r + n - 1, n)
    two = opposite_sigma(BigWitt(Z, 4).from_int(2))
    assert two.series.coefficient(3).as_int() == 4


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
        x = WittElement(TruncSeries(R, data))
        assert opposite_sigma(opposite_sigma(x)) == x


def test_sigma_of_one_is_one():
    s = opposite_sigma(BigWitt(Z, 7).from_int(1))
    assert [c.as_int() for c in s.series.coeffs] == [1] * 7


def test_sigma_order_guard():
    x = BigWitt(Z, 4).from_int(2)
    with pytest.raises(PrecisionError):
        opposite_sigma(x, 5)
    with pytest.raises(InvalidInputError):
        opposite_sigma(x, -1)
    assert opposite_sigma(x, 0) == WittElement.one(Z, 1)


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


def test_rule_pow_is_repeated_mul():
    rule = BigWitt(Z, 5)
    x = random_witt(random.Random(77), Z, 5)
    assert rule.eq(rule.pow(x, 0), rule.from_int(1))
    assert rule.eq(rule.pow(x, 3), rule.mul(rule.mul(x, x), x))
    R = PolynomialRing(["a"])
    assert LineMonomials(R).pow(R.var("a"), 4) == R.var("a", 4)
    assert SigmaIntegers().pow(-3, 3) == -27


def test_check_special_renders_sides_when_read():
    class Counted(SigmaIntegers):
        calls = 0

        def describe(self, a):
            Counted.calls += 1
            return super().describe(a)

    rep = check_special(Counted(), 2, 2, 2, 2)
    assert Counted.calls == 0
    # an entry renders both its sides on the first read, and only then
    entry = rep.find("product", 2)
    assert (entry.rhs, entry.lhs, entry.rhs) == ("6", "10", "6")
    assert Counted.calls == 2
    assert str(rep) == str(check_special(SigmaIntegers(), 2, 2, 2, 2))
    assert rep.to_json() == check_special(SigmaIntegers(), 2, 2, 2, 2).to_json()
    assert Counted.calls == 2 * len(rep.entries)
    with pytest.raises(AttributeError):
        entry.lhs = "0"


class _BinomialToOrderTwo(BinomialIntegers):
    """binom(x, n) for n <= 2, and PrecisionError past it: a carrier that
    knows only part of its lambda data."""

    def lam(self, n, x):
        if n > 2:
            raise PrecisionError("lambda^%d past the carrier's order" % n)
        return super().lam(n, x)


def _special_case(which):
    if which == "sigma-integers":
        return check_special(SigmaIntegers(), 2, 3, 2, 2)
    if which == "binomial-integers":
        return check_special(BinomialIntegers(), 3, -2, 2, 2)
    if which == "big-witt-precision-3":
        ZL = PolynomialRing(["L"])
        x = WittElement(TruncSeries(ZL, [ZL.one(), ZL.var("L"), ZL.from_int(2)]))
        y = WittElement(TruncSeries(ZL, [ZL.one(), ZL.from_int(-1), ZL.var("L")]))
        return check_special(BigWitt(ZL, 3), x, y, 3, 3)
    return check_special(_BinomialToOrderTwo(), 4, -1, 3, 3)


_XY = "1 + (-L)*t + (L^3 - 4*L + 2)*t^2 + O(t^3)"
_XY2 = "1 + (L^3 - 4*L + 2)*t + O(t^2)"
_TOP = "1 + O(t^1)"

# each entry: (identity, indices, status, lhs, rhs); lhs is None where
# the carrier raised PrecisionError
_SPECIAL_CASES = {
    "sigma-integers": (False, [
        ("lambda^1(x*y)", [1], "holds", "6", "6"),
        ("lambda^2(x*y)", [2], "fails", "21", "15"),
        ("lambda^1(lambda^1(x))", [1, 1], "holds", "2", "2"),
        ("lambda^1(lambda^2(x))", [1, 2], "holds", "3", "3"),
        ("lambda^2(lambda^1(x))", [2, 1], "holds", "3", "3"),
    ]),
    "binomial-integers": (True, [
        ("lambda^1(x*y)", [1], "holds", "-6", "-6"),
        ("lambda^2(x*y)", [2], "holds", "21", "21"),
        ("lambda^1(lambda^1(x))", [1, 1], "holds", "3", "3"),
        ("lambda^1(lambda^2(x))", [1, 2], "holds", "3", "3"),
        ("lambda^2(lambda^1(x))", [2, 1], "holds", "3", "3"),
    ]),
    # lambda^3 of a precision-3 element has precision 1, too short for
    # meaningful to let the comparison count
    "big-witt-precision-3": (False, [
        ("lambda^1(x*y)", [1], "holds", _XY, _XY),
        ("lambda^2(x*y)", [2], "holds", _XY2, _XY2),
        ("lambda^3(x*y)", [3], "insufficient", _TOP, _TOP),
        ("lambda^1(lambda^1(x))", [1, 1], "holds",
         "1 + (L)*t + (2)*t^2 + O(t^3)", "1 + (L)*t + (2)*t^2 + O(t^3)"),
        ("lambda^1(lambda^2(x))", [1, 2], "holds", "1 + (2)*t + O(t^2)", "1 + (2)*t + O(t^2)"),
        ("lambda^1(lambda^3(x))", [1, 3], "insufficient", _TOP, _TOP),
        ("lambda^2(lambda^1(x))", [2, 1], "holds", "1 + (2)*t + O(t^2)", "1 + (2)*t + O(t^2)"),
        ("lambda^3(lambda^1(x))", [3, 1], "insufficient", _TOP, _TOP),
    ]),
    "raises-past-order-2": (False, [
        ("lambda^1(x*y)", [1], "holds", "-4", "-4"),
        ("lambda^2(x*y)", [2], "holds", "10", "10"),
        ("lambda^3(x*y)", [3], "insufficient", None, None),
        ("lambda^1(lambda^1(x))", [1, 1], "holds", "4", "4"),
        ("lambda^1(lambda^2(x))", [1, 2], "holds", "6", "6"),
        ("lambda^1(lambda^3(x))", [1, 3], "insufficient", None, None),
        ("lambda^2(lambda^1(x))", [2, 1], "holds", "6", "6"),
        ("lambda^3(lambda^1(x))", [3, 1], "insufficient", None, None),
    ]),
}


@pytest.mark.parametrize("which", sorted(_SPECIAL_CASES))
def test_check_special_entries_json_and_text(which):
    all_hold, rows = _SPECIAL_CASES[which]
    rep = _special_case(which)
    assert rep.all_hold is all_hold
    assert [(e.label, list(e.indices), e.status, e.lhs, e.rhs) for e in rep.entries] == [
        tuple(row) for row in rows
    ]
    checks = []
    for label, indices, status, lhs, rhs in rows:
        entry = {
            "identity": label,
            "kind": "product" if len(indices) == 1 else "composition",
            "indices": indices,
            "status": status,
        }
        if lhs is not None:
            entry.update(lhs=lhs, rhs=rhs)
        checks.append(entry)
    assert rep.to_json() == {"all_hold": all_hold, "checks": checks}
    assert [e.to_json() for e in rep.entries] == checks
    lines = []
    for label, _, status, lhs, rhs in rows:
        line = label.ljust(28) + " " + status
        lines.append(line + ("  (%s vs %s)" % (lhs, rhs) if status == "fails" else ""))
    assert str(rep) == "\n".join(lines)
    if which == "sigma-integers":
        assert str(rep).splitlines()[1] == "lambda^2(x*y)                fails  (21 vs 15)"
    if which == "raises-past-order-2":
        assert str(rep).splitlines()[5] == "lambda^1(lambda^3(x))        insufficient"


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
        v = graded_space([1, g])
        for m in range(5):
            got = graded_dims(graded_lambda(m, v))
            want = [binom(g, j) for j in range(m + 1)]
            while want and want[-1] == 0:
                want.pop()
            if not want:
                want = [0]
            assert got == want


def test_graded_lambda_k3_data():
    v = graded_space([1, 0, 1])
    for m in range(1, 6):
        got = graded_dims(graded_lambda(m, v))
        want = [0] * (2 * m + 1)
        for i in range(m + 1):
            want[2 * i] = 1
        assert got == want


def test_graded_lambda_zero_is_one():
    v = graded_space([1, 5, 7])
    assert graded_dims(graded_lambda(0, v)) == [1]


def test_graded_lambda_direct_sum_rule():
    rng = random.Random(1202)
    for _ in range(8):
        u = graded_space([rng.randint(-2, 3) for _ in range(3)])
        v = graded_space([rng.randint(-2, 3) for _ in range(3)])
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
        v = graded_space(dims)
        for m in range(5):
            got = graded_dims(graded_lambda(m, v))
            want = multiset_graded_lambda(m, dims)
            assert got == want, (dims, m)


def test_graded_lambda_sequence_consistent():
    v = graded_space([1, 2, 1])
    seq = graded_lambda_sequence(v, 6)
    assert len(seq) == 7
    for m in range(7):
        assert seq[m] == graded_lambda(m, v)


def test_witt_and_lambda_json_round_trip():
    f = WittElement(TruncSeries.from_ints(Z, [1, -2, 5]))
    assert WittElement.from_json(f.to_json()) == f
    x = BigWitt(Z, 4).from_int(4)
    assert WittElement.from_json(x.to_json()) == x


_W = WittElement(TruncSeries.from_ints(Z, [1, 3, 3, 1, 0, 0, 0]))
_V = graded_space([1, 2, 1])
_S = SurfaceData(0, 2, [2, 3, 4, 5, 6])
_SEQ = MeasureSequence([_V])


@pytest.mark.parametrize(
    "call",
    [
        lambda: witt_lambda(2.0, _W),
        lambda: witt_lambda(True, _W),
        lambda: witt_lambda(2, _W, 2.0),
        lambda: witt_adams(1.5, _W),
        lambda: witt_adams(2, _W, True),
        lambda: adams(2.0, _W),
        lambda: opposite_sigma(_W, 2.0),
        lambda: opposite_sigma(_W, -2),
        lambda: graded_lambda_sequence(_V, 2.0),
        lambda: graded_lambda(2.0, _V),
        lambda: mu(_S, 1.5),
        lambda: mu_sym_sequence(_S, 2.0),
        lambda: hilb_leading_term(_S, True, 2),
        lambda: hilb_leading_term(_S, 1, 2.0),
        lambda: irrationality_harness(_S, 1, 2.5),
        lambda: irrationality_harness(_S, 2.0, 6),
        lambda: irrationality_harness(_S, 1, 6, 2.0),
        lambda: irrationality_harness(_S, 1, 6, 4, 6.0),
        lambda: graded_space([1, 2.5]),
        lambda: graded_space([1, True]),
        lambda: boundedness_check(_SEQ, 1.5),
        lambda: boundedness_check(_SEQ, -1),
        lambda: boundedness_check(_SEQ, True),
    ],
    ids=["witt_lambda-k-float", "witt_lambda-k-bool", "witt_lambda-precision",
         "witt_adams-n-float", "witt_adams-precision-bool", "adams-n-float",
         "sigma-order-float", "sigma-order-negative", "graded_sequence-upto",
         "graded_lambda-m", "mu-n", "mu_sym_sequence-M", "hilb-n-bool", "hilb-m",
         "harness-M", "harness-n", "harness-n_max", "harness-i0_max",
         "graded_space-float", "graded_space-bool", "boundedness-j-float",
         "boundedness-j-negative", "boundedness-j-bool"],
)
def test_integer_bounds_are_typed(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: graded_dims("x"),
        lambda: graded_lambda_sequence(MultiPoly.var("x"), 2),
        lambda: graded_lambda_sequence({"terms": []}, 2),
        lambda: graded_lambda(2, MultiPoly.var("s").mul(MultiPoly.var("t"))),
        lambda: MeasureSequence([_V, MultiPoly.var("x").add(MultiPoly.const(1))]),
        lambda: MeasureSequence([1]),
    ],
    ids=["graded_dims-str", "graded_sequence-other-variable", "graded_sequence-not-a-poly",
         "graded_lambda-two-variables", "measure_sequence-other-variable",
         "measure_sequence-int"],
)
def test_graded_values_must_lie_in_z_s(call):
    with pytest.raises(RingMismatchError):
        call()


def test_graded_values_from_outside_a_ring():
    # any polynomial in s is a graded space, whatever layout it was built on
    v = MultiPoly.var("s", 2).add(MultiPoly.var("s").mul_int(-3)).add(MultiPoly.const(1))
    assert graded_dims(v) == [1, -3, 1]
    w = MultiPoly.var("x").add(v).sub(MultiPoly.var("x"))
    assert graded_dims(w) == [1, -3, 1]
    assert graded_lambda_sequence(w, 4) == graded_lambda_sequence(graded_space([1, -3, 1]), 4)
    assert graded_dims(graded_space([])) == [0]
    assert graded_dims(graded_space([0, 0, 2, 0])) == [0, 0, 2]
