import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from mzeta.errors import (
    DegreeCutoffError,
    InvalidInputError,
    InvalidMeasureError,
    MissingDataError,
    PrecisionError,
)
from mzeta.motivic import (
    Proj,
    parse_variety,
    specialize,
    zeta_rational,
    zeta_series,
)
from mzeta.oracles import linear_factors
from mzeta.rationality import (
    GroupSeries,
    NoWitnessUpTo,
    PeriodFound,
    QQ,
    _eval_poly_at,
    apply_measure,
    determinant,
    hankel_test,
    pade_reconstruct,
    periodic_ratio_test,
    pointwise_test,
    reconstruct_from_witness,
    solve_linear,
    verify_global,
)
from mzeta.rings import (
    FractionElem,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
    _kronecker,
    _packed_variable,
)
from mzeta.series import TruncSeries

Z = IntegerRing()


def q(n, d=1):
    return Fraction(n, d)


def qq_series(ints, extra=0):
    return TruncSeries(QQ, [q(n) for n in ints] + [q(0)] * extra)


def fib_ints(n):
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def test_determinant_small():
    rows = [[Z.from_int(a) for a in r] for r in [[1, 2], [3, 4]]]
    assert determinant(rows, Z).as_int() == -2
    rows = [[Z.from_int(a) for a in r] for r in [[2, 0, 1], [1, 1, 0], [0, 3, 1]]]
    assert determinant(rows, Z).as_int() == 5
    singular = [[Z.from_int(a) for a in r] for r in [[1, 2], [2, 4]]]
    assert determinant(singular, Z).as_int() == 0


def test_determinant_rejects_non_square():
    with pytest.raises(InvalidInputError):
        determinant([[Z.one()], [Z.one()]], Z)


# Bareiss's pivot branches: a zero (0,0) entry, a zero pivot that appears
# only after the first step, and a column that is zero below the diagonal
PIVOT_CASES = {
    "zero_corner": ([[0, 2, 1], [3, 1, 0], [1, 0, 2]], -13),
    "late_swap": ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),
    "zero_first_column": ([[0, 1], [0, 2]], 0),
    "zero_column_later": ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 0),
}


def leibniz(rows, ring):
    """The permutation sum, an independent reference for small n."""
    n = len(rows)
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = ring.one()
        for r, c in enumerate(perm):
            term = ring.mul(term, rows[r][c])
        total = ring.add(total, ring.neg(term) if inversions % 2 else term)
    return total


@pytest.mark.parametrize("name", sorted(PIVOT_CASES))
def test_bareiss_pivot_branches(name):
    ints, want = PIVOT_CASES[name]
    rows = [[Z.from_int(a) for a in r] for r in ints]
    assert determinant(rows, Z).as_int() == want
    assert leibniz(rows, Z).as_int() == want
    # over Q, with the rows scaled by distinct fractions
    scales = [q(1, k + 2) for k in range(len(ints))]
    rows = [[q(a) * s for a in r] for r, s in zip(ints, scales)]
    scaled = want * math.prod(scales)
    assert determinant(rows, QQ) == scaled
    assert leibniz(rows, QQ) == scaled


def _variables(ring):
    if getattr(ring, "prefix", None):
        return ["%s%d" % (ring.prefix, i) for i in range(1, 7)]
    return getattr(ring, "variables", ())


def _random_entry(ring, rng):
    if ring == QQ:
        return q(rng.randint(-3, 3), rng.randint(1, 4))
    c = ring.from_int(rng.randint(-3, 3))
    for v in _variables(ring):
        if rng.random() < 0.4:
            c = ring.add(c, ring.mul_int(ring.var(v), rng.randint(-2, 2)))
    return c


RINGS = {
    "Z": Z,
    "Q": QQ,
    "poly": PolynomialRing(["a", "b"]),
    "square_zero": SquareZeroRing(["x%d" % i for i in range(1, 7)]),
    "square_zero_prefix": SquareZeroRing(prefix="y"),
}


@pytest.mark.parametrize("name", ["Z", "Q"])
def test_determinant_matches_leibniz(name):
    ring = RINGS[name]
    rng = random.Random(name)
    for n in range(1, 7):
        for _ in range(3):
            rows = [
                [_random_entry(ring, rng) for _ in range(n)]
                for _ in range(n)
            ]
            assert ring.eq(determinant(rows, ring), leibniz(rows, ring)), n


@pytest.mark.parametrize("name", ["poly", "square_zero"])
def test_determinant_rejects_polynomial_rings(name):
    ring = RINGS[name]
    with pytest.raises(InvalidInputError):
        determinant([[ring.one()]], ring)


def _assert_cells_match_leibniz(f, m_max, offset_max):
    ring = f.ring
    report = hankel_test(f, m_max, offset_max)
    a = f.coeffs
    for m in range(m_max + 1):
        for i in range(offset_max + 1):
            rows = [[a[i + r + c] for c in range(m + 1)] for r in range(m + 1)]
            assert ring.eq(report.det(m, i), leibniz(rows, ring)), (m, i)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_hankel_cells_match_leibniz(name):
    # Bareiss per cell over Z and Q, the shared minor table otherwise; about
    # a third of the coefficients are zero, so skipped entries and zero
    # pivots both occur
    ring = RINGS[name]
    rng = random.Random(name)
    for _ in range(3):
        coeffs = [
            ring.zero() if rng.random() < 0.3 else _random_entry(ring, rng)
            for _ in range(13)
        ]
        # entries linear in several variables leave too many groups to pack
        assert _packed_variable(coeffs, ring) is None
        _assert_cells_match_leibniz(TruncSeries(ring, coeffs), 4, 4)


def _l_heavy_entry(ring, rng):
    """One or two monomials u in the variables other than L, each times 3
    to 6 distinct powers of L below 10 with coefficients of 300 to 320 bits
    and either sign.  Terms are built on their own layouts and multiplied in
    either order, so the entries' layouts differ."""
    others = [v for v in ring.variables if v != "L"]
    total = MultiPoly.const(0)
    for _ in range(rng.randint(1, 2)):
        u = MultiPoly.const(1)
        for v in others:
            if rng.random() < 0.5:
                u = u.mul(MultiPoly.var(v, rng.randint(1, 2)))
        for e in rng.sample(range(10), rng.randint(3, 6)):
            c = rng.choice([-1, 1]) * rng.getrandbits(rng.randint(300, 320))
            term = MultiPoly.var("L", e, c)
            total = total.add(term.mul(u) if rng.random() < 0.5 else u.mul(term))
    return total


@pytest.mark.parametrize("names", [["L", "J"], ["L", "J", "c1"], ["a", "L"]])
def test_packed_hankel_cells_match_leibniz(names):
    # grids that pack L: big entries of both signs, a third of them zero,
    # gaps between the powers of L and entries on mixed layouts
    ring = PolynomialRing(names)
    rng = random.Random("packed:" + ",".join(names))
    for _ in range(3):
        coeffs = [
            ring.zero() if rng.random() < 0.3 else _l_heavy_entry(ring, rng)
            for _ in range(9)
        ]
        assert len({c.layout for c in coeffs if not c.is_zero()}) > 1
        assert _packed_variable(coeffs, ring) == "L"
        _assert_cells_match_leibniz(TruncSeries(ring, coeffs), 3, 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_slot_holds_a_tight_single_term_cell(sign):
    # cell (0, 0) is +-2^200 L, whose l1 bound 2^200 it meets: its slot
    # needs 201 bits for the magnitude and one for the sign
    ring = PolynomialRing(["L"])
    corner = MultiPoly.var("L", 1, sign * 2**200)
    dense = MultiPoly({(("L", e),): 1 for e in range(3)})
    f = TruncSeries(ring, [corner, dense])
    assert _packed_variable(f.coeffs, ring) == "L"
    report = hankel_test(f, 0, 1)
    assert report.det(0, 0) == corner
    assert report.det(0, 1) == dense


@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_reads_back_a_coefficient_at_its_bound(sign):
    # the caller's bound is met exactly by +-2^200 L: b = 202, and with one
    # bit less the digit 2^200 would read back as -2^200 carrying 1
    ring = PolynomialRing(["L"])
    tight = MultiPoly.var("L", 1, sign * 2**200)
    dense = MultiPoly({(("L", e),): 1 for e in range(3)})
    (images,), unpack = _kronecker(ring, [[tight, dense]], lambda norms: max(norms[0]))
    assert [len(p.terms) for p in images] == [1, 1]
    assert [unpack(p) for p in images] == [tight, dense]


def test_packing_skips_square_zero_rings():
    # (c + d x)(1 + y) leaves two groups of two terms when x is packed,
    # which Z[x, y] packs; but 2^b squared is not zero, so v -> 2^b is no
    # map out of Z[x, y]/(x^2, y^2)
    rng = random.Random(79)
    coeffs = []
    for _ in range(9):
        c, d = rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)
        coeffs.append(MultiPoly({(): c, (("x", 1),): d, (("y", 1),): c, (("x", 1), ("y", 1)): d}))
    assert _packed_variable(coeffs, PolynomialRing(["x", "y"])) == "x"
    R = SquareZeroRing(["x", "y"])
    assert _packed_variable(coeffs, R) is None
    _assert_cells_match_leibniz(TruncSeries(R, coeffs), 2, 4)


def test_packing_skips_far_apart_exponents():
    # L exponents 10^6 apart would need about 10^6 slots per term; J, whose
    # exponents are dense, is packed instead when it is there
    dense = [
        MultiPoly({(("L", j * 10**6 + k),): k + j + 1 for j in range(6)})
        for k in range(12)
    ]
    assert _packed_variable(dense, PolynomialRing(["L"])) is None
    ring = PolynomialRing(["L", "J"])
    with_j = [
        p.mul(MultiPoly({(("J", e),): e + 1 for e in range(4)})) for p in dense
    ]
    assert _packed_variable(with_j, ring) == "J"
    _assert_cells_match_leibniz(TruncSeries(ring, with_j), 2, 2)


def test_packing_skips_an_exponent_at_the_field_limit():
    # a term L^(2^63 - 1) would need 2^63 slots, so the grid runs unpacked
    # and its square hits the exponent guard, as it always did
    ring = PolynomialRing(["L"])
    dense = MultiPoly({(("L", e),): c for e, c in enumerate([3, -1, 4, 1, -5, 9])})
    edge = MultiPoly({(("L", 2**63 - 1),): 2, (): 1})
    f = TruncSeries(ring, [dense, edge, dense, dense])
    assert _packed_variable(f.coeffs, ring) is None
    with pytest.raises(DegreeCutoffError, match=r"2\^63 or more"):
        hankel_test(f, 1, 0)


def test_hankel_q_grid_with_mixed_denominators():
    rng = random.Random(77)
    coeffs = [
        q(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 12, 35, 2**40 + 15]))
        for _ in range(14)
    ]
    assert len({c.denominator for c in coeffs}) > 3
    _assert_cells_match_leibniz(TruncSeries(QQ, coeffs), 5, 3)


def test_hankel_z_grid_with_big_entries_and_negative_pivots():
    rng = random.Random(78)
    coeffs = [rng.choice([-1, 1]) * (2**64 + rng.randint(0, 2**70)) for _ in range(14)]
    coeffs[0] = -(2**65 + 3)  # the first pivot of every offset-0 cell
    f = TruncSeries.from_ints(Z, coeffs)
    _assert_cells_match_leibniz(f, 5, 3)


def _assert_cells_match_determinant(f, m_max, offset_max):
    """Every cell of the grid against its own determinant; returns the
    number of cells that follow a zero cell of lower order at their offset,
    where the one elimination per offset cannot read them as pivots."""
    ring = f.ring
    report = hankel_test(f, m_max, offset_max)
    a = f.coeffs
    past_zero = 0
    for i in range(offset_max + 1):
        zero_seen = False
        for m in range(m_max + 1):
            rows = [a[i + r : i + r + m + 1] for r in range(m + 1)]
            assert ring.eq(report.det(m, i), determinant(rows, ring)), (m, i)
            past_zero += zero_seen
            zero_seen = zero_seen or ring.is_zero(report.det(m, i))
    return past_zero


def _rational_ints(rng, n):
    """n coefficients of h/g for random small g (g_0 = 1) and h, so the
    grid vanishes from m = deg g on past a small offset."""
    g = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    h = [rng.randint(-3, 3) for _ in range(rng.randint(0, len(g) + 1))]
    a = []
    for k in range(n):
        a.append((h[k] if k < len(h) else 0) - sum(g[j] * a[k - j] for j in range(1, min(k, len(g) - 1) + 1)))
    return a


@pytest.mark.parametrize("name", ["Z", "Q"])
def test_hankel_pass_matches_per_cell_determinants(name):
    # random series with a_0 = 0, small entries that make zero leading
    # minors mid-grid, and rational series whose grids vanish
    ring = RINGS[name]
    rng = random.Random("hankel-pass-" + name)
    past_zero = 0
    for trial in range(60):
        m_max, offset_max = rng.randint(0, 6), rng.randint(0, 5)
        n = offset_max + 2 * m_max + 1
        if trial % 3 == 2:
            ints = _rational_ints(rng, n)
        else:
            ints = [0 if rng.random() < 0.3 else rng.randint(-2, 2) for _ in range(n)]
        if trial % 2 == 0:
            ints[0] = 0
        if ring == QQ:
            coeffs = [q(x, rng.choice([1, 2, 3, 5, 7])) for x in ints]
        else:
            coeffs = [ring.from_int(x) for x in ints]
        past_zero += _assert_cells_match_determinant(TruncSeries(ring, coeffs), m_max, offset_max)
    assert past_zero > 20


def test_hankel_pass_with_distinct_denominators_and_vanishing_windows():
    # h/g with each coefficient over its own denominator, whose grid need
    # not vanish, and h/g over one common denominator, whose grid does
    rng = random.Random(79)
    for _ in range(10):
        ints = _rational_ints(rng, 14)
        dens = [rng.choice([1, 2, 3, 4, 9, 11, 2**31 - 1]) for _ in ints]
        assert len(set(dens)) > 2
        _assert_cells_match_determinant(TruncSeries(QQ, [q(x, d) for x, d in zip(ints, dens)]), 5, 3)
        common = rng.choice([6, 35, 2**40 + 15])
        f = TruncSeries(QQ, [q(x, common) for x in ints])
        _assert_cells_match_determinant(f, 5, 3)
        assert hankel_test(f, 5, 3).found


def test_hankel_pass_on_projective_space_at_three():
    # the CI grid: 1/((1-t)(1-3t)(1-9t)(1-27t)), whose cells vanish from
    # m = 4, so every larger cell at every offset is its own determinant
    image, ints = _projective_at(3, 3, 40)
    for f in (image, ints):
        assert _assert_cells_match_determinant(f, 15, 8) == 9 * 11
        assert hankel_test(f, 15, 8).summary == (4, 0)


@pytest.mark.parametrize(
    "text, terms", [("Curve(2)", 16), ("Disj(Curve(1),Curve(1))", 14)]
)
def test_hankel_grid_commutes_with_specialization(text, terms):
    # minors over Z[L, J, c...] against Bareiss over Q at two integer points
    f = zeta_series(parse_variety(text), terms)
    symbolic = hankel_test(f, 6, 1)
    rng = random.Random(text)
    for _ in range(2):
        point = {v: rng.randint(-3, 3) for v in f.ring.variables}
        numeric = hankel_test(apply_measure(f, point), 6, 1)
        for m in range(7):
            for i in range(2):
                assert specialize(symbolic.det(m, i), point) == numeric.det(m, i)


def test_hankel_over_qq_with_zero_coefficients():
    # 1 / (1 - t^2): odd offsets put a zero in the (0,0) corner
    f = qq_series([1, 0] * 7)
    report = hankel_test(f, 3, 4)
    assert report.grid[0] == [1, 0, 1, 0, 1]
    assert report.grid[1] == [1, -1, 1, -1, 1]
    assert report.grid[2] == report.grid[3] == [0] * 5
    assert report.summary == (2, 0)


def test_hankel_geometric_series():
    f = TruncSeries.from_ints(Z, [2 ** i for i in range(12)])
    report = hankel_test(f, 2, 6)
    assert report.window(0) is None  # the coefficients themselves never vanish
    assert report.window(1) == 0
    assert report.summary == (1, 0)
    assert report.found


def test_hankel_fibonacci_needs_order_two():
    f = TruncSeries.from_ints(Z, fib_ints(14))
    report = hankel_test(f, 3, 5)
    assert report.window(1) is None
    assert report.summary == (2, 0)


def test_hankel_nilpotent_constant_sequence():
    R = SquareZeroRing(prefix="x")
    x = R.var_by_index(1)
    f = TruncSeries(R, [x] * 10)
    report = hankel_test(f, 1, 6)
    assert report.summary == (1, 0)
    assert report.window(0) is None


def test_hankel_distinct_nilpotents_never_vanish():
    R = SquareZeroRing(prefix="x")
    f = TruncSeries(R, [R.var_by_index(i + 1) for i in range(14)])
    report = hankel_test(f, 2, 7)
    assert report.summary is None
    for m in (1, 2):
        for i in range(8):
            det = report.det(m, i)
            key = tuple(
                sorted(("x%d" % (i + 1 + 2 * j), 1) for j in range(m + 1))
            )
            assert dict(det.items()).get(key) == 1, (m, i)


def test_hankel_precision_guard():
    f = TruncSeries.from_ints(Z, [1] * 5)
    with pytest.raises(PrecisionError):
        hankel_test(f, 2, 4)


def test_verify_global_geometric():
    f = TruncSeries.from_ints(Z, [1] * 10)
    report = verify_global(f, [Z.one(), Z.from_int(-1)], [Z.one()])
    assert report
    assert report.product_ok
    assert report.uniqueness == "certified"


def test_verify_global_fibonacci():
    f = TruncSeries.from_ints(Z, fib_ints(12))
    g = [Z.one(), Z.from_int(-1), Z.from_int(-1)]
    assert verify_global(f, g, [Z.one()])
    bad = verify_global(f, g, [Z.from_int(2)])
    assert not bad
    assert not bad.product_ok


def test_verify_global_square_zero_unit_coefficient():
    R = SquareZeroRing(prefix="x")
    x = R.var_by_index(1)
    f = TruncSeries(R, [x] * 9)
    report = verify_global(f, [R.one(), R.from_int(-1)], [x])
    assert report
    assert report.uniqueness == "certified"


def test_verify_global_square_zero_annihilated():
    R = SquareZeroRing(prefix="x")
    x = R.var_by_index(1)
    f = TruncSeries(R, [R.one(), R.one(), R.zero(), R.zero()])
    # x * (1 + t) = x + x t, but x annihilates the leading coefficient ideal
    report = verify_global(f, [x], [x, x])
    assert report.product_ok
    assert report.uniqueness == "fails"
    assert not report


def _square_zero_annihilator_exists(ring, g):
    """Reference: whether a nonzero a kills every coefficient of g, by the
    kernel of a linear system.  It suffices to search a = sum y_m m over the
    square-free monomials m in the variables of g (a foreign variable
    multiplies injectively); each monomial of each product a c gives one
    equation in the y_m."""
    basis = [()]
    for v in sorted(set().union(*(c.variables() for c in g))):
        basis += [key + ((v, 1),) for key in basis]
    equations = {}
    for j, c in enumerate(g):
        for pos, key in enumerate(basis):
            for mono, tc in ring.mul(MultiPoly({key: 1}), c).items():
                eq = equations.setdefault((j, mono), [Fraction(0)] * len(basis))
                eq[pos] += tc
    return len(_fraction_pivots(list(equations.values()), len(basis))) < len(basis)


def _random_square_zero(ring, rng, n_vars, constants):
    """Zero, or a constant drawn from constants plus square-free terms."""
    if rng.random() < 0.2:
        return ring.zero()
    c = ring.from_int(rng.choice(constants))
    for _ in range(rng.randint(0, 3)):
        term = ring.from_int(rng.choice([1, -1, 2, -2]))
        for i in rng.sample(range(1, n_vars + 1), rng.randint(1, n_vars)):
            term = ring.mul(term, ring.var_by_index(i))
        c = ring.add(c, term)
    return c


def test_square_zero_uniqueness_matches_kernel_search():
    R = SquareZeroRing(prefix="x")
    rng = random.Random(19)
    seen = {"certified": 0, "fails": 0}
    for _ in range(320):
        n_vars = rng.randint(1, 5)
        # half of the g have only nilpotent coefficients
        constants = rng.choice([[0], [0, 0, 0, 1, -1, 2, -2, 3]])
        g = [_random_square_zero(R, rng, n_vars, constants) for _ in range(rng.randint(1, 4))]
        f = TruncSeries(R, [R.zero()] * len(g))
        report = verify_global(f, g, [])
        want = "fails" if _square_zero_annihilator_exists(R, g) else "certified"
        assert report.uniqueness == want, [R.elem_str(c) for c in g]
        seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_verify_global_square_zero_past_twelve_variables():
    R = SquareZeroRing(prefix="x")
    xs = [R.var_by_index(i) for i in range(1, 17)]
    f = TruncSeries(R, [R.zero()] * 4)
    report = verify_global(f, [R.add(R.one(), xs[0]), functools.reduce(R.add, xs[1:])], [])
    assert report
    assert report.uniqueness == "certified"
    # x1 x2 ... x16 kills x1 + ... + x16
    report = verify_global(f, [functools.reduce(R.add, xs)], [])
    assert report.product_ok
    assert report.uniqueness == "fails"
    assert not report


def test_packed_product_check_bounds_the_numerator():
    # g f = 1 + L + ... + L^11 has l1 norm 12, and at L = 2^5, the slot a
    # bound without |h|_1 would give, it maps to h = 1 + 32 + ... + 32^11;
    # the bound with |h|_1 widens the slots, so h is rejected.  g's twelve
    # terms per term of f make the check pack
    ring = PolynomialRing(["L"])
    g = [MultiPoly({(("L", e),): 1 for e in range(12)})]
    f = TruncSeries(ring, [ring.one()])
    h = [ring.from_int(sum(32**e for e in range(12)))]
    assert _packed_variable([*f.coeffs, *g, *h], ring) == "L"
    assert not verify_global(f, g, h).product_ok
    assert verify_global(f, g, g)


def test_packed_product_check_matches_the_plain_product():
    # random L-heavy f and g over Z[L, J]; h is g f mod t^n, once as is and
    # once with one coefficient moved by one term
    ring = PolynomialRing(["L", "J"])
    rng = random.Random(2026)
    for _ in range(12):
        n = rng.randint(2, 6)
        f = TruncSeries(ring, [_l_heavy_entry(ring, rng) for _ in range(n)])
        g = [_l_heavy_entry(ring, rng) for _ in range(rng.randint(1, n))]
        # ten more terms in g_0, which meets every term of f, make it pack
        g[0] = ring.add(g[0], MultiPoly({(("J", 5), ("L", e)): 1 for e in range(10)}))
        h = list(TruncSeries.from_polynomial(ring, g, n).mul(f).coeffs)
        assert _packed_variable([*f.coeffs, *g, *h], ring) == "L"
        assert verify_global(f, g, h)
        k = rng.randrange(n)
        term = MultiPoly.var(rng.choice(["L", "J"]), rng.randint(0, 9), rng.choice([-1, 1]))
        h[k] = ring.add(h[k], term)
        assert not verify_global(f, g, h).product_ok


@functools.cache
def _genus_two_twist():
    return zeta_rational(parse_variety("Prod(Gm(2),Curve(2))"))


@pytest.mark.parametrize("delta", ["1", "L^3", "J"])
def test_verify_global_rejects_each_perturbed_twist_coefficient(delta):
    # the closed form of Prod(Gm(2),Curve(2)) against its series with one
    # coefficient moved by delta, each coefficient in turn
    form = _genus_two_twist()
    ring = form.ring
    f = form.series
    assert verify_global(f, form.den, form.num)
    step = {"1": ring.one(), "L^3": ring.var("L", 3), "J": ring.var("J")}[delta]
    for i in range(f.precision):
        coeffs = list(f.coeffs)
        coeffs[i] = ring.add(coeffs[i], step)
        report = verify_global(TruncSeries(ring, coeffs), form.den, form.num)
        assert not report.product_ok, i


def test_solve_linear_basics():
    rows = [[q(1), q(1)], [q(1), q(-1)]]
    sol = solve_linear(QQ, rows, [q(3), q(1)])
    assert sol[0] == q(2) and sol[1] == q(1)
    # inconsistent
    rows = [[q(1), q(0)], [q(1), q(0)]]
    assert solve_linear(QQ, rows, [q(1), q(2)]) is None
    # underdetermined: free variable pinned to zero
    sol = solve_linear(QQ, [[q(1), q(1)]], [q(5)])
    assert sol == [q(5), q(0)]


def test_pade_geometric():
    f = qq_series([1] * 8)
    res = pade_reconstruct(f, 1)
    assert res.success
    assert res.den == [q(1), q(-1)]
    assert res.num == [q(1)]


def test_pade_fibonacci():
    f = qq_series(fib_ints(10))
    res = pade_reconstruct(f, 2)
    assert res.success
    assert res.den == [q(1), q(-1), q(-1)]
    assert res.num == [q(1)]
    # degree 1 cannot fit it
    assert not pade_reconstruct(f, 1).success


def test_pade_overparametrized_degree_trims():
    f = qq_series([1] * 10)
    res = pade_reconstruct(f, 2)
    assert res.success
    assert res.den == [q(1), q(-1)]


def test_pade_theta_like_fails():
    coeffs = [0] * 30
    for i in range(6):
        if i * i < 30:
            coeffs[i * i] = 1
    f = qq_series(coeffs)
    for d in range(5):
        assert not pade_reconstruct(f, d).success


def test_pade_guards():
    f = qq_series([1] * 5)
    with pytest.raises(PrecisionError):
        pade_reconstruct(f, 2)
    g = TruncSeries.from_ints(Z, [1] * 8)
    with pytest.raises(InvalidInputError):
        pade_reconstruct(g, 1)


def test_pade_then_hankel_invariant():
    # a series with a degree-2 rational form gets a Hankel window by m=2
    # and a degree-2 reconstruction; the window at the first firing m is a
    # lower bound, not necessarily the exact denominator degree
    rng = random.Random(5151)
    for _ in range(5):
        den = [q(1)] + [q(rng.choice([-2, -1, 1, 2])) for _ in range(2)]
        num = [q(rng.randint(-2, 2) or 1) for _ in range(2)]
        f = TruncSeries.from_polynomial(QQ, num, 14).mul(
            TruncSeries.from_polynomial(QQ, den, 14).inverse()
        )
        report = hankel_test(f, 3, 5)
        assert report.found
        assert report.summary[0] <= 2
        assert pade_reconstruct(f, 2).success


def test_apply_measure_polynomial():
    R = PolynomialRing(["L"])
    # 1, 1+L, 1+L+L^2, ...
    coeffs = []
    acc = R.zero()
    power = R.one()
    for _ in range(8):
        acc = R.add(acc, power)
        coeffs.append(acc)
        power = R.mul(power, R.var("L"))
    f = TruncSeries(R, coeffs)
    image = apply_measure(f, {"L": 4})
    want = [(4 ** (n + 1) - 1) // 3 for n in range(8)]
    assert [c for c in image.coeffs] == [q(v) for v in want]


def test_pointwise_projective_line():
    R = PolynomialRing(["L"])
    coeffs = []
    acc = R.zero()
    power = R.one()
    for _ in range(10):
        acc = R.add(acc, power)
        coeffs.append(acc)
        power = R.mul(power, R.var("L"))
    f = TruncSeries(R, coeffs)
    verdicts = pointwise_test(f, [{"L": 4}, {"L": 1}], 3)
    assert all(v.rational for v in verdicts)
    assert verdicts[0].result.den == [q(1), q(-5), q(4)]  # (1-t)(1-4t)
    assert verdicts[1].result.den == [q(1), q(-2), q(1)]  # (1-t)^2


def test_pointwise_rejects_negative_degree_bound():
    f = qq_series([1] * 6)
    with pytest.raises(InvalidInputError, match="negative denominator degree"):
        pointwise_test(f, [{}], -1)


def test_pointwise_failure_reports_the_degrees_tried():
    # 1/(1-t)^5 is rational of degree 5, but precision 8 allows degrees 0..3
    binom = [math.comb(k + 4, 4) for k in range(12)]
    verdict = pointwise_test(qq_series(binom[:8]), [{}], 10)[0]
    assert not verdict.rational
    assert verdict.result.den_deg == 3
    assert str(verdict) == "{}: no reconstruction with denominator degree <= 3"
    verdict = pointwise_test(qq_series(binom), [{}], 10)[0]
    assert verdict.rational
    assert verdict.result.den_deg == 5
    # precision 1 allows no degree at all
    with pytest.raises(PrecisionError, match="needs precision 2, series has 1"):
        pointwise_test(qq_series([1]), [{}], 0)


def test_apply_measure_keeps_rational_series():
    f = qq_series([1, 2, 3])
    assert apply_measure(f, {"L": 4}).eq(f)


def _projective_at(k, L, terms):
    """zeta(P(k)) at the integer L over QQ, and the same integers over Z."""
    image = specialize(zeta_series(Proj(k), terms), {"L": L})
    ints = [c.numerator for c in image.coeffs]
    assert [Fraction(n) for n in ints] == list(image.coeffs)
    return image, TruncSeries.from_ints(Z, ints)


def test_pade_recovers_specialized_rational_form():
    # second derivation: Pade over QQ at the minimal degree k + 1 agrees
    # with the closed form 1/prod_{i<=k}(1 - L^i t) specialised at L = 2..5
    for k in range(1, 7):
        form = zeta_rational(Proj(k))
        for L in range(2, 6):
            image, _ = _projective_at(k, L, 2 * k + 4)
            res = pade_reconstruct(image, k + 1)
            assert res.success
            assert res.den == linear_factors([L**i for i in range(k + 1)])
            assert res.den == [specialize(c, {"L": L}) for c in form.den]
            assert res.num == [specialize(c, {"L": L}) for c in form.num] == [1]


def test_hankel_grid_over_qq_equals_grid_over_z():
    for k in range(1, 7):
        for L in range(2, 6):
            image, ints = _projective_at(k, L, 2 * k + 6)
            over_q = hankel_test(image, k + 1, 2)
            over_z = hankel_test(ints, k + 1, 2)
            for row_q, row_z in zip(over_q.grid, over_z.grid):
                assert row_q == [Fraction(d.as_int()) for d in row_z]
            assert over_q.summary == over_z.summary == (k + 1, 0)


def test_pointwise_square_zero_augmentation():
    R = SquareZeroRing(prefix="x")
    f = TruncSeries(R, [R.zero()] + [R.var_by_index(i) for i in range(1, 10)])
    verdicts = pointwise_test(f, [{"*": 0}], 2)
    assert verdicts[0].rational


def _fraction_pivots(rows, n_cols):
    """Reference elimination: Fraction Gauss-Jordan on the first n_cols
    columns of rows, in place; returns the pivot columns."""
    r = 0
    pivots = []
    for c in range(n_cols):
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                rows[k] = [x - rows[k][c] * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _gauss_jordan(rows, rhs):
    """Reference solver: Fraction Gauss-Jordan, free variables zero."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    n_var = len(rows[0]) if rows else 0
    pivots = _fraction_pivots(aug, n_var)
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n_var
    for k, c in enumerate(pivots):
        x[c] = aug[k][-1]
    return x


def _random_q(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7]))


def test_solve_linear_matches_fraction_reference():
    # rows are combinations of a few random rows, so most systems are rank
    # deficient; some get a perturbed right-hand side or a zero row
    rng = random.Random(20240517)
    for _ in range(400):
        n_eq, n_var = rng.randint(1, 6), rng.randint(1, 6)
        basis = [[_random_q(rng) for _ in range(n_var + 1)] for _ in range(rng.randint(0, 4))]
        aug = []
        for _ in range(n_eq):
            row = [Fraction(0)] * (n_var + 1)
            for b in basis:
                c = _random_q(rng)
                row = [x + c * y for x, y in zip(row, b)]
            if rng.random() < 0.2:
                row[-1] += _random_q(rng)
            aug.append(row)
        rows, rhs = [r[:-1] for r in aug], [r[-1] for r in aug]
        want = _gauss_jordan(rows, rhs)
        got = solve_linear(QQ, rows, rhs)
        assert got == want
        assert got is None or all(type(v) is Fraction for v in got)


def _pade_reference(f, d):
    """Success, reason, numerator and denominator by Fraction algebra."""
    a, n = f.coeffs, f.precision
    den = [q(1)]
    if d:
        window = range(d + 1, 2 * d + 2)
        sol = _gauss_jordan([[a[k - j] for j in range(1, d + 1)] for k in window],
                            [-a[k] for k in window])
        if sol is None:
            return False, "window system inconsistent", None, None
        den += sol
    gf = [sum(den[j] * a[k - j] for j in range(min(d, k) + 1)) for k in range(n)]
    for k in range(d + 1, n):
        if gf[k]:
            return False, "tail coefficient %d nonzero" % k, None, None
    trim = lambda p: p[: max((i + 1 for i, c in enumerate(p) if c), default=1)]
    return True, None, trim(gf[: d + 1]), trim(den)


def test_pade_matches_fraction_reference():
    rng = random.Random(777)
    for _ in range(300):
        d = rng.randint(0, 4)
        n = 2 * d + 2 + rng.randint(0, 5)
        if rng.random() < 0.5:
            # a rational series, over non-integer coefficients
            den = [q(1)] + [_random_q(rng) for _ in range(rng.randint(0, min(4, n - 1)))]
            num = [_random_q(rng) for _ in range(rng.randint(1, min(4, n)))]
            f = TruncSeries.from_polynomial(QQ, num, n).mul(
                TruncSeries.from_polynomial(QQ, den, n).inverse()
            )
        else:
            f = TruncSeries(QQ, [_random_q(rng) for _ in range(n)])
        res = pade_reconstruct(f, d)
        assert (res.success, res.reason, res.num, res.den) == _pade_reference(f, d)


def _eval_reference(terms, images):
    total = Fraction(0)
    for key, c in terms.items():
        for v, e in key:
            c *= Fraction(images.get(v, images.get("*"))) ** e
        total += c
    return total


def test_eval_poly_at_fractional_images():
    # L + M at 1/2 and 1/3: the term without M still carries M's
    # denominator in the common-denominator sum
    assert _eval_poly_at(MultiPoly({(("L", 1),): 1, (("M", 1),): 1}),
                         {"L": q(1, 2), "M": q(1, 3)}) == q(5, 6)
    rng = random.Random(4242)
    names = ["L", "M", "a1"]
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = tuple((v, rng.randint(1, 3)) for v in names if rng.random() < 0.5)
            terms[key] = rng.randint(-20, 20) or 1
        images = {v: _random_q(rng) or q(1, 5) for v in names if rng.random() < 0.7}
        if len(images) < len(names) or rng.random() < 0.3:
            images["*"] = _random_q(rng)
        got = _eval_poly_at(MultiPoly(terms), images)
        assert got == _eval_reference(terms, images)
        assert type(got) is Fraction


def test_eval_poly_at_default_and_first_missing_variable():
    p = MultiPoly({(("b", 1),): 2, (("a", 2), ("c", 1)): 1, (): 3})
    # "*" covers every variable the assignment does not list
    assert _eval_poly_at(p, {"a": q(1, 2), "*": q(-2, 3)}) == q(-4, 3) + q(-1, 6) + 3
    # terms are met in order, variables by name within a term
    with pytest.raises(MissingDataError, match="variable 'b'"):
        _eval_poly_at(p, {"a": 1})
    with pytest.raises(MissingDataError, match="variable 'c'"):
        _eval_poly_at(p, {"a": 1, "b": 1})


@pytest.mark.parametrize("name", ["L", "*"])
@pytest.mark.parametrize("image", ["x", True, 0.5], ids=["str", "bool", "float"])
@pytest.mark.parametrize("entry", ["apply_measure", "pointwise_test", "specialize"])
def test_measure_images_are_typed(entry, image, name):
    R = PolynomialRing(["L"])
    f = TruncSeries(R, [R.one(), R.var("L"), R.one(), R.one()])
    call = {
        "apply_measure": lambda a: apply_measure(f, a),
        "pointwise_test": lambda a: pointwise_test(f, [a], 1),
        "specialize": lambda a: specialize(R.var("L"), a),
    }[entry]
    with pytest.raises(InvalidMeasureError, match=re.escape("image of %r" % name)):
        call({name: image})


def test_measure_must_kill_nilpotents():
    R = SquareZeroRing(prefix="x")
    f = TruncSeries(R, [R.one(), R.var_by_index(1)])
    with pytest.raises(InvalidMeasureError):
        apply_measure(f, {"x1": 1})
    with pytest.raises(InvalidMeasureError):
        apply_measure(f, {"*": 2})


def test_group_series_validation():
    one = MultiPoly.const(1)
    with pytest.raises(InvalidInputError):
        GroupSeries([FractionElem(MultiPoly.const(0), one)])
    gs = GroupSeries([None, FractionElem(one, one)])
    assert len(gs) == 2
    # monoid check rejects a numerator with constant term 2
    with pytest.raises(InvalidInputError):
        GroupSeries(
            [FractionElem(MultiPoly.const(2), one)], check_monoid=True
        )


def test_group_series_json_round_trip():
    L = MultiPoly.var("L")
    one = MultiPoly.const(1)
    gs = GroupSeries([None, FractionElem(L, one), FractionElem(one, L)])
    back = GroupSeries.from_json(gs.to_json())
    assert back.coeffs[0] is None
    assert back.coeffs[1] == gs.coeffs[1]
    assert back.coeffs[2] == gs.coeffs[2]


def powers_of_L(exps):
    one = MultiPoly.const(1)
    out = []
    for e in exps:
        if e is None:
            out.append(None)
        else:
            out.append(FractionElem(MultiPoly.var("L", e) if e else one, one))
    return GroupSeries(out)


def test_periodic_ratio_geometric():
    gs = powers_of_L(list(range(20)))
    res = periodic_ratio_test(gs, 3, 4)
    assert isinstance(res, PeriodFound)
    assert res.period == 1 and res.offset == 0
    assert res.ratios[0] == FractionElem(MultiPoly.var("L"), MultiPoly.const(1))


def test_periodic_ratio_half_speed():
    gs = powers_of_L([i // 2 for i in range(24)])
    res = periodic_ratio_test(gs, 4, 6)
    assert isinstance(res, PeriodFound)
    assert (res.period, res.offset) == (2, 0)
    L = FractionElem(MultiPoly.var("L"), MultiPoly.const(1))
    assert res.ratios == [L, L]


def test_periodic_ratio_quadratic_exponents():
    gs = powers_of_L([i * i for i in range(26)])
    res = periodic_ratio_test(gs, 4, 8)
    assert isinstance(res, NoWitnessUpTo)
    assert (res.n_max, res.i0_max) == (4, 8)


def test_periodic_ratio_with_zero_slots():
    exps = [i // 2 if i % 2 == 0 else None for i in range(22)]
    gs = powers_of_L(exps)
    res = periodic_ratio_test(gs, 3, 4)
    assert isinstance(res, PeriodFound)
    assert res.period == 2
    one = FractionElem(MultiPoly.const(1), MultiPoly.const(1))
    L = FractionElem(MultiPoly.var("L"), MultiPoly.const(1))
    assert res.ratios[0] == L
    assert res.ratios[1] == one  # unconstrained slot defaults to 1


def test_periodic_ratio_isolated_zero_breaks_period():
    exps = [0] * 12
    exps[5] = None
    gs = powers_of_L(exps)
    res = periodic_ratio_test(gs, 1, 3)
    assert isinstance(res, NoWitnessUpTo)


def test_periodic_ratio_needs_coefficients():
    gs = powers_of_L(list(range(10)))
    with pytest.raises(PrecisionError):
        periodic_ratio_test(gs, 4, 8)


def test_reconstruction_matches_original():
    exps = [i // 2 for i in range(30)]
    gs = powers_of_L(exps)
    res = periodic_ratio_test(gs, 4, 6)
    rebuilt = reconstruct_from_witness(gs, res, 30)
    for a, b in zip(rebuilt.coeffs, gs.coeffs):
        assert a == b


@pytest.mark.parametrize(
    "call",
    [
        lambda: hankel_test(TruncSeries.from_ints(Z, [1] * 8), 2.5, 1),
        lambda: hankel_test(TruncSeries.from_ints(Z, [1] * 8), True, True),
        lambda: pade_reconstruct(qq_series([1] * 8), 1.5),
        lambda: pointwise_test(qq_series([1] * 8), [{}], 1.5),
        lambda: periodic_ratio_test(
            GroupSeries.from_polynomials([MultiPoly.const(1)] * 8), 1.5, 2
        ),
        lambda: periodic_ratio_test(
            GroupSeries.from_polynomials([MultiPoly.const(1)] * 8), 1, False
        ),
    ],
    ids=["hankel_float", "hankel_bool", "pade", "pointwise", "period", "offset"],
)
def test_rationality_bounds_must_be_integers(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()
