import pickle
import random

import pytest

from mzeta.errors import (
    DegreeCutoffError,
    InvalidInputError,
    MissingDataError,
    NoClosedFormError,
    PrecisionError,
    VarietySyntaxError,
)
from mzeta.motivic import (
    Affine,
    Curve,
    Disjoint,
    MotivicModel,
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
from mzeta.rationality import hankel_test, verify_global
from mzeta.rings import MultiPoly, PolynomialRing
from mzeta.series import TruncSeries, poly_mul, poly_scale_t
from mzeta.suite import CELL_CORPUS

L = MultiPoly.var("L")


def geom_sum(n):
    out = MultiPoly.const(0)
    for k in range(n + 1):
        out = out.add(MultiPoly.var("L", k) if k else MultiPoly.const(1))
    return out


def test_parse_basics():
    assert parse_variety("P(2)") == Proj(2)
    assert parse_variety("point") == Point()
    assert parse_variety("PB(Curve(1),1)") == ProjBundle(Curve(1), 1)
    assert parse_variety(" Disj( Gm(2) , VB( A(1) , 3 ) ) ") == Disjoint(
        Torus(2), VectorBundle(Affine(1), 3)
    )


def test_nodes_are_immutable_values():
    e = parse_variety("PB(Disj(Prod(Curve(2),A(1)),point),2)")
    again = parse_variety(str(e))
    assert e == again and e is not again and hash(e) == hash(again)
    assert hash(Affine(3)) == hash((3,)) and hash(Point()) == hash(())
    assert Affine(1) != Proj(1) and Affine(1) != Affine(2)
    assert repr(e) == (
        "ProjBundle(base=Disjoint(left=Prod(left=Curve(genus=2), right=Affine(n=1)), "
        "right=Point()), rank=2)"
    )
    assert pickle.loads(pickle.dumps(e)) == e
    with pytest.raises(AttributeError):
        e.rank = 3
    with pytest.raises(AttributeError):
        del e.base
    with pytest.raises(InvalidInputError):
        VectorBundle(Point(), -1)


def test_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(25):
        expr = random_expr(rng, 3, True)
        assert parse_variety(str(expr)) == expr


def test_parse_truncated_product():
    with pytest.raises(VarietySyntaxError) as info:
        parse_variety("Prod(A(1)")
    assert info.value.offset == 10
    assert "expected ','" in str(info.value)


def test_parse_unknown_constructor():
    with pytest.raises(VarietySyntaxError) as info:
        parse_variety("Q(3)")
    assert info.value.offset == 1
    assert "unknown constructor" in str(info.value)


def test_parse_negative_parameter():
    with pytest.raises(VarietySyntaxError) as info:
        parse_variety("A(-1)")
    assert info.value.offset == 3
    assert "negative" in str(info.value)


def test_parse_bad_number_and_trailing():
    with pytest.raises(VarietySyntaxError) as info:
        parse_variety("A(x)")
    assert info.value.offset == 3
    with pytest.raises(VarietySyntaxError) as info:
        parse_variety("P(2)junk")
    assert info.value.offset == 5
    # only ASCII digits: int() would read "\u0663" as 3 and fail on "\u00b2"
    for text in ("A(\u00b2)", "A(\u0663)"):
        with pytest.raises(VarietySyntaxError) as info:
            parse_variety(text)
        assert info.value.offset == 3, text
    with pytest.raises(DegreeCutoffError):
        parse_variety("A(%s)" % ("7" * 5000))


def test_cell_profiles():
    assert cell_profile(Torus(2)) == {0: 1, 1: -2, 2: 1}
    assert cell_profile(ProjBundle(Affine(1), 1)) == {1: 1, 2: 1}
    assert cell_profile(Curve(1)) is None
    assert cell_profile(Curve(0)) == {0: 1, 1: 1}
    assert cell_profile(Disjoint(Torus(1), Point())) == {1: 1}
    assert cell_profile(Prod(Proj(1), Proj(1))) == {0: 1, 1: 2, 2: 1}


def test_zeta_point_and_affine():
    f = zeta_series(Point(), 6)
    assert all(c == MultiPoly.const(1) for c in f.coeffs)
    g = zeta_series(Affine(2), 5)
    assert [c for c in g.coeffs] == [
        MultiPoly.const(1) if k == 0 else MultiPoly.var("L", 2 * k)
        for k in range(5)
    ]


def test_zeta_projective_line():
    f = zeta_series(Proj(1), 5)
    assert [c for c in f.coeffs] == [geom_sum(n) for n in range(5)]


def test_zeta_torus_line():
    f = zeta_series(Torus(1), 4)
    want = [
        MultiPoly.const(1),
        L.sub(MultiPoly.const(1)),
        MultiPoly.var("L", 2).sub(L),
        MultiPoly.var("L", 3).sub(MultiPoly.var("L", 2)),
    ]
    assert [c for c in f.coeffs] == want


def test_zeta_curve_increments():
    f = zeta_series(Curve(1), 4)
    c1 = MultiPoly.var("c1")
    J = MultiPoly.var("J")
    assert f.coefficient(1) == c1
    assert f.coefficient(2) == c1.add(J.mul(L))
    assert f.coefficient(3) == c1.add(J.mul(L)).add(J.mul(MultiPoly.var("L", 2)))
    g = zeta_series(Curve(1), 3, increment="X")
    assert g.coefficient(2) == c1.add(c1.mul(L))


def test_zeta_genus_zero_is_projective_line():
    f = zeta_series(Curve(0), 6)
    g = zeta_series(Proj(1), 6)
    assert f.coeffs == g.coeffs


def dense_cell_series(ring, profile, n):
    """prod_k (1 - L^k t)^(-a_k) from dense geometric series, products and
    inverses: the reference for the in-place recurrence of zeta_series."""
    out = TruncSeries.one(ring, n)
    for k, a in profile.items():
        out = out.mul(TruncSeries.geometric(ring, MultiPoly.var("L", k), n).pow(a))
    return out


def test_torus_recursion_matches_closed_form():
    rng = random.Random(1105)
    exprs = [Torus(d) for d in (1, 2, 3)]
    exprs += [parse_variety(text) for text in CELL_CORPUS]
    exprs += [random_expr(rng, 2, False) for _ in range(30)]
    for expr in exprs:
        f = zeta_series(expr, 12)
        want = dense_cell_series(f.ring, cell_profile(expr), 12)
        assert f.coeffs == want.coeffs, str(expr)


@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("r", [1, 2])
def test_bundles_over_a_curve_are_products_with_cells(g, r):
    curve = Curve(g)
    for bundle, cells in ((VectorBundle, Affine), (ProjBundle, Proj)):
        assert (
            zeta_series(bundle(curve, r), 10).coeffs
            == zeta_series(Prod(cells(r), curve), 10).coeffs
        )
        a, b = zeta_rational(bundle(curve, r)), zeta_rational(Prod(cells(r), curve))
        assert (a.num, a.den) == (b.num, b.den)


def test_bundle_combinators_over_a_curve():
    base = zeta_series(Curve(1), 8)
    vb = zeta_series(VectorBundle(Curve(1), 2), 8)
    assert vb.coeffs == base.scale_arg(MultiPoly.var("L", 2)).coeffs
    pb = zeta_series(ProjBundle(Curve(1), 1), 8)
    assert pb.coeffs == base.mul(base.scale_arg(L)).coeffs


def test_product_against_cells_matches_scissor_expansion():
    # P1 x P1 = point + 2 A^1 + A^2
    direct = zeta_series(Prod(Proj(1), Proj(1)), 7)
    pieces = Disjoint(Disjoint(Point(), Affine(1)), Disjoint(Affine(1), Affine(2)))
    assert direct.coeffs == zeta_series(pieces, 7).coeffs


def test_product_of_curve_and_torus():
    # C x Gm = (C x A^1) minus a copy of C
    direct = zeta_series(Prod(Curve(1), Torus(1)), 8)
    base = zeta_series(Curve(1), 8)
    want = base.scale_arg(L).mul(base.inverse())
    assert direct.coeffs == want.coeffs


def test_product_of_two_curves_has_no_closed_form():
    expr = Prod(Curve(1), Curve(1))
    two = zeta_series(expr, 2)
    assert two.coefficient(1) == MultiPoly.var("c1").mul(MultiPoly.var("c2_1"))
    with pytest.raises(NoClosedFormError):
        zeta_series(expr, 3)
    with pytest.raises(NoClosedFormError):
        zeta_rational(expr)


def test_curve_symbol_families():
    model = MotivicModel(Disjoint(Curve(1), Curve(2)))
    assert model.ring.variables == ("L", "J", "c1", "J2", "c2_1", "c2_2", "c2_3")
    f = model.zeta_series(3)
    assert f.coefficient(1) == MultiPoly.var("c1").add(MultiPoly.var("c2_1"))


def random_expr(rng, depth, allow_curve):
    options = ["point", "A", "P", "Gm"]
    if allow_curve:
        options.append("Curve")
    if depth > 0:
        options.extend(["Prod", "Disj", "VB", "PB"])
    pick = rng.choice(options)
    if pick == "point":
        return Point()
    if pick == "A":
        return Affine(rng.randint(0, 3))
    if pick == "P":
        return Proj(rng.randint(0, 3))
    if pick == "Gm":
        return Torus(rng.randint(0, 2))
    if pick == "Curve":
        return Curve(rng.randint(0, 2))
    if pick == "Prod":
        return Prod(
            random_expr(rng, depth - 1, False),
            random_expr(rng, depth - 1, allow_curve),
        )
    if pick == "Disj":
        return Disjoint(
            random_expr(rng, depth - 1, allow_curve),
            random_expr(rng, depth - 1, allow_curve),
        )
    if pick == "VB":
        return VectorBundle(random_expr(rng, depth - 1, allow_curve), rng.randint(0, 2))
    return ProjBundle(random_expr(rng, depth - 1, allow_curve), rng.randint(0, 2))


def test_scissor_consistency_on_random_expressions():
    rng = random.Random(7272)
    for _ in range(20):
        a = random_expr(rng, 2, True)
        b = random_expr(rng, 2, True)
        expr = Disjoint(a, b)
        model = MotivicModel(expr)
        whole = model.zeta_series(8)
        parts = model.series_of(a, 8).mul(model.series_of(b, 8))
        assert whole.eq(parts)


def test_curve_numerator_bound():
    for g in range(4):
        for increment in ("J", "X"):
            f = zeta_series(Curve(g), 25, increment=increment)
            ring = f.ring
            shear = TruncSeries.from_polynomial(
                ring, [ring.one(), ring.neg(ring.one())], 25
            ).mul(
                TruncSeries.from_polynomial(
                    ring, [ring.one(), ring.neg(ring.var("L"))], 25
                )
            )
            assert shear.mul(f).is_zero_beyond(2 * g), (g, increment)


def test_rational_form_affine_and_proj():
    form = zeta_rational(Affine(3))
    assert form.num == [MultiPoly.const(1)]
    assert form.den == [MultiPoly.const(1), MultiPoly.var("L", 3).neg()]
    p2 = zeta_rational(Proj(2))
    assert p2.num == [MultiPoly.const(1)]
    assert len(p2.den) == 4  # (1-t)(1-Lt)(1-L^2 t)
    f = zeta_series(Proj(2), 10)
    assert verify_global(f, p2.den, p2.num)


def test_rational_form_torus_is_reduced():
    form = zeta_rational(Torus(2))
    one = MultiPoly.const(1)
    two_L = MultiPoly.var("L").mul_int(-2)
    assert form.num == [one, two_L, MultiPoly.var("L", 2)]
    assert form.den == [
        one,
        MultiPoly.var("L", 2).add(one).neg(),
        MultiPoly.var("L", 2),
    ]


def test_rational_form_cancellation():
    form = zeta_rational(Disjoint(Torus(1), Point()))
    assert form.num == [MultiPoly.const(1)]
    assert form.den == [MultiPoly.const(1), MultiPoly.var("L").neg()]


def test_rational_form_curve():
    form = zeta_rational(Curve(2))
    one = MultiPoly.const(1)
    assert form.den == [one, L.add(one).neg(), L]
    assert len(form.num) <= 5
    assert form.num[0] == one
    f = zeta_series(Curve(2), form.verified_to)
    report = verify_global(f, form.den, form.num)
    assert report and report.uniqueness == "certified"


def test_rational_form_curve_times_torus():
    form = zeta_rational(Prod(Curve(1), Torus(1)))
    f = zeta_series(Prod(Curve(1), Torus(1)), form.verified_to)
    assert verify_global(f, form.den, form.num)
    # denominator picks up the curve numerator evaluated at t
    assert any(c.variables() for c in form.den)


def test_closed_forms_hold_past_their_verification_window():
    # rational_form certifies itself to verified_to terms; check the same
    # num/den against twice as many terms plus four
    rng = random.Random(1313)
    exprs = [parse_variety(text) for text in CELL_CORPUS]
    curved = []
    while len(curved) < 16:
        expr = random_expr(rng, 1, True)
        if cell_profile(expr) is None:
            curved.append(expr)
    nested = (
        "Prod(Gm(1),PB(Curve(1),1))",
        "PB(Prod(Gm(1),Curve(1)),1)",
        "Prod(Prod(P(1),Gm(1)),VB(Curve(1),2))",
    )
    exprs += curved + [parse_variety(text) for text in nested]
    for expr in exprs:
        form = zeta_rational(expr)
        f = zeta_series(expr, 2 * form.verified_to + 4)
        assert verify_global(f, form.den, form.num).product_ok, str(expr)


CERTIFIED_SHAPES = ("P(2)", "Curve(1)", "PB(Curve(1),2)", "Prod(Gm(2),Curve(1))")


@pytest.mark.parametrize("text", CERTIFIED_SHAPES)
def test_certificate_rejects_a_perturbed_coefficient(monkeypatch, text):
    # rational_form multiplies the series by each factor of den; a change to
    # any one of the first verified_to coefficients must fail it, the last
    # one included
    expr = parse_variety(text)
    n = zeta_rational(expr).verified_to
    original = MotivicModel.zeta_series
    for i in range(n):

        def perturbed(self, terms, i=i):
            f = original(self, terms)
            coeffs = list(f.coeffs)
            if i < len(coeffs):
                coeffs[i] = f.ring.add(coeffs[i], f.ring.one())
            return TruncSeries(f.ring, coeffs)

        monkeypatch.setattr(MotivicModel, "zeta_series", perturbed)
        with pytest.raises(RuntimeError, match="failed verification"):
            MotivicModel(expr).rational_form()


@pytest.mark.parametrize("text", CERTIFIED_SHAPES)
def test_certificate_rejects_a_missing_denominator_factor(monkeypatch, text):
    expr = parse_variety(text)
    model = MotivicModel(expr)
    num, den, factors = model._closed_form()
    ring = model.ring
    product = [ring.one()]
    for factor in factors:
        product = poly_mul(ring, product, factor)
    assert product == den and len(factors) >= 2
    original = MotivicModel._closed_form
    for j in range(len(factors)):

        def dropped(self, j=j):
            num, den, factors = original(self)
            return num, den, factors[:j] + factors[j + 1:]

        monkeypatch.setattr(MotivicModel, "_closed_form", dropped)
        with pytest.raises(RuntimeError, match="failed verification"):
            MotivicModel(expr).rational_form()


@pytest.mark.parametrize(
    "text",
    (
        "Prod(Gm(2),Curve(1))",
        "Prod(Gm(1),Curve(2))",
        "PB(Curve(1),2)",
        "Prod(Prod(P(1),P(1)),Curve(1))",
    ),
)
def test_twisted_closed_forms_pass_verify_global(text):
    # the factor-wise certificate against the expanded denominator
    expr = parse_variety(text)
    form = zeta_rational(expr)
    f = zeta_series(expr, form.verified_to)
    report = verify_global(f, form.den, form.num)
    assert report.product_ok and report.uniqueness == "certified"
    assert report.precision == form.verified_to


def test_one_curve_at_opposite_exponents_cancels():
    # C + (L - 1) C = L C, so Z = Z_C(Lt) = N_C(Lt) / ((1 - Lt)(1 - L^2 t));
    # only a library caller can share one Curve node between two places
    curve = Curve(1)
    form = zeta_rational(Disjoint(curve, Prod(Torus(1), curve)))
    ring = form.ring
    assert ring.variables == ("L", "J", "c1")
    n_c = zeta_rational(Curve(1)).num
    assert form.num == poly_scale_t(ring, n_c, L)
    one = MultiPoly.const(1)
    assert form.den == [one, L.add(MultiPoly.var("L", 2)).neg(), MultiPoly.var("L", 3)]
    assert form.verified_to == 6


def test_nested_twists_over_a_curve_cancel():
    # Gm(1) x PB(C, 1) = (L - 1)(1 + L) C, so Z = Z_C(L^2 t) / Z_C(t): the
    # two Z_C(Lt) factors cancel
    form = zeta_rational(parse_variety("Prod(Gm(1),PB(Curve(1),1))"))
    ring = form.ring
    n_c = zeta_rational(Curve(1)).num
    one = MultiPoly.const(1)

    def binom(k):
        return [one, MultiPoly.var("L", k).neg()] if k else [one, one.neg()]

    num = poly_mul(ring, poly_scale_t(ring, n_c, MultiPoly.var("L", 2)), binom(0))
    num = poly_mul(ring, num, binom(1))
    den = poly_mul(ring, n_c, poly_mul(ring, binom(2), binom(3)))
    assert (form.num, form.den) == (num, den)
    assert form.verified_to == 10


def test_rational_forms_pass_hankel():
    for text, m, n in (("A(2)", 1, 0), ("P(2)", 3, 0), ("Gm(2)", 2, 0)):
        expr = parse_variety(text)
        f = zeta_series(expr, 14)
        report = hankel_test(f, 3, 5)
        assert report.summary == (m, n), text


def test_virtual_finiteness_point_and_line():
    rep = virtual_finiteness_check(Point(), 8)
    assert rep.kind == "direct"
    assert rep.polynomial
    assert rep.witness_y == [MultiPoly.const(1), MultiPoly.const(1)]
    assert rep.witness_z == [MultiPoly.const(1)]
    rep = virtual_finiteness_check(Proj(1), 8)
    assert rep.kind == "direct"
    assert rep.witness_y == [MultiPoly.const(1), L.add(MultiPoly.const(1)), L]
    rep0 = virtual_finiteness_check(Curve(0), 8)
    assert rep0.witness_y == rep.witness_y


def test_virtual_finiteness_curve():
    rep = virtual_finiteness_check(Curve(2), 12)
    assert rep.kind == "difference"
    assert not rep.polynomial
    assert rep.witness_y == [MultiPoly.const(1), L.add(MultiPoly.const(1)), L]
    form = zeta_rational(Curve(2))
    want = [
        c if j % 2 == 0 else c.neg() for j, c in enumerate(form.num)
    ]
    assert rep.witness_z == want
    assert len(rep.witness_z) <= 5


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_series(Point(), 2.5),
        lambda: zeta_series(Point(), "3"),
        lambda: zeta_series(Point(), True),
        lambda: MotivicModel(Proj(1)).series_of(Proj(1), 4.0),
        lambda: virtual_finiteness_check(Proj(1), 6.5),
        lambda: virtual_finiteness_check(Proj(1), True),
    ],
    ids=["float", "str", "bool", "series_of", "finiteness-float", "finiteness-bool"],
)
def test_non_integer_precisions_are_typed_errors(call):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call()


def test_series_of_a_foreign_curve_is_a_typed_error():
    # curves are matched by identity: an equal node built separately is not
    # part of the model's expression
    model = MotivicModel(Prod(Proj(1), Curve(1)))
    for node in (Curve(1), Prod(Proj(1), Curve(1))):
        with pytest.raises(InvalidInputError, match=r"Curve\(1\) is not a node"):
            model.series_of(node, 3)
    assert model.series_of(model.expr.right, 3).precision == 3


def test_virtual_finiteness_guards():
    with pytest.raises(InvalidInputError):
        virtual_finiteness_check(Proj(2), 10)
    with pytest.raises(PrecisionError):
        virtual_finiteness_check(Curve(2), 5)


def test_specialize_series():
    f = zeta_series(Proj(1), 5)
    image = specialize(f, {"L": 3})
    assert [str(c) for c in image.coeffs] == ["1", "4", "13", "40", "121"]
    g = specialize(zeta_series(Torus(1), 6), {"L": 1})
    assert all(str(c) == "0" for c in g.coeffs[1:])
    h = specialize(zeta_series(Affine(1), 6), {"L": 0})
    assert str(h.coefficient(0)) == "1"
    assert all(str(c) == "0" for c in h.coeffs[1:])


def test_specialize_element_and_defaults():
    value = specialize(L.mul(L).add(MultiPoly.const(1)), {"L": 2})
    assert value == 5
    f = zeta_series(Curve(1), 4)
    with pytest.raises(MissingDataError):
        specialize(f, {"L": 1})
    g = specialize(f, {"L": 2, "*": 0})
    assert str(g.coefficient(0)) == "1"
    assert all(str(c) == "0" for c in g.coeffs[1:])


def test_rational_form_json_and_str():
    form = zeta_rational(Torus(1))
    blob = form.to_json()
    assert blob["num"] and blob["den"] and blob["verified_to"] >= 4
    assert "t" in str(form)
