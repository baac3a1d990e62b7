"""Packed monomials: MultiPoly arithmetic and the ring.dot kernel against the
tuple-key reference in mzeta.oracles, on one layout and where layouts meet;
the 2^63 exponent bound; per-ring layouts that do not depend on the names a
process has seen; and output that does not depend on the order in which
variable names were first seen."""

from __future__ import annotations

import copy
import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from mzeta import oracles, rings
from mzeta.errors import (
    DegreeCutoffError,
    InvalidElementError,
    NotInvertibleError,
    RingMismatchError,
)
from mzeta.rings import (
    QQ,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
    poly_from_json,
    poly_to_json,
)
from mzeta.series import TruncSeries

# more than 20 names, so fields well past the first few are exercised
NAMES = ["pk%d" % i for i in range(1, 26)]
BIG = 2**63 - 1


def rand_tuple_poly(rng, names, max_terms=5, max_exp=3, square_free=False):
    """A tuple-key polynomial, sometimes a constant or zero."""
    out = {}
    for _ in range(rng.randrange(max_terms + 1)):
        chosen = rng.sample(names, rng.randrange(min(4, len(names)) + 1))
        top = 1 if square_free else max_exp
        key = tuple(sorted((v, rng.randint(1, top)) for v in chosen))
        out[key] = out.get(key, 0) + rng.randint(-9, 9)
    return {key: c for key, c in out.items() if c}


def as_tuple(p):
    return dict(p.items())


def test_arithmetic_matches_tuple_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        names = rng.sample(NAMES, rng.randint(1, 8))
        a = rand_tuple_poly(rng, names)
        b = rand_tuple_poly(rng, names)
        pa, pb = MultiPoly(a), MultiPoly(b)
        assert as_tuple(pa) == a
        assert as_tuple(pa.add(pb)) == oracles.tuple_poly_add(a, b)
        assert as_tuple(pa.mul(pb)) == oracles.tuple_poly_mul(a, b)
        n = rng.randrange(4)
        want = {(): 1}
        for _ in range(n):
            want = oracles.tuple_poly_mul(want, a)
        assert as_tuple(pa.pow(n)) == want


def _check_substitute(p, images, make=MultiPoly):
    """p.substitute against the tuple oracle, with p and every polynomial
    image built by make; an int image goes in as it is."""
    want = oracles.tuple_poly_substitute(
        p, {v: img if isinstance(img, dict) else ({(): img} if img else {}) for v, img in images.items()}
    )
    got = make(p).substitute({v: img if isinstance(img, int) else make(img) for v, img in images.items()})
    assert as_tuple(got) == want


def test_substitute_matches_tuple_reference():
    rng = random.Random(7)
    reversed_ring = PolynomialRing(NAMES[::-1])
    prefix_ring = SquareZeroRing(prefix="pk")
    for _ in range(150):
        names = rng.sample(NAMES, rng.randint(2, 6))
        p = rand_tuple_poly(rng, names)
        targets = rng.sample(names, rng.randint(1, len(names)))
        if rng.random() < 0.5:
            # bare variables: a rename, which may merge terms
            images = {v: {((rng.choice(NAMES), 1),): 1} for v in targets}
        else:
            images = {v: rand_tuple_poly(rng, names, max_terms=3, max_exp=2) for v in targets}
        _check_substitute(p, images)
        # int images, 0 and negatives among them
        _check_substitute(p, {v: (0, -2, 3, -1)[i % 4] for i, v in enumerate(targets)})
        # every variable, to ints and polynomials
        _check_substitute(
            p, {v: rng.choice([rng.randint(-2, 2), rand_tuple_poly(rng, names, max_terms=2)]) for v in names}
        )
        _check_substitute(p, {})
        # an image that reuses a name p keeps, and a simultaneous swap
        x, y = rng.sample(names, 2)
        _check_substitute(p, {x: {((y, 1),): 1}})
        _check_substitute(p, {x: {((y, 1),): 1}, y: {((x, 1),): 1}})
        # on a reversed-order ring layout, and on a prefix square-zero
        # ring's layout, which grows in the order its variables are met
        _check_substitute(p, images, lambda a: _build(reversed_ring.var, reversed_ring.one(), a))
        q = rand_tuple_poly(rng, names, square_free=True)
        square_free = {v: rand_tuple_poly(rng, names, max_terms=3, square_free=True) for v in targets}
        _check_substitute(q, square_free, lambda a: _build(prefix_ring.var, prefix_ring.one(), a))


def test_substitute_forms_each_image_power_once(monkeypatch):
    # the 64 terms x^i y^j z^k (i, j, k < 4) need x's and y's images to
    # the powers 1, 2 and 3
    p = {
        tuple((v, e) for v, e in zip("xyz", exps) if e): 1 + sum(exps)
        for exps in itertools.product(range(4), repeat=3)
    }
    images = {"x": {(("y", 1),): 1, (): 2}, "y": {(("x", 1),): 1, (("z", 1),): -1}}
    calls = []
    pow_ = MultiPoly.pow

    def spy(self, n):
        calls.append((id(self), n))
        return pow_(self, n)

    monkeypatch.setattr(MultiPoly, "pow", spy)
    _check_substitute(p, images)
    assert len(calls) == len(set(calls)) == 6
    assert sorted(n for _, n in calls) == [1, 1, 2, 2, 3, 3]


def test_square_zero_product_matches_tuple_reference():
    rng = random.Random(11)
    ring = SquareZeroRing(NAMES)
    prefix_ring = SquareZeroRing(prefix="pk")
    for _ in range(200):
        names = rng.sample(NAMES, rng.randint(1, 10))
        a = rand_tuple_poly(rng, names, square_free=True)
        b = rand_tuple_poly(rng, names, square_free=True)
        want = oracles.tuple_poly_mul(a, b, square_zero=True)
        assert as_tuple(ring.mul(MultiPoly(a), MultiPoly(b))) == want
        assert as_tuple(prefix_ring.mul(MultiPoly(a), MultiPoly(b))) == want


DOT_RINGS = {
    "Z": IntegerRing(),
    "poly": PolynomialRing(NAMES),
    "square_zero": SquareZeroRing(NAMES),
    "Q": QQ,
}


def _rand_dot_pair(rng, kind):
    """One (a, b) pair for ring kind: tuple-key polynomials, or Fractions."""
    if kind == "Q":
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2))
    if kind == "Z":
        return tuple({(): c} if c else {} for c in (rng.randint(-9, 9), rng.randint(-9, 9)))
    # always one name from the last five, so high fields occur in every list
    names = rng.sample(NAMES[:20], rng.randint(0, 5)) + [rng.choice(NAMES[20:])]
    return tuple(rand_tuple_poly(rng, names, square_free=kind == "square_zero") for _ in range(2))


@pytest.mark.parametrize("kind", sorted(DOT_RINGS))
def test_dot_matches_tuple_reference(kind):
    ring = DOT_RINGS[kind]
    rng = random.Random("dot-" + kind)
    deepest = 0
    for _ in range(200):
        pairs = [_rand_dot_pair(rng, kind) for _ in range(rng.randint(0, 6))]
        if kind == "Q":
            want = Fraction(0)
            for a, b in pairs:
                want += a * b
            got = ring.dot(pairs)
            assert type(got) is Fraction and got == want
            continue
        want = {}
        for a, b in pairs:
            want = oracles.tuple_poly_add(
                want, oracles.tuple_poly_mul(a, b, square_zero=kind == "square_zero")
            )
        operands = [(MultiPoly(a), MultiPoly(b)) for a, b in pairs]
        if rng.random() < 0.5:
            # on the ring's own layout
            operands = [tuple(ring.elem_from_json(poly_to_json(p)) for p in pair) for pair in operands]
        got = ring.dot(iter(operands))
        assert as_tuple(got) == want
        assert 0 not in got.terms.values()
        ring.validate(got)
        if operands and operands[0][0].layout is ring._layout:
            assert got.layout is ring._layout
            deepest = max([deepest] + [key.bit_length() for key in got.terms])
    if kind in ("poly", "square_zero"):
        # the names every list draws one of sit past field 20 of the ring's
        # layout, and products on it reach them
        assert all(ring._layout.index[v] >= 20 for v in NAMES[20:])
        assert deepest > 64 * 20


@pytest.mark.parametrize("kind", sorted(DOT_RINGS))
def test_dot_of_no_pairs_is_the_ring_zero(kind):
    ring = DOT_RINGS[kind]
    for pairs in ([], (), iter([])):
        got = ring.dot(pairs)
        assert type(got) is type(ring.zero())
        assert ring.is_zero(got) and ring.eq(got, ring.zero())
    if kind != "Q":
        assert ring.dot([]).terms == {}


@pytest.mark.parametrize("kind", sorted(DOT_RINGS))
def test_dot_cancels_without_stored_zeros(kind):
    ring = DOT_RINGS[kind]
    rng = random.Random("cancel-" + kind)
    for _ in range(50):
        a, b = _rand_dot_pair(rng, kind)
        if kind == "Q":
            assert ring.dot([(a, b), (-a, b)]) == 0
            continue
        a, b = MultiPoly(a), MultiPoly(b)
        assert ring.dot([(a, b), (a.neg(), b)]).terms == {}
        c = MultiPoly(_rand_dot_pair(rng, kind)[0])
        # a cancelled sum in the middle of a list leaves only the rest
        assert ring.dot([(a, b), (c, c), (b, a.neg())]) == ring.mul(c, c)


def test_dot_raises_past_the_exponent_bound():
    x = MultiPoly.var("pk9", BIG)
    y = MultiPoly.var("pk9")
    one = MultiPoly.const(1)
    ring = DOT_RINGS["poly"]
    with pytest.raises(DegreeCutoffError):
        ring.dot([(one, one), (x, y)])
    with pytest.raises(DegreeCutoffError):
        ring.mul(x, y)
    with pytest.raises(DegreeCutoffError):
        x.mul(y)
    with pytest.raises(DegreeCutoffError):
        DOT_RINGS["square_zero"].dot([(x, y)])
    # one below the bound is fine, and sums stay in their field
    below = MultiPoly.var("pk9", BIG - 1)
    assert ring.dot([(below, y), (y, below)]) == x.mul_int(2)


def test_cancellation_and_constants():
    x, y = MultiPoly.var("pk1"), MultiPoly.var("pk2")
    assert (x.add(y)).mul(x.sub(y)) == x.mul(x).sub(y.mul(y))
    assert x.mul(y).sub(y.mul(x)).is_zero()
    assert x.mul(y).sub(y.mul(x)).terms == {}
    assert MultiPoly.const(6).mul(MultiPoly.const(-7)).as_int() == -42
    assert MultiPoly.const(0).mul(x).is_zero()
    assert MultiPoly.const(3).add(MultiPoly.const(-3)).is_zero()
    assert as_tuple(MultiPoly.const(5)) == {(): 5}


def test_exponents_just_below_the_bound():
    x = MultiPoly.var("pk3", BIG)
    assert as_tuple(x) == {(("pk3", BIG),): 1}
    assert as_tuple(x.mul(MultiPoly.var("pk4", BIG))) == {(("pk3", BIG), ("pk4", BIG)): 1}
    half = MultiPoly.var("pk3", 2**62)
    assert half.mul(MultiPoly.var("pk3", 2**62 - 1)) == x
    blob = json.dumps(poly_to_json(x.mul(MultiPoly.var("pk20", BIG))))
    assert poly_from_json(json.loads(blob)) == x.mul(MultiPoly.var("pk20", BIG))
    assert str(x) == "pk3^%d" % BIG


def test_exponent_overflow_is_a_degree_cutoff():
    x = MultiPoly.var("pk5", BIG)
    with pytest.raises(DegreeCutoffError):
        x.mul(MultiPoly.var("pk5"))
    with pytest.raises(DegreeCutoffError):
        MultiPoly.var("pk5", 2**62).pow(2)
    with pytest.raises(DegreeCutoffError):
        MultiPoly.var("pk5", 2**63)
    with pytest.raises(DegreeCutoffError):
        MultiPoly({(("pk5", 10**30),): 1})
    with pytest.raises(DegreeCutoffError):
        poly_from_json({"terms": [{"c": "1", "e": {"pk5": 2**63}}]})
    # a rename that merges two large exponents into one field
    xy = MultiPoly.var("pk5", 2**62).mul(MultiPoly.var("pk6", 2**62))
    with pytest.raises(DegreeCutoffError):
        xy.substitute({"pk5": MultiPoly.var("pk6")})
    # the neighbouring field is never touched by a carry
    y = MultiPoly.var("pk6", 7)
    assert as_tuple(x.mul(y)) == {(("pk5", BIG), ("pk6", 7)): 1}
    with pytest.raises(InvalidElementError):
        MultiPoly({(("pk5", -1),): 1})


def test_ring_validation_reads_packed_fields():
    ring = PolynomialRing(["pk7", "pk8"])
    ring.validate(MultiPoly.var("pk7", BIG).mul(MultiPoly.var("pk8")))
    with pytest.raises(RingMismatchError, match=r"\['pk9'\] not in ring \['pk7', 'pk8'\]"):
        ring.validate(MultiPoly.var("pk9").mul(MultiPoly.var("pk7")))
    late = SquareZeroRing(prefix="late")
    value = MultiPoly.var("late1")
    late.validate(value)
    # a name registered after the ring's first validation is still learnt
    late.validate(value.mul(MultiPoly.var("late2")))
    with pytest.raises(RingMismatchError, match="'pk1' is not in this ring"):
        late.validate(value.mul(MultiPoly.var("pk1")))
    with pytest.raises(InvalidElementError, match="unreduced square late1\\^2"):
        late.validate(value.mul(value))


_ORDER_SCRIPT = """
import io, json, sys
from mzeta import cli
from mzeta.rings import MultiPoly
for name in sys.argv[1].split(","):
    MultiPoly.var(name)
out = io.StringIO()
assert cli.run(["zeta", "Prod(Curve(1),P(1))", "--terms", "8", "--rational",
                "--format", "json"], out=out) == 0
zeta = out.getvalue()
with open(sys.argv[2], "w") as fh:
    json.dump(json.loads(zeta)["series"], fh)
out = io.StringIO()
assert cli.run(["hankel", sys.argv[2], "--m-max", "2", "--offset-max", "2",
                "--format", "json"], out=out) == 0
sys.stdout.write(zeta + out.getvalue())
"""


def test_output_independent_of_name_order(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    names = ["L", "J", "c1", "c2", "zz", "a0"]
    outputs = []
    for i, order in enumerate((names, names[::-1])):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(i + 1))
        run = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT, ",".join(order), str(tmp_path / ("s%d.json" % i))],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert b'"rational"' in outputs[0] and b'"determinants"' in outputs[0]


def test_inverse_of_huge_non_unit_is_typed():
    with pytest.raises(NotInvertibleError):
        TruncSeries.from_ints(IntegerRing(), [10**5000, 1]).inverse()
    with pytest.raises(NotInvertibleError):
        IntegerRing().invert(MultiPoly.const(10**5000))
    with pytest.raises(NotInvertibleError):
        SquareZeroRing(["pk1"]).invert(MultiPoly.const(10**5000))


def test_concurrent_registration_gives_each_name_one_field():
    names = ["thr%d" % i for i in range(300)]
    blob = poly_to_json(MultiPoly({tuple((name, 1) for name in names): 1}))
    results = []

    def build(forward):
        order = names if forward else names[::-1]
        ring = PolynomialRing(names)
        on_ring = ring.one()
        free = MultiPoly.const(1)
        for name in order:
            on_ring = ring.mul(on_ring, ring.var(name))
            free = free.mul(MultiPoly.var(name))
        results.append((forward, ring, on_ring, free, poly_from_json(blob)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i % 2 == 0,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    # a lost update while interning would give one tuple of names two
    # layouts: the same build must meet the same layout, by identity
    rings_ = [r[1] for r in results]
    assert all(ring._layout is rings_[0]._layout for ring in rings_)
    assert rings_[0]._layout.names == tuple(names)
    for forward in (True, False):
        same = [r for r in results if r[0] is forward]
        assert len(same) == 4
        assert all(r[3].layout is same[0][3].layout for r in same)
    assert all(r[2].layout is rings_[0]._layout for r in results)
    assert all(r[4].layout is results[0][4].layout for r in results)
    for lay in rings._layouts.values():
        assert rings._layouts[lay.names] is lay
        assert len(set(lay.names)) == len(lay.names)
    want = {tuple(sorted((name, 1) for name in names)): 1}
    for r in results:
        assert r[2] == r[3] == r[4]
        assert as_tuple(r[2]) == as_tuple(r[3]) == as_tuple(r[4]) == want


def test_layout_table_forgets_layouts_nothing_holds():
    # a product built one variable at a time over fresh names interns a
    # layout per prefix; the table used to keep all 599 of them for good
    gc.collect()
    size = len(rings._layouts)
    p = MultiPoly.const(1)
    for i in range(300):
        p = p.mul(MultiPoly.var("gone%d" % i))
    assert len(rings._layouts) > size
    assert p.layout is rings._layout_of(p.layout.names)
    del p
    gc.collect()
    assert len(rings._layouts) == size
    assert not any(name.startswith("gone") for names in rings._layouts for name in names)


@pytest.mark.parametrize("name", ["1x", "", "x y", "_x", "x-y", "é", "x\n", 5, None])
def test_bad_variable_name_is_typed_wherever_a_layout_learns_it(name):
    x = MultiPoly.var("x")
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        MultiPoly({((name, 1),): 2})
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        MultiPoly.var(name)
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        x.collect(["x", name])
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        x.substitute({name: MultiPoly.var("y")})
    # a name with a zero exponent or coefficient enters no layout
    assert MultiPoly({((name, 0),): 2}) == MultiPoly.const(2)
    assert MultiPoly({((name, 1),): 0}).is_zero()
    # an unhashable name too, where one can be passed
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        MultiPoly.var([name])
    with pytest.raises(InvalidElementError, match="^bad variable name "):
        x.collect([[name]])


def test_bad_name_no_longer_reaches_text_output():
    # the name was once stored, and str() failed in the natural sort
    with pytest.raises(InvalidElementError):
        str(MultiPoly({(("1x", 1),): 2}).add(MultiPoly.var("x")))


# where layouts meet: a ring's layout, the layouts of MultiPoly.var products
# and of JSON input, a prefix square-zero ring's growing layout, and constants
CROSS = ["L", "J", "c1", "c2", "x1", "x2", "x3"]
CROSS_RING = PolynomialRing(CROSS)
CROSS_OTHER = PolynomialRing(["x3", "c2", "L", "x1"])
CROSS_PREFIX = SquareZeroRing(prefix="x")


def _build(ring_var, one, a):
    out = None
    for mono, c in a.items():
        term = one.mul_int(c)
        for v, e in mono:
            term = term.mul(ring_var(v).pow(e) if e > 1 else ring_var(v))
        out = term if out is None else out.add(term)
    return one.mul_int(0) if out is None else out


def _cross_operand(rng, a):
    """a as a MultiPoly on a layout chosen among those that can hold it."""
    names = {v for mono in a for v, _ in mono}
    square_free = all(e == 1 for mono in a for _, e in mono)
    makers = [
        lambda: _build(CROSS_RING.var, CROSS_RING.one(), a),
        lambda: _build(MultiPoly.var, MultiPoly.const(1), a),
        lambda: poly_from_json(json.loads(json.dumps(poly_to_json(MultiPoly(a))))),
        lambda: MultiPoly(a),
    ]
    if names <= set(CROSS_OTHER.variables):
        makers.append(lambda: _build(CROSS_OTHER.var, CROSS_OTHER.one(), a))
    if square_free and names <= {"x1", "x2", "x3"}:
        makers.append(lambda: _build(CROSS_PREFIX.var, CROSS_PREFIX.one(), a))
    if not names:
        makers.append(lambda: MultiPoly.const(a.get((), 0)))
    p = rng.choice(makers)()
    assert as_tuple(p) == a
    return p


def _tuple_collect(a, names):
    out = {}
    for mono, c in a.items():
        exps = dict(mono)
        vec = tuple(exps.pop(v, 0) for v in names)
        rest = tuple(sorted(exps.items()))
        out.setdefault(vec, {})[rest] = c
    return out


def test_operations_agree_with_tuple_reference_across_layouts():
    rng = random.Random("cross-layout")
    for _ in range(400):
        if rng.random() < 0.3:
            pool = ["x1", "x2", "x3"]
        else:
            pool = rng.sample(CROSS, rng.randint(1, len(CROSS)))
        square_free = rng.random() < 0.3
        a, b, c = (rand_tuple_poly(rng, pool, max_terms=4, square_free=square_free) for _ in range(3))
        pa, pb, pc = (_cross_operand(rng, t) for t in (a, b, c))
        neg_b = {k: -v for k, v in b.items()}
        assert as_tuple(pa.add(pb)) == oracles.tuple_poly_add(a, b)
        assert as_tuple(pa.sub(pb)) == oracles.tuple_poly_add(a, neg_b)
        assert as_tuple(pa.mul(pb)) == oracles.tuple_poly_mul(a, b)
        want = oracles.tuple_poly_add(oracles.tuple_poly_mul(a, b), oracles.tuple_poly_mul(c, a))
        got = CROSS_RING.dot([(pa, pb), (pc, pa)])
        assert as_tuple(got) == want
        CROSS_RING.validate(got)
        v = rng.choice(CROSS)
        assert as_tuple(pa.substitute({v: pc})) == oracles.tuple_poly_substitute(a, {v: c})
        w = rng.choice(CROSS)
        if v != w:
            # a rename, which may merge terms
            image = _cross_operand(rng, {((w, 1),): 1})
            assert as_tuple(pa.substitute({v: image})) == oracles.tuple_poly_substitute(
                a, {v: {((w, 1),): 1}}
            )
        names = rng.sample(CROSS, rng.randint(1, 3))
        assert {vec: as_tuple(q) for vec, q in pa.collect(names).items()} == _tuple_collect(a, names)
        assert (pa == pb) == (a == b)
        assert pa == MultiPoly(a) and pa == _cross_operand(rng, a)
        assert sorted(pa.items()) == sorted(a.items())
        assert poly_to_json(pa) == poly_to_json(MultiPoly(a))
        assert str(pa) == str(MultiPoly(a))


def _repacks(monkeypatch):
    """A list that records (src names, dst names) of each _moved call that
    re-packs its keys."""
    repacked = []
    real = rings._moved

    def spy(terms, src, dst):
        out = real(terms, src, dst)
        if out is not terms:
            repacked.append((src, dst.names))
        return out

    monkeypatch.setattr(rings, "_moved", spy)
    return repacked


def test_dot_meets_layouts_in_their_union(monkeypatch):
    repacked = _repacks(monkeypatch)
    lj = PolynomialRing(["L", "J"])
    ljc = PolynomialRing(["L", "J", "c1"])
    jcl = PolynomialRing(["J", "c1", "L"])
    jc = PolynomialRing(["J", "c1"])
    a = {(("L", 2),): 3, (("J", 1), ("L", 1)): -2, (): 5}
    b = {(("J", 2),): 1, (("L", 1),): 4}
    c = {(("L", 1), ("c1", 1)): 2, (("J", 1),): -1}
    d = {(("c1", 2),): 1, (): -3}
    e = {(("J", 1), ("c1", 1)): 2, (("J", 2),): -1}

    def on(ring, p):
        # JSON packs straight into the ring's layout
        return ring.elem_from_json({"terms": [{"c": c, "e": dict(m)} for m, c in p.items()]})

    def want(*pairs, square_zero=False):
        out = {}
        for p, q in pairs:
            out = oracles.tuple_poly_add(out, oracles.tuple_poly_mul(p, q, square_zero))
        return out

    # a layout that extends the sum's as a prefix: no key re-packs
    got = ljc.dot([(on(lj, a), on(lj, b)), (on(ljc, c), on(ljc, d))])
    assert as_tuple(got) == want((a, b), (c, d)) and got.layout is ljc._layout
    assert repacked == []
    # a layout that holds the sum's names in another order arrives after the
    # sum holds terms: the gathered terms move onto it
    got = ljc.dot([(on(lj, a), on(lj, b)), (on(jcl, c), on(jcl, d))])
    assert as_tuple(got) == want((a, b), (c, d)) and got.layout is jcl._layout
    assert repacked == [(("L", "J"), ("J", "c1", "L"))]
    repacked.clear()
    # neither holds the other's names: the sum's names, then the new ones;
    # only the arriving pair re-packs
    got = ljc.dot([(on(lj, a), on(lj, b)), (on(jc, e), on(jc, d)), (on(lj, b), on(lj, b))])
    assert as_tuple(got) == want((a, b), (e, d), (b, b))
    assert got.layout.names == ("L", "J", "c1")
    assert [src for src, _ in repacked] == [("J", "c1"), ("J", "c1")]
    repacked.clear()
    # a constant on a ring's layout meets a foreign layout
    seven = lj.from_int(7)
    x = MultiPoly.var("x2")
    got = lj.dot([(seven, x), (on(lj, a), on(lj, b)), (x, x)])
    assert as_tuple(got) == want(({(): 7}, {(("x2", 1),): 1}), (a, b), ({(("x2", 1),): 1},) * 2)
    assert as_tuple(seven.add(x)) == {(): 7, (("x2", 1),): 1}
    assert seven == MultiPoly.const(7) and seven.add(x) == x.add(MultiPoly.const(7))
    assert seven != on(jc, {(): 7, (("c1", 1),): 1})
    repacked.clear()
    # a constant on the empty layout fits every layout as it is
    got = ljc.dot([(MultiPoly.const(2), on(ljc, c)), (on(ljc, d), MultiPoly.const(-1))])
    assert as_tuple(got) == want(({(): 2}, c), (d, {(): -1})) and got.layout is ljc._layout
    assert repacked == []
    # a prefix square-zero ring whose layout grows between two pairs
    sz = SquareZeroRing(prefix="q")
    q1 = {(("q1", 1),): 1}
    q2 = {(("q2", 1),): 1}

    def pairs():
        v1 = sz.var("q1")
        yield v1, sz.one().add(v1)
        v2 = sz.var("q2")
        assert sz._layout.names == ("q1", "q2")
        yield v2, v1.add(v2)

    got = sz.dot(pairs())
    want_sz = want((q1, oracles.tuple_poly_add({(): 1}, q1)), (q2, oracles.tuple_poly_add(q1, q2)),
                   square_zero=True)
    assert as_tuple(got) == want_sz == {(("q1", 1),): 1, (("q1", 1), ("q2", 1)): 1}
    assert got.layout is sz._layout
    assert repacked == []


def test_ring_layout_does_not_depend_on_names_seen_before():
    for i in range(200):
        MultiPoly.var("unrelated%d" % i)
    ring = PolynomialRing(["L", "J", "c1", "c2", "c3"])
    for k in range(1, 8):
        assert ring.var("L", k).terms == {k: 1}
    assert ring.mul(ring.var("L", 2), ring.var("J")).terms == {2 + (1 << 64): 1}
    # every key of the ring's elements fits in its own fields, also when
    # read back from JSON
    from mzeta.motivic import MotivicModel, parse_variety
    from mzeta.series import series_from_json

    model = MotivicModel(parse_variety("Prod(Curve(2),P(1))"))
    f = model.zeta_series(8)
    width = 64 * len(model.ring.variables)
    assert model.ring.variables[0] == "L"
    for series in (f, series_from_json(f.to_json())):
        for coeff in series.coeffs:
            assert coeff.layout is model.ring._layout
            assert all(key.bit_length() <= width for key in coeff.terms)
    assert all(key.bit_length() <= 64 for key in model.ring.var("L", 5).terms)
    # copies and pickles keep the ring's layout, by identity
    x = f.coeffs[3]
    for copied in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert copied.layout is x.layout and copied == x
    assert pickle.loads(pickle.dumps(model.ring))._layout is model.ring._layout
