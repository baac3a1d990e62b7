"""Packed monomials: MultiPoly arithmetic and the ring.dot kernel against the
tuple-key reference in mzeta.oracles, the 2^63 exponent bound, and output
that does not depend on the order in which variable names were first seen."""

from __future__ import annotations

import json
import os
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
        v = rng.choice(names)
        e = rng.randrange(4)
        want = {}
        for key, c in a.items():
            exps = dict(key)
            if exps.pop(v, 0) == e:
                want[tuple(sorted(exps.items()))] = c
        assert as_tuple(pa.coefficient_of(v, e)) == want
        assert pa.degree_in(v) == max((dict(k).get(v, 0) for k in a), default=0)


def test_substitute_matches_tuple_reference():
    rng = random.Random(7)
    for _ in range(150):
        names = rng.sample(NAMES, rng.randint(2, 6))
        p = rand_tuple_poly(rng, names)
        targets = rng.sample(names, rng.randint(1, len(names)))
        if rng.random() < 0.5:
            # bare variables: a rename, which may merge terms
            images = {v: {((rng.choice(NAMES), 1),): 1} for v in targets}
        else:
            images = {v: rand_tuple_poly(rng, names, max_terms=3, max_exp=2) for v in targets}
        got = MultiPoly(p).substitute({v: MultiPoly(img) for v, img in images.items()})
        assert as_tuple(got) == oracles.tuple_poly_substitute(p, images)


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
        got = ring.dot((MultiPoly(a), MultiPoly(b)) for a, b in pairs)
        assert as_tuple(got) == want
        assert 0 not in got.terms.values()
        ring.validate(got)
    # the names every list draws one of sit past field 20
    assert min(rings._fields[v] for v in NAMES[20:]) >= 20


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
    assert x.mul(MultiPoly.var("pk4", BIG)).degree_in("pk4") == BIG
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
    assert x.mul(y).coefficient_of("pk5", BIG) == y
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
    products = []

    def register(order):
        p = MultiPoly.const(1)
        for name in order:
            p = p.mul(MultiPoly.var(name))
        products.append(p)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=register, args=(names[::1 if i % 2 else -1],))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(products) == 8
    # a lost update would give a name two fields, or two names one field
    assert len(set(rings._names)) == len(rings._names)
    fields = [rings._fields[name] for name in names]
    assert len(set(fields)) == len(names)
    assert all(rings._names[rings._fields[name]] == name for name in names)
    assert all(p == products[0] for p in products)
    assert as_tuple(products[0]) == {tuple(sorted((name, 1) for name in names)): 1}
