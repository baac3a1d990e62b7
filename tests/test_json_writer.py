"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True), and
on payloads that hold ring elements against json.dumps of their plain() form.

A unittest.TestCase, so it also runs without pytest:

    PYTHONPATH=src python -m unittest tests.test_json_writer
"""

import enum
import json
import random
import sys
import unittest
from fractions import Fraction

from mzeta.cli import _dumps
from mzeta.errors import DegreeCutoffError
from mzeta.rings import MultiPoly, PolynomialRing, SquareZeroRing, plain

# non-ASCII, quotes, backslashes, control characters and the empty string
_TEXTS = [
    "",
    "L",
    "c1",
    "é",
    "日本",
    "\U0001f600",
    '"',
    'say "hi"',
    "\\",
    "a\\b",
    "\x00",
    "\n\t\r",
    "\x1f",
    "\x7f",
    " ",
]
# string values also include lone surrogates
_VALUES = _TEXTS + ["\ud800", "\udfff", "x\udc00y"]


def _reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _random_text(rng, pool):
    return "".join(rng.choice(pool) for _ in range(rng.randrange(3)))


def _random_int(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-10, 11)
    if kind == 1:
        return -rng.randrange(1, 2**70)
    if kind == 2:
        return rng.randrange(10**3999, 10**4000)
    return -rng.randrange(10**3999, 10**4000)


def _random_term(rng):
    """A polynomial term {"c": str, "e": {str: int, ...}} as a plain dict,
    or one of its near misses."""
    exps = {_random_text(rng, _TEXTS): _random_int(rng) for _ in range(rng.randrange(4))}
    term = {"c": _random_text(rng, _VALUES), "e": exps}
    miss = rng.randrange(12)
    if miss == 0:
        term["c"] = _random_int(rng)
    elif miss == 1 and exps:
        exps[rng.choice(list(exps))] = rng.choice([True, False, "3", None, 1.5, Colour.RED])
    elif miss == 2:
        term[rng.choice(["d", "", "cc"])] = _random_payload(rng, 3)
    elif miss == 3:
        term["e"] = {rng.randrange(9): 1 for _ in range(rng.randrange(1, 3))}
    elif miss == 4:
        term["c"] = Name(term["c"])
    elif miss == 5:
        term["e"] = {Name(k): e for k, e in exps.items()}
    elif miss == 6:
        del term[rng.choice(["c", "e"])]
    elif miss == 7:
        term["e"] = rng.choice([[], ["L"], None, "L"])
    return term


def _random_payload(rng, depth):
    kinds = ["str", "int", "bool", "none", "empty_list", "empty_dict", "term"]
    if depth < 4:
        kinds += ["list", "dict", "list", "dict", "terms"]
    kind = rng.choice(kinds)
    if kind == "term":
        return _random_term(rng)
    if kind == "terms":
        return {"terms": [_random_term(rng) for _ in range(rng.randrange(4))]}
    if kind == "str":
        return _random_text(rng, _VALUES)
    if kind == "int":
        return _random_int(rng)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "empty_list":
        return rng.choice([[], [[]], [{}]])
    if kind == "empty_dict":
        return rng.choice([{}, {"": {}}, {"a": []}])
    if kind == "list":
        return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        _random_text(rng, _TEXTS): _random_payload(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


# names whose sorted order differs from the order a ring lists them in
_NAMES = ["L", "J", "c2", "c10", "x_1", "x10", "x2", "c1", "Z", "a", "B", "pk3", "s", "t", "c9", "y"]
_BIG_EXP = 2**63 - 1


def _random_coeff(rng):
    c = rng.choice([1, -1, rng.randrange(2, 10**6), rng.randrange(10**3999, 10**4000)])
    return c if rng.random() < 0.5 else -c


def _random_poly(rng):
    """Zero, a constant, or up to 6 terms in 1-16 variables, built on a ring's
    layout or on the sorted layout of MultiPoly(...)."""
    kind = rng.randrange(6)
    if kind == 0:
        return MultiPoly.const(0)
    if kind == 1:
        return MultiPoly.const(_random_coeff(rng))
    names = rng.sample(_NAMES, rng.randint(1, 16))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(names, rng.randint(0, len(names)))
        exps = [rng.choice([1, 2, 3, _BIG_EXP, rng.randrange(1, 2**63)]) for _ in chosen]
        terms[tuple(zip(chosen, exps))] = _random_coeff(rng)
    if kind == 2:
        return MultiPoly(terms)
    ring = PolynomialRing(names)
    return ring.elem_from_json(
        {"terms": [{"c": str(c), "e": dict(mono)} for mono, c in terms.items()]}
    )


def _random_fraction(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(_random_coeff(rng))
    if kind == 2:
        return Fraction(-rng.randrange(1, 100), rng.randrange(2, 100))
    return Fraction(_random_coeff(rng), abs(_random_coeff(rng)) + 1)


def _random_leaf_payload(rng, depth):
    """Dicts and lists holding MultiPoly and Fraction leaves among plain
    values, as report payloads do."""
    kind = rng.choice(["poly", "poly", "fraction", "str", "int", "none"]
                      + (["list", "dict", "list", "dict"] if depth < 4 else []))
    if kind == "poly":
        return _random_poly(rng)
    if kind == "fraction":
        return _random_fraction(rng)
    if kind == "str":
        return _random_text(rng, _VALUES)
    if kind == "int":
        return _random_int(rng)
    if kind == "none":
        return None
    if kind == "list":
        return [_random_leaf_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        rng.choice(["num", "den", "coeffs", "e", "terms", "c", ""]): _random_leaf_payload(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


class WriterMatchesStdlib(unittest.TestCase):
    def assertSameText(self, obj):
        self.assertEqual(_dumps(obj), _reference(obj))

    def test_random_nested_payloads(self):
        rng = random.Random(20260)
        for _ in range(400):
            self.assertSameText(_random_payload(rng, 0))

    def test_polynomial_terms_and_near_misses(self):
        term = {"c": "-12", "e": {"L": 1, "J": 2, "c10": 3, "c9": 0}}
        near = [
            {"c": 12, "e": {"L": 1}},
            {"c": "1", "e": {"L": True}},
            {"c": "1", "e": {"L": "1"}},
            {"c": "1", "e": {"L": 1}, "d": 0},
            {"c": "1", "e": {1: 1}},
            {"c": "1", "e": {1: 1, 2: 0}},
            {Name("c"): "1", "e": {"L": 1}},
            {"c": Name("1"), "e": {"L": 1}},
            {"c": "1", "e": {Name("L"): 1}},
            {"c": "1", "e": {"L": Colour.RED}},
            {"c": "1", "e": {"L": 10**300}},
            {"c": "1"},
            {"c": "1", "e": []},
            {"c": "1", "d": {}},
        ]
        for obj in [term, {"c": "0", "e": {}}] + near:
            with self.subTest(obj=obj):
                self.assertSameText({"terms": [obj, term, obj]})
                self.assertSameText([[obj]])
                self.assertSameText(obj)

    def test_every_key_and_value_text(self):
        self.assertSameText({k: _VALUES for k in _TEXTS})
        for v in _VALUES:
            self.assertSameText(v)

    def test_scalars_and_empty_containers(self):
        for obj in [0, -1, 10**3999, True, False, None, "", [], {}, [[]], {"": {}}, [{}, []]]:
            self.assertSameText(obj)

    def test_fallback_cases(self):
        cases = [
            1.5,
            float("nan"),
            float("inf"),
            -float("inf"),
            {"x": [0.1, float("nan")]},
            (1, 2),
            {"t": ("a", [1])},
            {1: "a", 2: "b"},
            {True: 1, False: 2},
            {"k": Colour.RED},
            [Colour.RED, {"d": {Colour.RED: 0}}],
            {1.5: 0, 2.5: [1]},
            Name("a\u00e9"),
            {Name("b"): Name("c"), "a": 1},
        ]
        for obj in cases:
            with self.subTest(obj=obj):
                self.assertSameText(obj)

    def assertSameError(self, obj, error):
        with self.assertRaises(error) as expected:
            _reference(obj)
        with self.assertRaises(error) as got:
            _dumps(obj)
        self.assertEqual(str(got.exception), str(expected.exception))

    @unittest.skipUnless(
        getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        "this interpreter has no int-to-str digit limit",
    )
    def test_int_over_digit_limit_raises_value_error(self):
        too_long = 10 ** sys.get_int_max_str_digits()
        self.assertSameError(too_long, ValueError)
        self.assertSameError({"a": [1, {"b": -too_long}]}, ValueError)

    def test_other_errors_match(self):
        self.assertSameError({"a": 1, 2: "b"}, TypeError)
        self.assertSameError({"a": object()}, TypeError)
        loop = []
        loop.append(loop)
        self.assertSameError(loop, ValueError)


class RingElementLeaves(unittest.TestCase):
    def assertSameText(self, obj):
        self.assertEqual(_dumps(obj), json.dumps(plain(obj), indent=2, sort_keys=True))

    def test_random_payloads_with_ring_elements(self):
        rng = random.Random(20261019)
        for _ in range(300):
            self.assertSameText(_random_leaf_payload(rng, 0))

    def test_single_leaves(self):
        rng = random.Random(7)
        for _ in range(100):
            self.assertSameText(_random_poly(rng))
            self.assertSameText(_random_fraction(rng))
        for f in (Fraction(0), Fraction(-5), Fraction(-3, 7), Fraction(10**3999, 3)):
            self.assertSameText([f, {"q": f}])

    def test_leaves_beside_fallback_values(self):
        # a float or a tuple sends the payload to json.dumps, which writes
        # the ring elements as plain() does
        rng = random.Random(11)
        for _ in range(50):
            leaf = rng.choice([_random_poly, _random_fraction])(rng)
            for obj in ({"x": 1.5, "p": leaf}, [Colour.RED, [leaf]], {"t": (1, 2), "p": [leaf]}):
                self.assertSameText(obj)

    @unittest.skipUnless(
        getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        "this interpreter has no int-to-str digit limit",
    )
    def test_coefficient_over_digit_limit_raises_degree_cutoff(self):
        too_long = 10 ** sys.get_int_max_str_digits()
        leaves = [
            MultiPoly({(("L", 2),): -too_long}),
            Fraction(too_long, 3),
            Fraction(3, too_long),
        ]
        for leaf in leaves:
            for obj in ([leaf], {"a": [1, {"b": leaf}]}, {"f": 1.5, "b": leaf}):
                with self.assertRaises(DegreeCutoffError) as expected:
                    plain(obj)
                with self.assertRaises(DegreeCutoffError) as got:
                    _dumps(obj)
                self.assertEqual(str(got.exception), str(expected.exception))



class SharedUpperParts(unittest.TestCase):
    """Payloads whose polynomials share layouts and upper parts (every field
    of a key but field 0), placed at several indents, so that one entry of
    _dumps's per-payload memo writes many terms.  Field 0's name sorts
    first, in the middle or last among its layout's names."""

    MOTIVIC = ["L", "J"] + ["c%d" % i for i in range(1, 12)]

    def assertSameText(self, obj):
        self.assertEqual(_dumps(obj), json.dumps(plain(obj), indent=2, sort_keys=True))

    def products(self, rng, ring, names, count, powers):
        """count products of four small elements, each with a term in a
        power of field 0, so that upper parts repeat with many powers of
        it; powers(v) is the element v^e for some e."""
        def small():
            out = ring.from_int(rng.choice([1, -1, rng.randrange(2, 1000)]))
            out = ring.add(out, ring.mul(ring.from_int(rng.randrange(-9, 10)), powers(names[0])))
            for _ in range(rng.randint(1, 3)):
                term = ring.from_int(rng.choice([1, -1, rng.randrange(2, 10**30)]))
                for v in rng.sample(names, rng.randint(1, 2)):
                    term = ring.mul(term, powers(v))
                out = ring.add(out, term)
            return out

        return [
            ring.mul(ring.mul(small(), small()), ring.mul(small(), small()))
            for _ in range(count)
        ]

    def edges(self, ring, names):
        """Every single name and every pair of names at exponents 1 and
        2^63 - 1, a constant term, and keys whose field 0 is zero with and
        without later names beside it."""
        terms = [{"c": "-3", "e": {}}]
        for i, v in enumerate(names):
            for e in (1, _BIG_EXP):
                terms.append({"c": str(i + 1), "e": {v: e}})
                for w in names[i + 1:]:
                    terms.append({"c": str(-e), "e": {v: e, w: _BIG_EXP - e + 1}})
        return ring.elem_from_json({"terms": terms})

    def payload(self, polys, extra):
        return {
            "flat": polys,
            "nested": {"grid": [[p, {"p": p}] for p in polys[::-1]], "zero": MultiPoly.const(0)},
            "extra": extra,
            "consts": [MultiPoly.const(-7), MultiPoly.const(10**40), MultiPoly.const(0)],
        }

    def test_field_zero_sorts_first_middle_and_last(self):
        rng = random.Random(28)
        cases = [
            ["a", "b", "m", "y"],
            self.MOTIVIC,
            ["z", "a", "m"],
        ]
        for names in cases:
            with self.subTest(names=names):
                ring = PolynomialRing(names)
                polys = self.products(rng, ring, names, 6, lambda v: ring.var(v, rng.randint(1, 3)))
                self.assertGreaterEqual(max(len(p.terms) for p in polys), 100)
                self.assertSameText(self.payload(polys, [self.edges(ring, names), ring.one()]))

    def test_many_layouts_in_one_payload(self):
        rng = random.Random(2028)
        prefix = SquareZeroRing(prefix="x")
        xs = ["x%d" % i for i in range(1, 13)]
        polys = self.products(rng, prefix, xs, 4, prefix.var)
        self.assertGreaterEqual(max(len(p.terms) for p in polys), 100)
        # MultiPoly(...) builds on the sorted layout of the names it uses
        def plain_poly():
            monos = [
                tuple((v, rng.randint(1, 4)) for v in rng.sample("LJab", rng.randint(0, 3)))
                for _ in range(30)
            ]
            return MultiPoly({mono: rng.randint(-5, 5) for mono in monos})

        plain_polys = [plain_poly() for _ in range(4)]
        mixed = []
        for names in (self.MOTIVIC, ["z", "a", "m"], self.MOTIVIC[::-1]):
            ring = PolynomialRing(names)
            mixed += self.products(rng, ring, names, 2, lambda v: ring.var(v, rng.randint(1, 2)))
            mixed.append(self.edges(ring, names))
        self.assertSameText(self.payload(polys + mixed, plain_polys))
        self.assertSameText([self.payload(mixed, polys), {"x": self.payload(polys, mixed)}])


if __name__ == "__main__":
    unittest.main()
