"""The polynomial and Q JSON codec: the readers against the earlier readers,
kept here as references, on seeded valid and single-defect inputs; the
writers and decoders against the tuple-key reference, on a ring layout whose
fields are out of alphabetical order; and the boundary rules for names and
exponents."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from mzeta import rings
from mzeta.errors import (
    DegreeCutoffError,
    InvalidElementError,
    InvalidInputError,
    ToolkitError,
)
from mzeta.rings import (
    QQ,
    FractionElem,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    _json_int,
    poly_from_json,
    poly_to_json,
)

BIG = 2**63 - 1
# the layout of RING holds its fields in this order: neither alphabetical
# nor natural (jd10 < jd9 as text, jd9 < jd10 naturally), so on it field
# order is not name order
NAMES = ["jdz", "jd9", "jda", "jd10", "jdB"]
RING = PolynomialRing(NAMES)


def reference_poly_from_json(obj):
    """The reader that built a tuple-keyed dict and packed it through
    MultiPoly.__init__."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise InvalidInputError("expected a polynomial object with 'terms'")
    if not isinstance(obj["terms"], list):
        raise InvalidInputError("a polynomial's 'terms' must be a list")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or "c" not in t:
            raise InvalidInputError("each polynomial term must be an object with 'c'")
        exps = t.get("e", {})
        if not isinstance(exps, dict):
            raise InvalidInputError("a term's 'e' must map variables to exponents")
        mono = tuple((str(v), _json_int(e, "exponent")) for v, e in exps.items())
        terms[mono] = terms.get(mono, 0) + _json_int(t["c"], "coefficient")
    return MultiPoly(terms)


def reference_q_from_json(obj):
    """The Q reader that went through a FractionElem."""
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise InvalidInputError("expected a fraction object with 'num' and 'den'")
    f = FractionElem(reference_poly_from_json(obj["num"]), reference_poly_from_json(obj["den"]))
    IntegerRing().validate(f.num)
    IntegerRing().validate(f.den)
    return Fraction(f.num.constant_term(), f.den.constant_term())


def outcome(read, obj):
    try:
        return "value", read(obj)
    except ToolkitError as e:
        return type(e), str(e)


def random_term(rng, names):
    """A valid term: exponents 0, 2^63 - 1 and decimal strings included,
    sometimes no "e" at all."""
    exps = {
        v: rng.choice([0, 1, 2, 7, BIG, "3"])
        for v in rng.sample(names, rng.randrange(min(4, len(names)) + 1))
    }
    c = rng.choice([rng.randint(-50, 50), str(rng.randint(-50, 50)), "0", str(-(10**40))])
    if not exps and rng.random() < 0.5:
        return {"c": c}
    return {"c": c, "e": exps}


def random_poly(rng, names):
    terms = [random_term(rng, names) for _ in range(rng.randrange(5))]
    if terms and rng.random() < 0.6:
        # a duplicate monomial, half the time one that cancels its twin
        t = rng.choice(terms)
        c = int(t["c"])
        twin = {"c": str(-c if rng.random() < 0.5 else c), "e": dict(t.get("e", {}))}
        terms.insert(rng.randrange(len(terms) + 1), twin)
    return {"terms": terms}


# defects inside one term; a defective exponent sits on a term with a
# nonzero coefficient that nothing cancels
_BAD_COEFFS = ["x", "1_000", " 7", "+7", "٣", "", "1.5", True, False, 1.5, None, [1],
               "1" * 5000]
_BAD_EXPONENTS = [True, False, 2.0, "q", " 3", "3_0", None, [1], -1, "-4", 2**63, 10**30]
_BAD_TERMS = ["1", 5, None, [], {"e": {}}, {"c": "1", "e": ["jdz"]}, {"c": "1", "e": "jdz"}]


def with_defect(rng, obj):
    """obj with one defect, at a random term or around the term list."""
    kind = rng.randrange(5)
    terms = obj["terms"]
    if kind == 0:
        return rng.choice([[obj], "terms", {"term": terms}, {"terms": "1"}, {"terms": {}}])
    at = rng.randrange(len(terms) + 1)
    if kind == 1:
        bad = rng.choice(_BAD_TERMS)
    elif kind == 2:
        bad = {"c": rng.choice(_BAD_COEFFS), "e": {rng.choice(NAMES): 1}}
    else:
        bad = {"c": str(rng.randint(1, 9)), "e": {rng.choice(NAMES): rng.choice(_BAD_EXPONENTS)}}
    return {"terms": terms[:at] + [bad] + terms[at:]}


def test_poly_reader_matches_the_reference():
    rng = random.Random("poly-json")
    for i in range(1500):
        obj = random_poly(rng, NAMES)
        if i % 2:
            obj = with_defect(rng, obj)
        got = outcome(poly_from_json, obj)
        assert got == outcome(reference_poly_from_json, obj), obj
        # every defect raises, and no valid input does
        assert (got[0] != "value") == bool(i % 2)


def random_fraction(rng):
    """A valid Q element in JSON, or one with a defect: a zero denominator,
    a variable, a missing part or a defective polynomial."""

    def const(n):
        return {"terms": [{"c": str(n), "e": {}}] if n else []}

    obj = {"num": const(rng.randint(-30, 30)), "den": const(rng.choice([-6, -1, 1, 4, 10**30]))}
    kind = rng.randrange(8)
    if kind == 1:
        obj["den"] = rng.choice([const(0), {"terms": [{"c": "2"}, {"c": "-2", "e": {}}]}])
    elif kind == 2:
        part = rng.choice(["num", "den"])
        obj[part] = {"terms": obj[part]["terms"] + [{"c": "1", "e": {rng.choice(NAMES): 1}}]}
    elif kind == 3:
        del obj[rng.choice(["num", "den"])]
    elif kind == 4:
        part = rng.choice(["num", "den"])
        obj[part] = with_defect(rng, obj[part])
    elif kind == 5:
        obj = rng.choice([None, [obj], "1/2"])
    elif kind == 6:
        # two defects: the zero denominator is the one reported
        obj = {"num": {"terms": [{"c": "1", "e": {rng.choice(NAMES): 1}}]}, "den": const(0)}
    return obj


def test_q_reader_matches_the_reference():
    rng = random.Random("q-json")
    values = 0
    for _ in range(600):
        obj = random_fraction(rng)
        got = outcome(QQ.elem_from_json, obj)
        assert got == outcome(reference_q_from_json, obj), obj
        if got[0] == "value":
            values += 1
            assert type(got[1]) is Fraction
    assert 100 < values < 300


def parser_q_from_json(obj):
    """QQ.elem_from_json without its canonical path: every form through
    _fraction_parts."""
    num, den = rings._fraction_parts(obj)
    if not den.terms:
        raise InvalidElementError("zero denominator")
    IntegerRing().validate(num)
    IntegerRing().validate(den)
    return Fraction(num.constant_term(), den.constant_term())


def _poly(*terms):
    return {"terms": list(terms)}


def _term(c, e=None):
    return {"c": c, "e": {} if e is None else e}


_ONE = _poly(_term("1"))
_DIGITS = sys.get_int_max_str_digits()

# the form QQ writes, and shapes it accepts through the parser alone
CANONICAL_FRACTIONS = {
    "zero": {"num": _poly(), "den": _ONE},
    "integer": {"num": _poly(_term("-12")), "den": _ONE},
    "reduced": {"num": _poly(_term("5")), "den": _poly(_term("3"))},
    "unreduced, negative denominator": {"num": _poly(_term("6")), "den": _poly(_term("-4"))},
    "leading zeros": {"num": _poly(_term("007")), "den": _poly(_term("0021"))},
    "minus zero": {"num": _poly(_term("-0")), "den": _poly(_term("5"))},
    "zero term": {"num": _poly(_term("0")), "den": _ONE},
    "big": {"num": _poly(_term(str(10**200 + 1))), "den": _poly(_term(str(3**300)))},
    "at the digit limit": {"num": _poly(_term("-" + "7" * _DIGITS)), "den": _ONE},
    "extra keys": {"num": {"terms": [dict(_term("2"), note=1)], "x": 0}, "den": _ONE, "y": None},
}
OTHER_FRACTIONS = {
    "int c": {"num": _poly(_term(5)), "den": _ONE},
    "int c in den": {"num": _ONE, "den": _poly(_term(-3))},
    "bool c": {"num": _poly(_term(True)), "den": _ONE},
    "float c": {"num": _poly(_term(1.5)), "den": _ONE},
    "plus sign": {"num": _poly(_term("+5")), "den": _ONE},
    "space": {"num": _ONE, "den": _poly(_term(" 5"))},
    "separator": {"num": _poly(_term("5_0")), "den": _ONE},
    "other digits": {"num": _poly(_term("٣")), "den": _ONE},
    "empty c": {"num": _poly(_term("")), "den": _ONE},
    "zero exponent": {"num": _poly(_term("4", {"x": 0})), "den": _ONE},
    "a variable": {"num": _poly(_term("4", {"x": 1})), "den": _ONE},
    "bad name": {"num": _poly(_term("4", {"1x": 0})), "den": _ONE},
    "no e": {"num": {"terms": [{"c": "3"}]}, "den": _ONE},
    "e a list": {"num": _poly(_term("3", [])), "den": _ONE},
    "several terms": {"num": _poly(_term("1"), _term("2")), "den": _poly(_term("3"), _term("4"))},
    "cancelling denominator": {"num": _ONE, "den": _poly(_term("2"), _term("-2"))},
    "zero denominator": {"num": _ONE, "den": _poly(_term("0"))},
    "empty denominator": {"num": _poly(_term("3")), "den": _poly()},
    "past the digit limit": {"num": _poly(_term("1" * (_DIGITS + 1))), "den": _ONE},
    "denominator past the digit limit": {"num": _ONE, "den": _poly(_term("9" * (_DIGITS + 1)))},
    "bad numerator before a long denominator": {
        "num": _poly(_term("1", {"1x": 1})), "den": _poly(_term("9" * (_DIGITS + 1)))},
    "terms a tuple": {"num": {"terms": (_term("1"),)}, "den": _ONE},
    "terms a string": {"num": {"terms": "1"}, "den": _ONE},
    "no terms": {"num": {}, "den": _ONE},
    "term not an object": {"num": _poly("1"), "den": _ONE},
    "numerator None": {"num": None, "den": _ONE},
    "no denominator": {"num": _ONE},
    "not an object": [_ONE, _ONE],
    "None": None,
}


@pytest.mark.parametrize("name", sorted(CANONICAL_FRACTIONS) + sorted(OTHER_FRACTIONS))
def test_q_reader_matches_the_parser(name):
    obj = CANONICAL_FRACTIONS.get(name, OTHER_FRACTIONS.get(name))
    got = outcome(QQ.elem_from_json, obj)
    assert got == outcome(parser_q_from_json, obj)
    assert got[0] != "value" or type(got[1]) is Fraction
    # the canonical forms, and only they, skip the parser
    parts = [rings._const_int(obj.get(k)) for k in ("num", "den")] if isinstance(obj, dict) else [None]
    assert (None not in parts and bool(parts[-1])) == (name in CANONICAL_FRACTIONS)


def test_q_reader_corpus_holds_values_and_errors():
    kinds = [outcome(parser_q_from_json, obj)[0] for obj in OTHER_FRACTIONS.values()]
    assert kinds.count("value") == 5
    assert {DegreeCutoffError, InvalidElementError, InvalidInputError} <= set(kinds)


def random_tuple_poly(rng, names):
    out = {}
    for _ in range(rng.randrange(6)):
        chosen = rng.sample(names, rng.randrange(len(names) + 1))
        key = tuple(sorted((v, rng.choice([1, 2, 5, BIG])) for v in chosen))
        out[key] = out.get(key, 0) + rng.randint(-9, 9)
    return {key: c for key, c in out.items() if c}


def on_ring(a):
    """The tuple-key polynomial a built from RING's variables, on its layout."""
    out = RING.zero()
    for mono, c in a.items():
        term = RING.from_int(c)
        for v, e in mono:
            term = RING.mul(term, RING.var(v, e))
        out = RING.add(out, term)
    return out


def test_decoding_matches_the_tuple_reference_out_of_name_order():
    assert RING._layout.names == tuple(NAMES) != tuple(sorted(NAMES))
    rng = random.Random("decode")
    for _ in range(300):
        a = random_tuple_poly(rng, rng.sample(NAMES, rng.randint(1, len(NAMES))))
        want = [{"c": str(c), "e": dict(mono)} for mono, c in sorted(a.items())]
        # the same value on the ring's layout and on the layout of its names
        q = on_ring(a)
        assert q.layout is RING._layout
        for p in (MultiPoly(a), q):
            assert dict(p.items()) == a
            assert p.variables() == {v for mono in a for v, _ in mono}
            assert poly_to_json(p) == {"terms": want}
            assert poly_from_json(poly_to_json(p)) == p
            assert RING.elem_from_json(poly_to_json(p)).terms == q.terms
        assert MultiPoly(a) == q and str(MultiPoly(a)) == str(q)


def test_q_writer_gives_constant_polynomials():
    for q in [Fraction(0), Fraction(-3, 2), Fraction(10**40, 7), Fraction(5)]:
        want = {
            "num": poly_to_json(MultiPoly.const(q.numerator)),
            "den": poly_to_json(MultiPoly.const(q.denominator)),
        }
        assert QQ.elem_to_json(q) == want
        assert QQ.elem_from_json(want) == q


def test_every_negative_exponent_is_rejected():
    cases = [
        [{"c": "0", "e": {"jdz": -1}}],
        # equal monomials that cancel
        [{"c": "1", "e": {"jdz": -1}}, {"c": "-1", "e": {"jdz": -1}}],
        [{"c": "3", "e": {"jda": 1, "jdz": "-2"}}],
    ]
    for terms in cases:
        with pytest.raises(InvalidElementError, match="negative exponent on 'jdz'"):
            poly_from_json({"terms": terms})
    # an exponent past its field is rejected whatever its coefficient too
    with pytest.raises(DegreeCutoffError):
        poly_from_json({"terms": [{"c": "0", "e": {"jdz": 2**63}}]})


def test_bad_variable_name_is_rejected_before_it_is_registered(layouts_made):
    for name in ["1x", "", "x-y", "x y", "_x", "é", "x\n", "L" * 50 + "!"]:
        obj = {"terms": [{"c": "1", "e": {"jdz": 1}}, {"c": "2", "e": {name: 1}}]}
        with pytest.raises(InvalidInputError, match="^bad variable name "):
            poly_from_json(obj)
        with pytest.raises(InvalidInputError, match="^bad variable name "):
            RING.elem_from_json(obj)
        # no layout learnt the name, and none was made
        assert layouts_made == []
        assert not any(name in lay.names for lay in rings._layouts.values())
