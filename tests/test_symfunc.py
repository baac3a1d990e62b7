import itertools
import random

import pytest

from mzeta import symfunc
from mzeta.errors import NonSymmetricError, InvalidInputError
from mzeta.oracles import binom
from mzeta.rings import IntegerRing, MultiPoly
from mzeta.series import TruncSeries, witt_exterior_series, witt_product_series
from mzeta.symfunc import (
    elementary_symmetric,
    esym_of_elements,
    is_symmetric,
    newton_polynomial,
    rewrite_in_elementaries,
    universal_P,
    universal_P_from_roots,
    universal_Q,
    universal_Q_from_roots,
    witt_product_coeff,
)


def poly_of(text_vars, builder):
    """Tiny helper: builder receives the variable polynomials."""
    return builder(*[MultiPoly.var(v) for v in text_vars])


def eval_at_ints(p, values):
    return p.substitute({v: MultiPoly.const(c) for v, c in values.items()}).as_int()


def test_elementary_symmetric_basics():
    e2 = elementary_symmetric(2, ["x", "y", "z"])
    expected = poly_of("xyz", lambda x, y, z: x.mul(y).add(x.mul(z)).add(y.mul(z)))
    assert e2 == expected
    assert elementary_symmetric(0, ["x", "y"]) == MultiPoly.const(1)
    assert elementary_symmetric(3, ["x", "y"]).is_zero()


def test_esym_of_elements_matches_subset_sums():
    rng = random.Random(417)
    for _ in range(25):
        vals = [rng.randint(-5, 5) for _ in range(6)]
        k = rng.randint(0, 6)
        got = esym_of_elements(k, [MultiPoly.const(v) for v in vals]).as_int()
        want = sum(
            int(__import__("math").prod(c)) for c in itertools.combinations(vals, k)
        )
        assert got == want


def test_rewrite_power_sum():
    p = poly_of("xy", lambda x, y: x.pow(2).add(y.pow(2)))
    out = rewrite_in_elementaries(p, [["x", "y"]])
    e1, e2 = MultiPoly.var("e1"), MultiPoly.var("e2")
    assert out == e1.pow(2).sub(e2.mul_int(2))


def test_rewrite_discriminant():
    p = poly_of("xy", lambda x, y: x.sub(y).pow(2))
    out = rewrite_in_elementaries(p, [["x", "y"]])
    e1, e2 = MultiPoly.var("e1"), MultiPoly.var("e2")
    assert out == e1.pow(2).sub(e2.mul_int(4))


def test_rewrite_two_blocks():
    # sum of all x_i y_j factors into e1 * f1
    terms = MultiPoly.const(0)
    for u in ("x1", "x2"):
        for v in ("y1", "y2"):
            terms = terms.add(MultiPoly.var(u).mul(MultiPoly.var(v)))
    out = rewrite_in_elementaries(terms, [["x1", "x2"], ["y1", "y2"]])
    assert out == MultiPoly.var("e1").mul(MultiPoly.var("f1"))


def test_rewrite_rejects_asymmetric():
    p = poly_of("xy", lambda x, y: x.pow(2).add(y))
    with pytest.raises(NonSymmetricError):
        rewrite_in_elementaries(p, [["x", "y"]])


def test_rewrite_rejects_symbol_collision():
    p = MultiPoly.var("x").add(MultiPoly.var("y")).add(MultiPoly.var("e1"))
    assert is_symmetric(p, ["x", "y"])
    with pytest.raises(InvalidInputError):
        rewrite_in_elementaries(p, [["x", "y"]])


def test_rewrite_random_symmetrizations():
    # symmetrize random polynomials, rewrite, and trust the built-in
    # back-substitution check to catch any drift
    rng = random.Random(992)
    names = ["x", "y", "z"]
    for _ in range(10):
        raw = MultiPoly.const(0)
        for _ in range(4):
            term = MultiPoly.const(rng.randint(-3, 3))
            for v in names:
                term = term.mul(MultiPoly.var(v, rng.randint(0, 2)))
            raw = raw.add(term)
        sym = MultiPoly.const(0)
        for perm in itertools.permutations(names):
            sym = sym.add(raw.substitute({a: MultiPoly.var(b) for a, b in zip(names, perm)}))
        out = rewrite_in_elementaries(sym, [names])
        leftover = out.variables() & set(names)
        assert not leftover


def test_newton_polynomial_small():
    e1, e2, e3 = (MultiPoly.var("e%d" % i) for i in (1, 2, 3))
    assert newton_polynomial(1) == e1
    assert newton_polynomial(2) == e1.pow(2).sub(e2.mul_int(2))
    expected3 = e1.pow(3).sub(e1.mul(e2).mul_int(3)).add(e3.mul_int(3))
    assert newton_polynomial(3) == expected3


def test_newton_polynomial_at_roots():
    # elementary values of the roots 1, 2, 3
    values = {"e1": 6, "e2": 11, "e3": 6, "e4": 0, "e5": 0, "e6": 0}
    for n in range(1, 7):
        got = eval_at_ints(newton_polynomial(n), values)
        assert got == 1 + 2 ** n + 3 ** n


def test_newton_polynomial_fixes_binomial_integers():
    # power sums act as the identity on the binomials of an integer
    for r in range(-4, 5):
        for n in range(1, 7):
            values = {"e%d" % i: binom(r, i) for i in range(1, n + 1)}
            assert eval_at_ints(newton_polynomial(n), values) == r


def test_universal_P_frozen():
    e1, e2 = MultiPoly.var("e1"), MultiPoly.var("e2")
    f1, f2 = MultiPoly.var("f1"), MultiPoly.var("f2")
    assert universal_P(0) == MultiPoly.const(1)
    assert universal_P(1) == e1.mul(f1)
    expected = e1.pow(2).mul(f2).add(e2.mul(f1.pow(2))).sub(e2.mul(f2).mul_int(2))
    assert universal_P(2) == expected


def test_universal_P_matches_root_expansion():
    for n in (1, 2, 3):
        assert universal_P_from_roots(n) == universal_P(n)
    # stability: an unused extra root must not change the answer
    assert universal_P_from_roots(2, extra=1) == universal_P(2)
    assert universal_P_from_roots(3, extra=1) == universal_P(3)


def test_universal_P_numeric_product():
    # coefficients of (1+t)(1+2t) times (1+t)(1+3t) in the Witt ring are the
    # coefficients of (1+t)(1+3t)(1+2t)(1+6t), and vanish beyond degree 4
    Z = IntegerRing()
    f = TruncSeries.from_polynomial(Z, [Z.one(), Z.from_int(3), Z.from_int(2)], 9)
    g = TruncSeries.from_polynomial(Z, [Z.one(), Z.from_int(4), Z.from_int(3)], 9)
    h = witt_product_series(f, g)
    want = [1, 12, 47, 72, 36, 0, 0, 0, 0]
    assert [c.as_int() for c in h.coeffs] == want
    # same numbers through the universal polynomials
    values = {"e1": 3, "e2": 2, "f1": 4, "f2": 3}
    for n in range(1, 7):
        vals = dict(values)
        for i in range(3, n + 1):
            vals["e%d" % i] = 0
            vals["f%d" % i] = 0
        assert eval_at_ints(universal_P(n), vals) == (want[n] if n < len(want) else 0)


def test_universal_Q_frozen():
    e = {i: MultiPoly.var("e%d" % i) for i in range(1, 5)}
    assert universal_Q(2, 2) == e[1].mul(e[3]).sub(e[4])
    assert universal_Q(1, 3) == e[3]
    assert universal_Q(2, 1) == e[2]
    assert universal_Q(0, 4) == MultiPoly.const(1)


def test_universal_Q_matches_root_expansion():
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        assert universal_Q_from_roots(m, n) == universal_Q(m, n)
    assert universal_Q_from_roots(2, 2, extra=1) == universal_Q(2, 2)


def test_universal_Q_binomial_oracle():
    # composing exterior powers on binomial integers: the m-th exterior power
    # of the n-th must evaluate to binom(binom(r, n), m)
    for r in range(-3, 7):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            size = m * n
            values = {"e%d" % i: binom(r, i) for i in range(1, size + 1)}
            got = eval_at_ints(universal_Q(m, n), values)
            assert got == binom(binom(r, n), m)


def test_witt_product_coeff_rename():
    x1 = MultiPoly.var("x1")
    y1 = MultiPoly.var("y1")
    assert witt_product_coeff(1) == x1.mul(y1)
    names = witt_product_coeff(2).variables()
    assert names == {"x1", "x2", "y1", "y2"}


def test_exterior_power_of_split_element():
    # the 3rd exterior power of (1+t)^5 is (1+t)^binom(5,3)
    Z = IntegerRing()
    five = TruncSeries.from_ints(Z, [binom(5, i) for i in range(7)])
    cube = witt_exterior_series(3, five)
    assert [c.as_int() for c in cube.coeffs] == [binom(10, i) for i in range(3)]


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "alt-cache"
    monkeypatch.setenv("MZETA_CACHE_DIR", str(cache))
    symfunc._MEMO.pop("P_2", None)
    first = universal_P(2)
    assert (cache / "P_2.json").exists()
    symfunc._MEMO.pop("P_2", None)
    again = universal_P(2)
    assert again == first


def test_disk_cache_ignores_corruption(tmp_path, monkeypatch):
    cache = tmp_path / "alt-cache"
    cache.mkdir()
    (cache / "Q_1_1.json").write_text("not json at all")
    monkeypatch.setenv("MZETA_CACHE_DIR", str(cache))
    symfunc._MEMO.pop("Q_1_1", None)
    assert universal_Q(1, 1) == MultiPoly.var("e1")
