import collections
import itertools
import random

import pytest

from mzeta.errors import InvalidElementError, InvalidInputError, NonSymmetricError
from mzeta.oracles import binom
from mzeta import rings, symfunc
from mzeta.rings import IntegerRing, MultiPoly
from mzeta.lambda_rings import WittElement, witt_lambda, witt_mul
from mzeta.series import TruncSeries
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
    h = witt_mul(WittElement(f), WittElement(g)).series
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


def test_library_builders_intern_one_layout(layouts_made):
    # each builds its variables in one ring, so it makes at most that ring's
    # layout (and, for the rename, the layout where the table meets it and
    # the table's own ring), not one layout per partial product; layouts
    # made are counted, since a dropped one leaves the weak table at once
    names = ["w%d" % i for i in range(40)]
    e3 = elementary_symmetric(3, names)
    assert len(layouts_made) <= 1
    assert len(e3.terms) == binom(40, 3)
    del layouts_made[:]
    assert witt_product_coeff(4).variables() == {"x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"}
    assert len(layouts_made) <= 3


def test_elementary_symmetric_names():
    x = MultiPoly.var("x")
    assert elementary_symmetric(2, ["x", "x"]) == x.mul(x)
    assert elementary_symmetric(2, iter(["x", "y", "x"])) == x.mul(x).add(
        x.mul(MultiPoly.var("y")).mul_int(2)
    )
    for bad in ("1x", "a b", 5, None, ["x"]):
        with pytest.raises(InvalidInputError, match="^bad variable name "):
            elementary_symmetric(2, ["x", bad])


def test_exterior_power_of_split_element():
    # the 3rd exterior power of (1+t)^5 is (1+t)^binom(5,3)
    Z = IntegerRing()
    five = TruncSeries.from_ints(Z, [binom(5, i) for i in range(7)])
    cube = witt_lambda(3, WittElement(five)).series
    assert [c.as_int() for c in cube.coeffs] == [binom(10, i) for i in range(3)]


def test_tables_are_memoized_and_bad_indices_raise_every_time():
    assert universal_P(3) is universal_P(3)
    assert universal_Q(2, 2) is universal_Q(2, 2)
    assert newton_polynomial(4) is newton_polynomial(4)
    # errors are not memoized: a bad index raises on every call
    for fn, args in ((universal_P, (-1,)), (universal_Q, (-1, 2)), (universal_Q, (2, -1)),
                     (newton_polynomial, (0,))):
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                fn(*args)


def symmetric_by_transpositions(p, block):
    """The definition is_symmetric replaces: p is fixed by every swap of
    adjacent block entries, which generate the whole symmetric group."""
    for u, v in zip(block, block[1:]):
        if p.substitute({u: MultiPoly.var(v), v: MultiPoly.var(u)}) != p:
            return False
    return True


def random_poly(rng, exponents, terms):
    """A sum of terms random integer times prod v^e, e drawn from
    exponents[v]."""
    p = MultiPoly.const(0)
    for _ in range(terms):
        term = MultiPoly.const(rng.choice((-3, -2, -1, 1, 2, 3)))
        for v, top in exponents.items():
            term = term.mul(MultiPoly.var(v, rng.randint(0, top)))
        p = p.add(term)
    return p


def symmetrized(p, block):
    """The sum of p over every permutation of the block."""
    out = MultiPoly.const(0)
    for perm in itertools.permutations(block):
        out = out.add(p.substitute({a: MultiPoly.var(b) for a, b in zip(block, perm)}))
    return out


def test_is_symmetric_agrees_with_transpositions():
    # symmetrized, then perturbed by a term or by one coefficient; blocks
    # with names p lacks, a name given twice, and x, y riding along
    rng = random.Random(3011)
    kinds = {"symmetric": 0, "not": 0, "absent": 0, "repeated": 0, "one_off": 0}
    for _ in range(600):
        sym_block = rng.sample(["a", "b", "c"], rng.randint(2, 3))
        exps = {"a": 2, "b": 2, "c": 2, "x": rng.randint(0, 1), "y": 1}
        p = symmetrized(random_poly(rng, exps, rng.randint(1, 3)), sym_block)
        how = rng.random()
        if how < 0.3 and p.terms:
            # a complete orbit with one coefficient off
            (mono, c), = rng.sample(p.items(), 1)
            p = p.add(MultiPoly({mono: rng.choice((-1, 1))}))
            kinds["one_off"] += 1
        elif how < 0.6:
            p = p.add(random_poly(rng, exps, 1))
        block = list(sym_block)
        if rng.random() < 0.3:
            block.append(rng.choice(["d", "z"]))
        if rng.random() < 0.3:
            block.insert(rng.randint(0, len(block)), rng.choice(block))
        rng.shuffle(block)
        want = symmetric_by_transpositions(p, block)
        assert is_symmetric(p, block) == want, (str(p), block)
        kinds["symmetric" if want else "not"] += 1
        kinds["absent"] += not set(block) <= p.variables()
        kinds["repeated"] += len(set(block)) < len(block)
    # every kind of case is met often
    assert min(kinds.values()) >= 50, kinds


def test_is_symmetric_orbit_edge_cases():
    x, y, z, t = (MultiPoly.var(v) for v in "xyzt")
    # a complete orbit whose coefficients differ in one term
    off = x.mul(y.pow(2)).add(y.mul(x.pow(2))).add(x.mul(z.pow(2))).add(z.mul(x.pow(2)))
    off = off.add(y.mul(z.pow(2))).add(z.mul(y.pow(2)).mul_int(2))
    assert not is_symmetric(off, ["x", "y", "z"])
    assert not is_symmetric(x.pow(2).add(y.pow(2)).mul(t).add(z.pow(2)), ["x", "y", "z"])
    assert is_symmetric(x.pow(2).add(y.pow(2)).add(z.pow(2)).mul(t), ["x", "y", "z"])
    # a name given twice is one variable, and x alone is symmetric in it
    assert is_symmetric(x.pow(3), ["x", "x"])
    assert is_symmetric(x.add(y), ["x", "y", "x"])
    assert not is_symmetric(x.add(y.mul_int(2)), ["x", "x", "y"])
    # names the polynomial lacks: a variable it holds to degree 0
    assert is_symmetric(t.add(MultiPoly.const(5)), ["u", "v"])
    assert not is_symmetric(x.add(y), ["x", "y", "w"])
    assert is_symmetric(MultiPoly.const(0), ["x", "y"])
    assert not is_symmetric(x.add(y.mul_int(2)), iter(["x", "y"]))
    for bad in ("1x", "a b", 5, None, ["x"]):
        with pytest.raises(InvalidElementError, match="^bad variable name "):
            is_symmetric(x.add(y), ["x", bad])
        with pytest.raises(InvalidElementError, match="^bad variable name "):
            is_symmetric(x.add(y), [bad, "y", "x"])


def test_rewrite_two_blocks_random():
    # symmetric in a and in b separately, with t riding along; the result
    # is unique, so rewriting the blocks in the other order gives it too
    rng = random.Random(4127)
    a, b = ["a1", "a2", "a3"], ["b1", "b2"]
    for _ in range(12):
        exps = dict.fromkeys(a + b, 2)
        exps["t"] = 1
        raw = random_poly(rng, exps, rng.randint(1, 4))
        p = symmetrized(symmetrized(raw, a), b)
        out = rewrite_in_elementaries(p, [a, b])
        assert out.variables() <= {"e1", "e2", "e3", "f1", "f2", "t"}
        swapped = rewrite_in_elementaries(p, [b, a], prefixes=("f", "e"))
        assert swapped == out
        back = {"e%d" % i: elementary_symmetric(i, a) for i in (1, 2, 3)}
        back.update({"f%d" % i: elementary_symmetric(i, b) for i in (1, 2)})
        assert out.substitute(back) == p
        if rng.random() < 0.5:
            with pytest.raises(NonSymmetricError):
                rewrite_in_elementaries(p.add(MultiPoly.var("a1")), [a, b])


def test_root_expansions_match_ghost_tables():
    for n in range(1, 6):
        assert universal_P_from_roots(n) == universal_P(n), n
    for m in range(1, 10):
        for n in range(1, 9 // m + 1):
            assert universal_Q_from_roots(m, n) == universal_Q(m, n), (m, n)


def test_root_expansions_reject_bad_counts():
    # a negative extra once dropped roots: P_3 came out 0 and Q_{2,2}
    # lost its e4 term
    for call in (lambda: universal_P_from_roots(3, extra=-2),
                 lambda: universal_P_from_roots(2, extra=-1),
                 lambda: universal_Q_from_roots(2, 2, extra=-1),
                 lambda: universal_P_from_roots(-1),
                 lambda: universal_Q_from_roots(-1, 2),
                 lambda: universal_Q_from_roots(2, -1)):
        with pytest.raises(InvalidInputError, match="^negative "):
            call()
    for call in (lambda: universal_P_from_roots(2, extra=1.5),
                 lambda: universal_P_from_roots(2.0),
                 lambda: universal_P_from_roots(2, extra=True),
                 lambda: universal_Q_from_roots(2, 2, extra="1"),
                 lambda: universal_Q_from_roots(2.0, 2),
                 lambda: universal_Q_from_roots(2, None)):
        with pytest.raises(InvalidInputError, match="must be an integer$"):
            call()
    assert universal_Q_from_roots(2, 2, extra=0) == universal_Q(2, 2)


def test_empty_blocks_rewrite_to_themselves():
    # with no roots there are no elementary polynomials, so each edge is
    # its own rewrite and equals the table
    assert universal_P_from_roots(0) == universal_P(0) == MultiPoly.const(1)
    assert universal_Q_from_roots(0, 2) == universal_Q(0, 2) == MultiPoly.const(1)
    assert universal_Q_from_roots(2, 0) == universal_Q(2, 0) == MultiPoly.const(0)
    assert universal_Q_from_roots(0, 0) == universal_Q(0, 0) == MultiPoly.const(1)
    p = MultiPoly.var("x", 2).add(MultiPoly.var("y").mul_int(-3))
    assert rewrite_in_elementaries(p, [[]]) == p
    assert rewrite_in_elementaries(p, [[], ["x"]]) == p.substitute({"x": MultiPoly.var("f1")})


def test_tables_reject_non_integer_indices():
    # True == 1 and 2.0 == 2, so without a check before the cache these
    # read the entries of P_1 and P_2
    assert universal_P(1) is universal_P(1) and universal_P(2) is universal_P(2)
    x = MultiPoly.var("x")
    for call in (lambda: universal_P(True), lambda: universal_P(2.0), lambda: universal_P("2"),
                 lambda: universal_Q(True, 2), lambda: universal_Q(2, 1.5),
                 lambda: universal_Q("2", 2), lambda: newton_polynomial(True),
                 lambda: newton_polynomial(2.0), lambda: witt_product_coeff(True),
                 lambda: witt_product_coeff(1.5), lambda: esym_of_elements(True, [x]),
                 lambda: esym_of_elements("2", [x, x]),
                 lambda: elementary_symmetric(1.5, ["x", "y"]),
                 lambda: elementary_symmetric(True, ["x"])):
        with pytest.raises(InvalidInputError, match="must be an integer$"):
            call()
    assert universal_P(1) == MultiPoly.var("e1").mul(MultiPoly.var("f1"))


def test_rewrite_names_a_name_repeated_in_one_block():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    with pytest.raises(InvalidInputError, match=r"^variable 'x' repeats in block \['x', 'x'\]$"):
        rewrite_in_elementaries(x.pow(2), [["x", "x"]])
    with pytest.raises(InvalidInputError, match="^variable 'y' repeats in block "):
        rewrite_in_elementaries(x.mul(y), [["x"], ["y", "z", "y"]])
    with pytest.raises(InvalidInputError, match="^variable 'x' appears in two blocks$"):
        rewrite_in_elementaries(x.mul(y), [["x", "y"], ["x"]])


def partitions(n, top=None):
    """Every partition of n with parts at most top, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, n if top is None else top), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def enumerated_count(rows, cols):
    """(0,1)-matrices with these row and column sums, by listing every
    matrix with the row sums and summing its columns."""
    count = 0
    for chosen in itertools.product(*[itertools.combinations(range(len(cols)), r)
                                      for r in rows]):
        sums = [0] * len(cols)
        for row in chosen:
            for j in row:
                sums[j] += 1
        count += sums == list(cols)
    return count


def test_count_matches_enumerated_matrices():
    checked = nonzero = 0
    for n in range(8):
        for rows in partitions(n):
            for cols in partitions(n):
                if len(rows) * len(cols) <= 16:
                    want = enumerated_count(rows, cols)
                    assert symfunc._count(rows, cols) == want, (rows, cols)
                    checked += 1
                    nonzero += want > 0
    assert checked > 300 and 0 < nonzero < checked


def test_e_image_matches_expanded_products():
    # the terms of prod_i e_i^(lam_i - lam_(i+1)) at partitions, read off
    # the expanded product: nonzero exactly below lam (Gale-Ryser)
    for k in range(5):
        names = ["x%d" % j for j in range(1, k + 1)]
        for n in range(7):
            for lam in partitions(n):
                if len(lam) > k:
                    continue
                lam = lam + (0,) * (k - len(lam))
                product = MultiPoly.const(1)
                for i in range(k):
                    step = lam[i] - (lam[i + 1] if i + 1 < k else 0)
                    product = product.mul(elementary_symmetric(i + 1, names).pow(step))
                want = {}
                for mono, c in product.items():
                    vec = tuple(dict(mono).get(v, 0) for v in names)
                    if all(a >= b for a, b in zip(vec, vec[1:])):
                        want[vec] = c
                got = symfunc._e_image(lam)
                assert got == want, lam
                assert next(iter(got)) == lam and got[lam] == 1


def rewrite_case(rng, two):
    """A random polynomial symmetric in one or two blocks, with t riding
    along: (p, blocks, symbols, back)."""
    if two:
        blocks, symbols = [["a1", "a2", "a3"], ["b1", "b2"]], [["e1", "e2", "e3"], ["f1", "f2"]]
    else:
        blocks, symbols = [["a1", "a2", "a3", "a4"]], [["e1", "e2", "e3", "e4"]]
    exps = {v: 2 for block in blocks for v in block}
    exps["t"] = 2
    p = random_poly(rng, exps, rng.randint(0, 3))
    for block in blocks:
        p = symmetrized(p, block)
    back = {}
    for block, names in zip(blocks, symbols):
        for i, name in enumerate(names):
            back[name] = elementary_symmetric(i + 1, block)
    return p, blocks, symbols, back


def test_counting_certificate_agrees_with_back_substitution():
    # the substitution is the judge: on the rewrite itself, on outs with a
    # term more, a term less or one coefficient off, and on a term whose
    # image lies only at vectors p has no term at
    rng = random.Random(7717)
    kinds = collections.Counter()
    for trial in range(80):
        p, blocks, symbols, back = rewrite_case(rng, trial % 2)
        out = rewrite_in_elementaries(p, blocks)
        assert out.substitute(back) == p
        table = symfunc._partition_table(p, blocks)
        names = [name for group in symbols for name in group] + ["t"]
        extra = MultiPoly.const(rng.choice((-2, -1, 1, 2)))
        for name in rng.sample(names, 2):
            extra = extra.mul(MultiPoly.var(name, rng.randint(1, 2)))
        top = max([sum(dict(mono).get(v, 0) for v in blocks[0]) for mono, _ in p.items()],
                  default=0)
        candidates = {"rewrite": out, "term more": out.add(extra),
                      "beyond": out.add(MultiPoly.var(symbols[0][0], top + 1))}
        if out.terms:
            (mono, c), = rng.sample(out.items(), 1)
            candidates["term less"] = out.sub(MultiPoly({mono: c}))
            candidates["one off"] = out.add(MultiPoly({mono: rng.choice((-1, 1))}))
        for kind, cand in candidates.items():
            want = cand.substitute(back) == p
            assert symfunc._certified(table, p.layout, cand, symbols) == want, (kind, str(p))
            kinds[kind, want] += 1
    assert kinds["rewrite", True] == 80
    for kind in ("term more", "beyond", "term less", "one off"):
        assert kinds[kind, True] == 0 and kinds[kind, False] >= 20, kinds


def test_rewrite_checks_block_names_before_using_them():
    # an unhashable name escaped as a bare TypeError from the repeat check,
    # and with p = 0 no orbit pass reads a later block's names
    for p, blocks in ((MultiPoly.var("x"), [["x", ["y"]]]),
                      (MultiPoly.const(0), [["x"], ["1bad"]])):
        with pytest.raises(InvalidElementError, match="^bad variable name "):
            rewrite_in_elementaries(p, blocks)


def test_rewrite_names_block_b_when_only_a_lower_coefficient_is_asymmetric():
    # p = sum_lam m_lam(a) T_lam is symmetric in a; it is symmetric in b
    # exactly when every T_lam is, so b's passes must read every T_lam, not
    # only the leading one, and must count each orbit of b
    a, b = ["a1", "a2", "a3"], ["b1", "b2"]
    va = {v: MultiPoly.var(v) for v in a + b + ["t"]}
    lead = symmetrized(va["a1"].pow(3), a).mul(va["b1"].add(va["b2"])).mul(va["t"])
    fixed = [
        # T_(1,1,0) = b1*t: b's orbit of b1 is incomplete
        lead.add(symmetrized(va["a1"].mul(va["a2"]), a).mul(va["b1"]).mul(va["t"])),
        # T_(2,0,0) has b's full orbit of b1^2 with two coefficients
        lead.add(symmetrized(va["a1"].pow(2), a).mul(
            va["b1"].pow(2).add(va["b2"].pow(2).mul_int(2)))),
        # T_(1,0,0) = b2 alone, the lowest partition
        lead.add(symmetrized(va["a1"], a).mul(va["b2"])),
    ]
    rng = random.Random(3541)
    randomized = []
    for _ in range(30):
        exps = dict.fromkeys(a + b, 2)
        exps["t"] = 1
        base = symmetrized(symmetrized(random_poly(rng, exps, rng.randint(0, 2)), a), b)
        # an a-part whose partition has no part above 2, below lead's (3,0,0)
        low = random_poly(rng, {v: 2 for v in a}, 1)
        i, j = rng.sample(range(3), 2)
        bad = MultiPoly({(("b1", i), ("b2", j), ("t", rng.randint(0, 1))): 1})
        randomized.append(lead.add(base).add(symmetrized(low, a).mul(bad)))
    for p in fixed + randomized:
        assert is_symmetric(p, a) and not symmetric_by_transpositions(p, b), str(p)
        with pytest.raises(NonSymmetricError,
                           match=r"^polynomial is not symmetric in block \['b1', 'b2'\]$"):
            rewrite_in_elementaries(p, [a, b])
