"""Symmetric polynomials and the universal coefficient laws they encode.

Two families of universal integer polynomials drive everything here:

* ``universal_P(n)``: the t^n coefficient of the Witt product of two series
  written in their coefficients (e_i for the first factor, f_j for the
  second).  Over roots: the product runs over all pairwise root products.
* ``universal_Q(m, n)``: the t^m coefficient of the n-th exterior power of a
  series, written in its coefficients e_1, ..., e_{m*n}.  Over roots: the
  exterior power runs over n-element root subsets.

Both are computed on the generic series in ghost coordinates (power sums),
with the same steps as the Witt operations in lambda_rings: the product
multiplies the two power-sum vectors pointwise, the exterior power is
series.ghost_exterior, and from_power_sums reads the coefficients back.
``rewrite_in_elementaries`` plus the explicit root expansions stay
available as an independent cross-check: they express the same
coefficients by expanding the root products literally and rewriting the
symmetric result in elementary symmetric polynomials.

The rewrite works on orbits of the symmetric group on a block of roots
(Macdonald, Symmetric Functions and Hall Polynomials, I.2): the symmetry
test finds each orbit complete with one coefficient in one pass and keeps
its dominant term, the one with weakly decreasing exponents.  The first
block's pass reads the input, and each later block's pass reads only what
the passes before it kept.  One elimination then runs over the vectors of
partitions, one per block, and expands no product of elementary
polynomials, nor does the certificate.  The coefficient of the monomial
symmetric function m_mu in e_nu = e_(nu_1) e_(nu_2) ... is the number of
(0,1)-matrices with row sums nu and column sums mu (Macdonald I.6, the
transition matrix M(e, m)), nonzero exactly when mu <= nu' in dominance
order (Gale 1957; Ryser 1957).  The elimination subtracts those counts,
multiplied across the blocks, and the certificate checks that the rewrite,
read through the same counts, agrees with the input at every vector of
partitions either side has a term at; since both sides are symmetric in
each block, that is equality.

The three tables are computed on demand and memoized for the life of the
process, since the lambda-ring checks ask for the same ones again and again;
nothing is written to disk.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

from .errors import InvalidInputError, NonSymmetricError
from .rings import (
    _FIELD_MASK,
    MultiPoly,
    PolynomialRing,
    _block_fields,
    _check_int,
    _check_name,
    _moved,
    _poly,
    _union,
)
from .series import TruncSeries, from_power_sums, ghost_exterior, power_sums


def esym_of_elements(k, elems):
    """Elementary symmetric polynomial e_k of a list of MultiPoly values."""
    _check_int(k, "elementary symmetric index")
    if k < 0:
        raise InvalidInputError("negative elementary symmetric index")
    partial = [MultiPoly.const(1)] + [MultiPoly.const(0)] * k
    seen = 0
    for x in elems:
        seen += 1
        top = min(seen, k)
        for j in range(top, 0, -1):
            partial[j] = partial[j].add(x.mul(partial[j - 1]))
    return partial[k]


def elementary_symmetric(k, names):
    """e_k in the named variables; a repeated name is a repeated root."""
    names = list(names)
    ring = PolynomialRing([v for i, v in enumerate(names) if v not in names[:i]])
    return esym_of_elements(k, [ring.var(v) for v in names])


def _orbit_size(exps):
    """k!/prod(mult!): the number of distinct rearrangements of exps."""
    size = math.factorial(len(exps))
    for mult in collections.Counter(exps).values():
        size //= math.factorial(mult)
    return size


def _orbits(terms, shifts, keep):
    """{lam: {rest: c}}, the terms at the partitions of a block, when terms,
    a dict of packed keys, is symmetric in it, else None.  shifts, one per
    distinct name, and keep come from _block_fields; lam is a term's block
    exponents when weakly decreasing, rest its key with them cleared.

    One pass over the keys, by orbits (I. G. Macdonald, Symmetric Functions
    and Hall Polynomials, 2nd ed., 1995, I.2).  A term's orbit is named by
    rest and its block exponents sorted into a partition lam.  The terms
    are symmetric exactly when every orbit they meet holds k!/prod(mult!)
    terms, for k block variables and the multiplicities of lam, all with
    the same coefficient, which is then the coefficient at lam.
    """
    orbits = {}
    for key, c in terms.items():
        exps = sorted([(key >> s) & _FIELD_MASK for s in shifts], reverse=True)
        orbit = (key & keep, tuple(exps))
        seen = orbits.get(orbit)
        if seen is None:
            orbits[orbit] = [c, 1]
        elif seen[0] != c:
            return None
        else:
            seen[1] += 1
    sizes = {}
    table = {}
    for (rest, lam), (c, count) in orbits.items():
        size = sizes.get(lam)
        if size is None:
            size = sizes[lam] = _orbit_size(lam)
        if count != size:
            return None
        table.setdefault(lam, {})[rest] = c
    return table


def is_symmetric(p, block):
    """True when p is invariant under every permutation of the block's
    variables.  A name given twice is one variable, and a name p does not
    use is a variable p holds to degree 0; a bad name is an
    InvalidElementError.  One pass over p's terms, by orbits (see _orbits).
    """
    block = list(block)
    shifts, keep = _block_fields(p.layout, block)
    # one shift per distinct name, once every name has been checked
    shifts = list(dict(zip(block, shifts)).values())
    return _orbits(p.terms, shifts, keep) is not None


def _partition_table(p, blocks):
    """p's terms at the vectors of partitions, one partition per block of
    distinct names: {(lam_1, ..., lam_r): {rest: c}}, rest a packed key on
    p.layout with every block's fields cleared.  NonSymmetricError names
    the first block p is not symmetric in.

    The first block's pass (_orbits) reads p's terms, and each later
    block's pass every rest dict the passes before it left (Macdonald I.2):
    p symmetric in block a is sum_lam m_lam(x_a) T_lam, the m_lam are
    linearly independent over the other variables, and a permutation of
    block b moves only the T_lam, so p is symmetric in b iff each T_lam is.
    """
    table = {(): p.terms}
    for block in blocks:
        shifts, keep = _block_fields(p.layout, block)
        grown = {}
        for vec, terms in table.items():
            orbits = _orbits(terms, shifts, keep)
            if orbits is None:
                raise NonSymmetricError(
                    "polynomial is not symmetric in block %r" % (block,)
                )
            for lam, rests in orbits.items():
                grown[vec + (lam,)] = rests
        table = grown
    return table


@functools.cache
def _count(rows, cols):
    """The number of (0,1)-matrices with row sums rows and column sums
    cols, two weakly decreasing tuples of positive integers with one sum.

    The first row's ones go into the classes of columns of equal sum: t of
    a class of m columns in binom(m, t) ways, which leaves t of them one
    lower.  The other rows are counted on the sorted sums that are left.
    """
    if not rows:
        return 1
    first, rows = rows[0], rows[1:]
    classes = [(c, len(list(run))) for c, run in itertools.groupby(cols)]
    total = 0
    for takes in itertools.product(*[range(min(m, first) + 1) for _, m in classes]):
        if sum(takes) != first:
            continue
        ways = 1
        left = []
        for (c, m), t in zip(classes, takes):
            ways *= math.comb(m, t)
            left += [c] * (m - t) + [c - 1] * t
        left.sort(reverse=True)
        total += ways * _count(rows, tuple(c for c in left if c))
    return total


def _below(lam, mu=()):
    """The partitions below lam in dominance order that extend mu, as
    vectors of length len(lam), in lex-decreasing order: lam first."""
    i = len(mu)
    if i == len(lam):
        yield mu
        return
    left = sum(lam) - sum(mu)
    top = min(mu[-1] if mu else left, sum(lam[: i + 1]) - sum(mu))
    # the parts still to come are at most this one, so it takes at least
    # its share of what is left
    for part in range(top, -(-left // (len(lam) - i)) - 1, -1):
        yield from _below(lam, mu + (part,))


@functools.cache
def _e_image(lam):
    """{mu: N(lam', mu)}: the terms of prod_i e_i^(lam_i - lam_(i+1)) in
    len(lam) variables at the partitions mu, where N counts the
    (0,1)-matrices with row sums lam' (the conjugate of lam) and column
    sums mu.

    The product is e_(lam'), and its coefficient at x^mu is that count
    (Macdonald I.6, the transition matrix M(e, m)).  The count is nonzero
    exactly when mu <= lam in dominance order (Gale 1957, Ryser 1957), so
    the keys are _below(lam); the leading term x^lam has coefficient 1.
    """
    rows = tuple(sum(part >= j for part in lam) for j in range(1, max(lam, default=0) + 1))
    return {mu: _count(rows, tuple(c for c in mu if c)) for mu in _below(lam)}


def _e_product(vec):
    """(mu, N) for every vector of partitions mu with mu_i <= vec_i in each
    block, N the product of the blocks' counts in _e_image."""
    for combo in itertools.product(*[_e_image(lam).items() for lam in vec]):
        yield tuple(mu for mu, _ in combo), math.prod(n for _, n in combo)


def _eliminate(table, layout, symbols, ring):
    """Rewrite a polynomial symmetric in each block through the blocks'
    elementary polynomials, symbols[i] naming block i's, from its
    _partition_table, rest keys on layout; ring holds every name.

    Leading-term elimination over the vectors of partitions, one per orbit
    (Macdonald I.2), so no other term is read: each step takes the
    lex-largest vector lam, with coefficient q, records q times the product
    over the blocks of symbols[i][j]^(lam_i[j] - lam_i[j+1]), and subtracts
    q * N(lam_1', mu_1) * ... * N(lam_r', mu_r) at every other vector mu
    with mu_i <= lam_i in each block (_e_product).  Dominance order implies
    lex order, so mu is lex-smaller than lam and no step comes back to a
    vector it has read.  One block is the one-tuple case.
    """
    one = MultiPoly.const(1)
    pairs = []
    # vector -> (coefficient, factor) pairs whose products sum to its
    # coefficient in what is left of the polynomial
    todo = {vec: [(_poly(rests, layout), one)] for vec, rests in table.items()}
    while todo:
        vec = max(todo)
        q = ring.dot(todo.pop(vec))
        if q.is_zero():
            continue
        mono = one
        for lam, names in zip(vec, symbols):
            for name, step in zip(names, map(operator.sub, lam, lam[1:] + (0,))):
                if step:
                    mono = mono.mul(ring.var(name, step))
        pairs.append((q, mono))
        for mu, n in _e_product(vec):
            if mu != vec:
                todo.setdefault(mu, []).append((q, MultiPoly.const(-n)))
    return ring.dot(pairs)


def _certified(table, layout, out, symbols):
    """Whether out, with each block's elementary polynomials put in for its
    symbols, equals the polynomial p whose _partition_table is table (rest
    keys on layout), counted without expanding.

    p is symmetric in each block (tested), and so is out(e(x)), so they are
    equal exactly when they agree at the vectors of partitions: the table
    _eliminate read.  A term c * rest * prod_i symbols[i]^(a_i) of out adds
    c * rest * prod N(lam', mu) at each vector of partitions mu <= lam, for
    lam_i = a_i + a_(i+1) + ... in each block (_e_product).  The sides are
    compared over the union of their vectors, so a term that only one side
    has fails.
    """
    # p's keys keep their packing unless out's layout holds all of p's names
    lay = _union(layout, out.layout)
    # vector of partitions -> {rest: p's coefficient minus out's}
    diff = {vec: dict(_moved(rests, layout.names, lay)) for vec, rests in table.items()}
    fields = [_block_fields(lay, names) for names in symbols]
    keep = functools.reduce(operator.and_, [mask for _, mask in fields], -1)
    for key, c in _moved(out.terms, out.layout.names, lay).items():
        vec = []
        for shifts, _ in fields:
            steps = [(key >> s) & _FIELD_MASK for s in reversed(shifts)]
            vec.append(tuple(itertools.accumulate(steps))[::-1])
        rest = key & keep
        for mu, n in _e_product(vec):
            row = diff.setdefault(mu, {})
            row[rest] = row.get(rest, 0) - c * n
    return not any(n for row in diff.values() for n in row.values())


def rewrite_in_elementaries(p, blocks, prefixes=("e", "f")):
    """Express p through elementary symmetric polynomials of each block.

    blocks is one or two lists of distinct variable names; p must be
    symmetric in each block separately (NonSymmetricError otherwise).
    Block number i gets symbols prefixes[i] + "1", "2", ...  An empty block
    has no elementary polynomials, so there p is its own rewrite.

    One orbit pass per block fills a table of p's terms at the vectors of
    partitions (_partition_table): the first block's pass reads p, each
    later one what the passes before it left (Macdonald I.2).  One
    elimination over the table rewrites every block at once (_eliminate).
    The result is certified on the same table by counting (0,1)-matrices,
    without expanding it (_certified, Macdonald I.6); a failure is a
    RuntimeError.
    """
    blocks = [list(b) for b in blocks]
    if not blocks or len(blocks) > len(prefixes):
        raise InvalidInputError(
            "need between 1 and %d variable blocks" % len(prefixes)
        )
    seen = {}
    for i, block in enumerate(blocks):
        for v in block:
            _check_name(v)
            if v in seen:
                raise InvalidInputError(
                    "variable %r repeats in block %r" % (v, block) if seen[v] == i
                    else "variable %r appears in two blocks" % v
                )
            seen[v] = i
    taken = p.variables() | seen.keys()
    symbols = []
    for block, prefix in zip(blocks, prefixes):
        names = ["%s%d" % (prefix, i) for i in range(1, len(block) + 1)]
        for name in names:
            if name in taken:
                raise InvalidInputError(
                    "symbol %r collides with an existing variable" % name
                )
        symbols.append(names)
    table = _partition_table(p, blocks)
    ring = PolynomialRing(sorted(taken) + [name for names in symbols for name in names])
    out = _eliminate(table, p.layout, symbols, ring)
    if not _certified(table, p.layout, out, symbols):
        raise RuntimeError("internal error: rewrite failed its certificate")
    return out


# The three tables are checked before their functools.cache lookup: True == 1
# and 2.0 == 2, so a bool or a float would otherwise read the entry of an int.


def newton_polynomial(n):
    """Power sum p_n as a polynomial in e_1, ..., e_n (Newton's identity)."""
    _check_int(n, "power sum index")
    if n < 1:
        raise InvalidInputError("power sums are indexed from 1")
    return _newton_polynomial(n)


@functools.cache
def _newton_polynomial(n):
    names = ["e%d" % i for i in range(1, n + 1)]
    ring = PolynomialRing(names)
    f = TruncSeries(ring, [ring.one()] + [ring.var(v) for v in names])
    return power_sums(f, n)[n - 1]


def universal_P(n):
    """Witt product coefficient law: t^n coefficient of the product of
    1 + e_1 t + ... + e_n t^n and 1 + f_1 t + ... + f_n t^n in the Witt ring.
    """
    _check_int(n, "coefficient index")
    if n < 0:
        raise InvalidInputError("negative coefficient index")
    return _universal_P(n)


@functools.cache
def _universal_P(n):
    if n == 0:
        return MultiPoly.const(1)
    enames = ["e%d" % i for i in range(1, n + 1)]
    fnames = ["f%d" % i for i in range(1, n + 1)]
    ring = PolynomialRing(enames + fnames)
    pf = power_sums(TruncSeries(ring, [ring.one()] + [ring.var(v) for v in enames]), n)
    pg = power_sums(TruncSeries(ring, [ring.one()] + [ring.var(v) for v in fnames]), n)
    return from_power_sums(ring, [ring.mul(a, b) for a, b in zip(pf, pg)], n + 1).coeffs[n]


def universal_Q(m, n):
    """Exterior power coefficient law: t^m coefficient of the n-th exterior
    power of 1 + e_1 t + ... + e_{m*n} t^{m*n}.
    """
    _check_int(m, "exterior power index")
    _check_int(n, "exterior power index")
    if m < 0 or n < 0:
        raise InvalidInputError("negative exterior power parameters")
    return _universal_Q(m, n)


@functools.cache
def _universal_Q(m, n):
    if m == 0:
        return MultiPoly.const(1)
    if n == 0:
        # the exterior powers of the ring unit 1 + t stop after degree one
        return MultiPoly.const(1 if m == 1 else 0)
    names = ["e%d" % i for i in range(1, m * n + 1)]
    ring = PolynomialRing(names)
    f = TruncSeries(ring, [ring.one()] + [ring.var(v) for v in names])
    p = ghost_exterior(ring, n, power_sums(f, m * n), m + 1)
    return from_power_sums(ring, p, m + 1).coeffs[m]


def witt_product_coeff(p):
    """universal_P(p) with the factor coefficients named x_i and y_j."""
    poly = universal_P(p)
    rename = {}
    for i in range(1, p + 1):
        rename["e%d" % i] = "x%d" % i
        rename["f%d" % i] = "y%d" % i
    ring = PolynomialRing(rename.values())
    return poly.substitute({v: ring.var(name) for v, name in rename.items()})


def universal_P_from_roots(n, extra=0):
    """Root-expansion cross-check for universal_P.

    Expands n + extra formal roots per factor, takes e_n of all pairwise
    products, and rewrites in the elementary symmetric polynomials of the
    two root blocks.  Values of extra above 0 confirm stability: the answer
    must not depend on the number of roots once it is at least n; a
    negative extra is an InvalidInputError.
    """
    _check_int(n, "coefficient index")
    _check_int(extra, "extra roots")
    if n < 0:
        raise InvalidInputError("negative coefficient index")
    if extra < 0:
        raise InvalidInputError("negative number of extra roots")
    size = n + extra
    avars = ["a%d" % i for i in range(1, size + 1)]
    bvars = ["b%d" % i for i in range(1, size + 1)]
    ring = PolynomialRing(avars + bvars)
    products = [ring.var(u).mul(ring.var(v)) for u in avars for v in bvars]
    sym = esym_of_elements(n, products)
    return rewrite_in_elementaries(sym, [avars, bvars])


def universal_Q_from_roots(m, n, extra=0):
    """Root-expansion cross-check for universal_Q.

    Expands m*n + extra formal roots, takes e_m of the products over all
    n-element root subsets, and rewrites in elementary symmetric polynomials.
    A negative extra is an InvalidInputError, as in universal_P_from_roots.
    """
    _check_int(m, "exterior power index")
    _check_int(n, "exterior power index")
    _check_int(extra, "extra roots")
    if m < 0 or n < 0:
        raise InvalidInputError("negative exterior power parameters")
    if extra < 0:
        raise InvalidInputError("negative number of extra roots")
    size = m * n + extra
    avars = ["a%d" % i for i in range(1, size + 1)]
    ring = PolynomialRing(avars)
    roots = [ring.var(v) for v in avars]
    subsets = []
    for combo in itertools.combinations(roots, n):
        prod = MultiPoly.const(1)
        for r in combo:
            prod = prod.mul(r)
        subsets.append(prod)
    sym = esym_of_elements(m, subsets)
    return rewrite_in_elementaries(sym, [avars])
