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

The three tables are computed on demand and memoized for the life of the
process, since the lambda-ring checks ask for the same ones again and again;
nothing is written to disk.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InvalidInputError, NonSymmetricError
from .rings import MultiPoly, PolynomialRing
from .series import TruncSeries, from_power_sums, ghost_exterior, power_sums


def esym_of_elements(k, elems):
    """Elementary symmetric polynomial e_k of a list of MultiPoly values."""
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


def _swap_vars(p, u, v):
    return p.substitute({u: MultiPoly.var(v), v: MultiPoly.var(u)})


def is_symmetric(p, block):
    """True when p is invariant under all permutations of the block.

    Adjacent transpositions generate the full symmetric group, so checking
    len(block) - 1 swaps is a complete test.
    """
    for i in range(len(block) - 1):
        if _swap_vars(p, block[i], block[i + 1]) != p:
            return False
    return True


def _eliminate_block(p, block, symbols, ring):
    """Rewrite p (symmetric in block) using the block's elementary polys.

    Classical leading-term elimination: repeatedly locate the lex-largest
    exponent vector on the block, peel off a matching product of elementary
    symmetric polynomials, and record it in the fresh symbol variables.
    Variables outside the block ride along as coefficients.  ring holds
    every name, so all the work runs on its layout.
    """
    k = len(block)
    roots = [ring.var(v) for v in block]
    elems = [None] + [esym_of_elements(i, roots) for i in range(1, k + 1)]
    acc = MultiPoly.const(0)
    while True:
        groups = p.collect(block)
        best = max((vec for vec in groups if any(vec)), default=None)
        if best is None:
            break
        if any(best[i] < best[i + 1] for i in range(k - 1)):
            raise NonSymmetricError(
                "leading exponents %r are not weakly decreasing; polynomial is "
                "not symmetric in %r" % (list(best), list(block))
            )
        q = groups[best]
        mono = MultiPoly.const(1)
        expansion = MultiPoly.const(1)
        for i in range(k):
            step = best[i] - (best[i + 1] if i + 1 < k else 0)
            if step:
                mono = mono.mul(ring.var(symbols[i], step))
                expansion = expansion.mul(elems[i + 1].pow(step))
        acc = acc.add(q.mul(mono))
        p = p.sub(q.mul(expansion))
    return acc.add(p)


def rewrite_in_elementaries(p, blocks, prefixes=("e", "f")):
    """Express p through elementary symmetric polynomials of each block.

    blocks is one or two lists of variable names; p must be symmetric in
    each block separately (NonSymmetricError otherwise).  Block number i
    gets symbols prefixes[i] + "1", "2", ...; the result is verified by
    substituting the elementary polynomials back in.
    """
    blocks = [list(b) for b in blocks]
    if not blocks or len(blocks) > len(prefixes):
        raise InvalidInputError(
            "need between 1 and %d variable blocks" % len(prefixes)
        )
    seen = set()
    for block in blocks:
        if not block:
            raise InvalidInputError("empty variable block")
        for v in block:
            if v in seen:
                raise InvalidInputError("variable %r appears in two blocks" % v)
            seen.add(v)
    taken = p.variables() | seen
    symbols = []
    for block, prefix in zip(blocks, prefixes):
        names = ["%s%d" % (prefix, i) for i in range(1, len(block) + 1)]
        for name in names:
            if name in taken:
                raise InvalidInputError(
                    "symbol %r collides with an existing variable" % name
                )
        symbols.append(names)
    for block in blocks:
        if not is_symmetric(p, block):
            raise NonSymmetricError(
                "polynomial is not symmetric in block %r" % (block,)
            )
    ring = PolynomialRing(sorted(taken) + [name for names in symbols for name in names])
    out = p
    for block, names in zip(blocks, symbols):
        out = _eliminate_block(out, block, names, ring)
    back = {}
    for block, names in zip(blocks, symbols):
        roots = [ring.var(v) for v in block]
        for i, name in enumerate(names):
            back[name] = esym_of_elements(i + 1, roots)
    if out.substitute(back) != p:
        raise RuntimeError("internal error: rewrite failed back-substitution")
    return out


@functools.cache
def newton_polynomial(n):
    """Power sum p_n as a polynomial in e_1, ..., e_n (Newton's identity)."""
    if n < 1:
        raise InvalidInputError("power sums are indexed from 1")
    names = ["e%d" % i for i in range(1, n + 1)]
    ring = PolynomialRing(names)
    f = TruncSeries(ring, [ring.one()] + [ring.var(v) for v in names])
    return power_sums(f, n)[n - 1]


@functools.cache
def universal_P(n):
    """Witt product coefficient law: t^n coefficient of the product of
    1 + e_1 t + ... + e_n t^n and 1 + f_1 t + ... + f_n t^n in the Witt ring.
    """
    if n < 0:
        raise InvalidInputError("negative coefficient index")
    if n == 0:
        return MultiPoly.const(1)
    enames = ["e%d" % i for i in range(1, n + 1)]
    fnames = ["f%d" % i for i in range(1, n + 1)]
    ring = PolynomialRing(enames + fnames)
    pf = power_sums(TruncSeries(ring, [ring.one()] + [ring.var(v) for v in enames]), n)
    pg = power_sums(TruncSeries(ring, [ring.one()] + [ring.var(v) for v in fnames]), n)
    return from_power_sums(ring, [ring.mul(a, b) for a, b in zip(pf, pg)], n + 1).coeffs[n]


@functools.cache
def universal_Q(m, n):
    """Exterior power coefficient law: t^m coefficient of the n-th exterior
    power of 1 + e_1 t + ... + e_{m*n} t^{m*n}.
    """
    if m < 0 or n < 0:
        raise InvalidInputError("negative exterior power parameters")
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
    must not depend on the number of roots once it is at least n.
    """
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
    """
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
