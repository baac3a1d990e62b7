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
(Macdonald, Symmetric Functions and Hall Polynomials, I.2): is_symmetric
finds each orbit complete with one coefficient in one pass, the
elimination reads dominant terms only, and back-substitution certifies it.

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
import struct

from .errors import InvalidInputError, NonSymmetricError
from .rings import _FIELD_MASK, MultiPoly, PolynomialRing, _block_fields, _check_int
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


def _orbit_size(exps):
    """k!/prod(mult!): the number of distinct rearrangements of exps."""
    size = math.factorial(len(exps))
    for mult in collections.Counter(exps).values():
        size //= math.factorial(mult)
    return size


def is_symmetric(p, block):
    """True when p is invariant under every permutation of the block's
    variables.  A name given twice is one variable, and a name p does not
    use is a variable p holds to degree 0; a bad name is an
    InvalidElementError.

    One pass over p's packed keys, by orbits (I. G. Macdonald, Symmetric
    Functions and Hall Polynomials, 2nd ed., 1995, I.2).  A term's orbit is
    named by its key with the block's fields cleared and its sorted block
    exponents.  p is symmetric exactly when every orbit it meets holds
    k!/prod(mult!) terms, for k block variables and the multiplicities of
    the sorted exponents, all with the same coefficient.
    """
    block = list(block)
    shifts, keep = _block_fields(p.layout, block)
    # one shift per distinct name, once every name has been checked
    shifts = list(dict(zip(block, shifts)).values())
    if len(shifts) < 2:
        return True
    orbits = {}
    for key, c in p.terms.items():
        orbit = (key & keep, tuple(sorted([(key >> s) & _FIELD_MASK for s in shifts])))
        seen = orbits.get(orbit)
        if seen is None:
            orbits[orbit] = [c, 1]
        elif seen[0] != c:
            return False
        else:
            seen[1] += 1
    sizes = {}
    for (_, exps), (_, count) in orbits.items():
        size = sizes.get(exps)
        if size is None:
            size = sizes[exps] = _orbit_size(exps)
        if count != size:
            return False
    return True


def _dominant(vec):
    """Whether an exponent vector is weakly decreasing: a partition."""
    return all(map(operator.ge, vec, vec[1:]))


class _DominantParts(dict):
    """{lam: part}, each part computed on first use: the terms of
    prod_i e_i^(lam_i - lam_(i+1)) in len(lam) variables at the partitions
    mu other than lam, as {mu: integer coefficient}.  The product's
    leading term is x^lam, with coefficient 1."""

    def __missing__(self, lam):
        k = len(lam)
        names = ["x%d" % j for j in range(1, k + 1)]
        product = MultiPoly.const(1)
        for i in range(k):
            step = lam[i] - (lam[i + 1] if i + 1 < k else 0)
            if step:
                product = product.mul(elementary_symmetric(i + 1, names).pow(step))
        # the k 64-bit fields of a key: field j holds the exponent of names[j]
        unpack = struct.Struct("<%dQ" % k).unpack
        part = self[lam] = {}
        for key, c in product.terms.items():
            mu = unpack(key.to_bytes(8 * k, "little"))
            if mu != lam and _dominant(mu):
                part[mu] = c
        return part


def _eliminate_block(p, block, symbols, ring, dominant_parts):
    """Rewrite p, symmetric in block, through the block's elementary
    polynomials, named symbols.

    Leading-term elimination on the dominant terms only.  A symmetric
    polynomial is fixed by its coefficients at the weakly decreasing
    exponent vectors on the block (partitions), one per orbit, so p is
    collected once and only those coefficients, polynomials in the other
    variables, are kept.  Each step takes the lex-largest partition lam,
    with coefficient q, records q * prod symbols[i]^(lam_i - lam_(i+1)),
    and subtracts q times dominant_parts[lam] from the smaller partitions.
    No other term of p is read: rewrite_in_elementaries checks symmetry
    first and certifies the result by back-substitution.  ring holds every
    name, so the result is on its layout.
    """
    k = len(block)
    one = MultiPoly.const(1)
    groups = p.collect(block)
    rest = groups.pop((0,) * k, None)
    pairs = [] if rest is None else [(rest, one)]
    # partition -> (coefficient, factor) pairs whose products sum to its
    # coefficient in what is left of p
    todo = {lam: [(q, one)] for lam, q in groups.items() if _dominant(lam)}
    while todo:
        lam = max(todo)
        q = ring.dot(todo.pop(lam))
        if q.is_zero():
            continue
        mono = one
        for i, name in enumerate(symbols):
            step = lam[i] - (lam[i + 1] if i + 1 < k else 0)
            if step:
                mono = mono.mul(ring.var(name, step))
        pairs.append((q, mono))
        for mu, c in dominant_parts[lam].items():
            todo.setdefault(mu, []).append((q, MultiPoly.const(-c)))
    return ring.dot(pairs)


def rewrite_in_elementaries(p, blocks, prefixes=("e", "f")):
    """Express p through elementary symmetric polynomials of each block.

    blocks is one or two lists of variable names; p must be symmetric in
    each block separately (NonSymmetricError otherwise).  Block number i
    gets symbols prefixes[i] + "1", "2", ...; the result is verified by
    substituting the elementary polynomials back in.  An empty block has no
    elementary polynomials, so there p is its own rewrite.
    """
    blocks = [list(b) for b in blocks]
    if not blocks or len(blocks) > len(prefixes):
        raise InvalidInputError(
            "need between 1 and %d variable blocks" % len(prefixes)
        )
    seen = set()
    for block in blocks:
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
    # shared by the blocks, so two blocks of one length read each part once
    dominant_parts = _DominantParts()
    for block, names in zip(blocks, symbols):
        out = _eliminate_block(out, block, names, ring, dominant_parts)
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
