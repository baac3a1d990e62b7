"""Brute-force oracles shared by the self-check suite and the tests.

Everything here is re-derived from first principles and imports nothing
from the rest of the package, so the checks do not reuse the package's own
machinery as its judge.
"""


def binom(n, k):
    """Generalized binomial via the falling-factorial product; any integer n."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    q, r = divmod(num, den)
    assert r == 0
    return q


def single_degree_lambda(dim, p, i):
    """t^i coefficient (an s-power and a count) of lambda_t on one graded
    piece of dimension dim in degree p: exterior powers in odd degree,
    symmetric powers in even degree.  Returns (s_exponent, coefficient)."""
    c = binom(dim, i) if p % 2 else binom(dim + i - 1, i)
    return p * i, c


def multiset_graded_lambda(m, dims):
    """Coefficient list of lambda^m applied to the graded space with the
    given dimensions, computed by enumerating how m factors distribute over
    the degrees (the multiset-partition expansion), not by a series product.
    """
    out = {}

    def walk(pos, remaining, s_exp, coeff):
        if pos == len(dims):
            if remaining == 0:
                out[s_exp] = out.get(s_exp, 0) + coeff
            return
        for take in range(remaining + 1):
            e, c = single_degree_lambda(dims[pos], pos, take)
            if c:
                walk(pos + 1, remaining - take, s_exp + e, coeff * c)

    walk(0, m, 0, 1)
    top = max(out) if out else 0
    return [out.get(j, 0) for j in range(top + 1)]


def linear_factors(roots):
    """Coefficients of prod(1 - r t) over the roots, one factor at a time."""
    out = [1]
    for r in roots:
        out = [a - r * b for a, b in zip(out + [0], [0] + out)]
    return out


def tuple_poly_add(p, q):
    """Sum of polynomials given as dicts from sorted (variable, exponent)
    tuples to nonzero integer coefficients."""
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def tuple_poly_mul(p, q, square_zero=False):
    """Product of two such polynomials, one monomial pair at a time; with
    square_zero, monomials with an exponent of 2 or more are dropped."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            exps = dict(k1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            if square_zero and any(e >= 2 for e in exps.values()):
                continue
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def tuple_poly_substitute(p, images):
    """p with each variable in images replaced by its image polynomial, all
    at once, by expanding every term as a product of powers."""
    out = {}
    for key, c in p.items():
        term = {tuple((v, e) for v, e in key if v not in images): c}
        for v, e in key:
            for _ in range(e if v in images else 0):
                term = tuple_poly_mul(term, images[v])
        out = tuple_poly_add(out, term)
    return out


def reciprocal_root_power_sums(p, upto):
    """[s_1, ..., s_upto] with s_m = sum_i alpha_i^m, for an integer
    polynomial p(t) = prod_i (1 - alpha_i t) given as [1, p_1, p_2, ...].

    From t p'(t) = p(t) * sum_m (-s_m) t^m, coefficient by coefficient.
    """
    p = list(p) + [0] * upto
    s = []
    for m in range(1, upto + 1):
        s.append(-m * p[m] - sum(p[j] * s[m - j - 1] for j in range(1, m)))
    return s


def point_counts(expr, q, n, curves):
    """#X(F_{q^n}) for a variety expression X, one counting rule per node.

    Nodes are told apart by class name, so nothing is imported.  curves
    maps id() of each positive-genus Curve node to the coefficients
    [1, a_1, ..., q^g] of its Weil polynomial P(t) = prod_i (1 - alpha_i t);
    such a curve has q^n + 1 - sum_i alpha_i^n points.
    """
    qn = q ** n

    def projective(k):
        return sum(qn ** j for j in range(k + 1))

    def count(e):
        kind = type(e).__name__
        if kind == "Point":
            return 1
        if kind == "Affine":
            return qn ** e.n
        if kind == "Proj":
            return projective(e.n)
        if kind == "Torus":
            return (qn - 1) ** e.d
        if kind == "Curve":
            if e.genus == 0:
                return qn + 1
            return qn + 1 - reciprocal_root_power_sums(curves[id(e)], n)[-1]
        if kind == "Disjoint":
            return count(e.left) + count(e.right)
        if kind == "Prod":
            return count(e.left) * count(e.right)
        if kind == "VectorBundle":
            return count(e.base) * qn ** e.rank
        if kind == "ProjBundle":
            return count(e.base) * projective(e.rank)
        raise ValueError("not a variety expression: %r" % (e,))

    return count(expr)
