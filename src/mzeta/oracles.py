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
