"""Value oracles for benchmark jobs, written with plain ints and Fractions.

Nothing here imports mzeta.  Each oracle reads a job's JSON output and
checks it by value against an independent computation: closed-form
products of (1 - q^k t) factors, root expansions, exact Fraction linear
algebra, and binomial evaluations.  Values are compared, never bytes, so a
program that returns reduced fractions where it used to return unreduced
ones still passes.

Every check function returns None when the output is right and a short
reason string when it is wrong.
"""

import itertools
import math
import random
from fractions import Fraction


# ---------------------------------------------------------------- JSON forms


def poly_terms(obj):
    """A polynomial JSON object as {monomial: int}, monomial a sorted tuple."""
    out = {}
    for t in obj["terms"]:
        mono = tuple(sorted((str(v), int(e)) for v, e in t.get("e", {}).items()))
        out[mono] = out.get(mono, 0) + int(t["c"])
    return {k: c for k, c in out.items() if c}


def eval_poly(obj, point):
    """Value of a polynomial JSON object at an integer point {name: value}."""
    total = 0
    for t in obj["terms"]:
        val = int(t["c"])
        for v, e in t.get("e", {}).items():
            val *= point[v] ** int(e)
        total += val
    return total


def eval_elem(ring, obj, point):
    """Value of a ring element JSON at a point; fractions become Fraction."""
    if ring["kind"] == "fraction":
        den = eval_poly(obj["den"], point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return Fraction(eval_poly(obj["num"], point), den)
    return eval_poly(obj, point)


def series_values(series, point):
    ring = series["ring"]
    return [eval_elem(ring, c, point) for c in series["coeffs"]]


def size_stats(obj):
    """(largest coefficient bit length, largest term count, series
    coefficient count) over every polynomial and series anywhere in a JSON
    value."""
    bits = terms = series_terms = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            if "ring" in x and isinstance(x.get("coeffs"), list):
                series_terms += len(x["coeffs"])
            ts = x.get("terms")
            if isinstance(ts, list):
                terms = max(terms, len(ts))
                for t in ts:
                    if isinstance(t, dict) and isinstance(t.get("c"), str):
                        bits = max(bits, int(t["c"]).bit_length())
            else:
                stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
    return bits, terms, series_terms


# ------------------------------------------------------- truncated int series


def s_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j in range(min(len(b), n - i)):
                out[i + j] += x * b[j]
    return out


def s_inv(a, n):
    """Inverse of a series with constant term 1 (stays integral)."""
    if a[0] != 1:
        raise ValueError("constant term must be 1")
    out = [1] + [0] * (n - 1)
    for k in range(1, n):
        acc = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            acc += a[i] * out[k - i]
        out[k] = -acc
    return out


def s_pow(a, e, n):
    if e < 0:
        a, e = s_inv(a, n), -e
    out = [1] + [0] * (n - 1)
    for _ in range(e):
        out = s_mul(out, a, n)
    return out


def s_scale(a, c, n):
    """t -> c t."""
    return [a[i] * c ** i for i in range(min(len(a), n))] + [0] * max(0, n - len(a))


def factor_product(profile, q, n):
    """prod_k (1 - q^k t)^(-a_k) to n terms, for a profile {k: a_k}."""
    out = [1] + [0] * (n - 1)
    for k, a in sorted(profile.items()):
        out = s_mul(out, s_pow([1, -(q ** k)], -a, n), n)
    return out


# ---------------------------------------------------------- variety grammar


def parse(text):
    """Variety expression as nested tuples: ("P", 2), ("Prod", x, y), ..."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip()
        if text[pos:pos + 1] != ch:
            raise ValueError("expected %r at %d in %r" % (ch, pos, text))
        pos += 1

    def number():
        nonlocal pos
        skip()
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos])

    def expr():
        nonlocal pos
        skip()
        start = pos
        while pos < len(text) and text[pos].isalpha():
            pos += 1
        name = text[start:pos]
        if name == "point":
            return ("point",)
        expect("(")
        if name in ("A", "P", "Gm", "Curve"):
            node = (name, number())
        elif name in ("Prod", "Disj"):
            left = expr()
            expect(",")
            node = (name, left, expr())
        elif name in ("VB", "PB"):
            base = expr()
            expect(",")
            node = (name, base, number())
        else:
            raise ValueError("unknown constructor %r" % name)
        expect(")")
        return node

    node = expr()
    skip()
    if pos != len(text):
        raise ValueError("trailing input in %r" % text)
    return node


def _convolve(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def cell_profile(node):
    """{dimension k: signed count of A(k) cells}, or None with a curve."""
    kind = node[0]
    if kind == "point":
        return {0: 1}
    if kind == "A":
        return {node[1]: 1}
    if kind == "P":
        return {k: 1 for k in range(node[1] + 1)}
    if kind == "Gm":
        d = node[1]
        return {k: (-1) ** (d - k) * math.comb(d, k) for k in range(d + 1)}
    if kind == "Curve":
        return {0: 1, 1: 1} if node[1] == 0 else None
    if kind in ("Prod", "Disj"):
        a, b = cell_profile(node[1]), cell_profile(node[2])
        if a is None or b is None:
            return None
        if kind == "Prod":
            return _convolve(a, b)
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}
    base = cell_profile(node[1])
    if base is None:
        return None
    if kind == "VB":
        return {k + node[2]: v for k, v in base.items()}
    return _convolve(base, {k: 1 for k in range(node[2] + 1)})


def pade_degree(profile, q):
    """Minimal diagonal Pade degree of prod (1 - q^k t)^(-a_k): equal factor
    values cancel, and the diagonal must hold both numerator and
    denominator."""
    net = {}
    for k, a in profile.items():
        v = q ** k
        if v:
            net[v] = net.get(v, 0) + a
    return max(sum(a for a in net.values() if a > 0),
               -sum(a for a in net.values() if a < 0))


def curve_families(node):
    """Positive-genus curve nodes in reading order."""
    out = []

    def walk(x):
        if x[0] == "Curve" and x[1] >= 1:
            out.append(x)
        elif x[0] in ("Prod", "Disj"):
            walk(x[1])
            walk(x[2])
        elif x[0] in ("VB", "PB"):
            walk(x[1])

    walk(node)
    return out


def _family(index, genus):
    if index == 1:
        return "J", ["c%d" % i for i in range(1, 2 * genus)]
    return "J%d" % index, ["c%d_%d" % (index, i) for i in range(1, 2 * genus)]


def zeta_values(node, n, point, increment="J"):
    """Zeta series of an expression to n terms with every symbol replaced by
    its integer value in point (L, J, c1, ...).  Curves of genus g >= 1 use
    free classes c1..c_{2g-1} and the stable recursion
    c[m] = c[m-1] + S L^(m-g) for m >= 2g, S = J or c1."""
    L = point["L"]
    # each curve occurrence gets its own symbol family, numbered in
    # reading order, as the program numbers them
    numbering = {id(c): idx for idx, c in enumerate(curve_families(node), start=1)}

    def curve(x):
        g = x[1]
        jac, cs = _family(numbering[id(x)], g)
        step = point[jac] if increment == "J" else point[cs[0]]
        vals = [1]
        for m in range(1, n):
            if m <= 2 * g - 1:
                vals.append(point[cs[m - 1]])
            else:
                vals.append(vals[-1] + step * L ** (m - g))
        return vals

    def z(x):
        kind = x[0]
        prof = cell_profile(x)
        if kind == "Curve" and x[1] >= 1:
            return curve(x)
        if prof is not None:
            return factor_product(prof, L, n)
        if kind == "Disj":
            return s_mul(z(x[1]), z(x[2]), n)
        if kind == "VB":
            return s_scale(z(x[1]), L ** x[2], n)
        if kind == "PB":
            base = z(x[1])
            out = [1] + [0] * (n - 1)
            for k in range(x[2] + 1):
                out = s_mul(out, s_scale(base, L ** k, n), n)
            return out
        # Prod with exactly one cell-built side
        left, right = cell_profile(x[1]), cell_profile(x[2])
        if left is None and right is None:
            raise ValueError("no closed form for a product of two curves")
        prof, other = (left, x[2]) if left is not None else (right, x[1])
        base = z(other)
        out = [1] + [0] * (n - 1)
        for k, a in sorted(prof.items()):
            out = s_mul(out, s_pow(s_scale(base, L ** k, n), a, n), n)
        return out

    return z(node)


def no_closed_form(node):
    """Whether some product in the expression has two curve-bearing sides."""
    kind = node[0]
    if kind == "Prod":
        if cell_profile(node[1]) is None and cell_profile(node[2]) is None:
            return True
        return no_closed_form(node[1]) or no_closed_form(node[2])
    if kind == "Disj":
        return no_closed_form(node[1]) or no_closed_form(node[2])
    if kind in ("VB", "PB"):
        return no_closed_form(node[1])
    return False


# ----------------------------------------------------------- linear algebra


def det(rows):
    """Exact determinant by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return sign * out


def hankel_det(a, m, i):
    return det([[a[i + r + c] for c in range(m + 1)] for r in range(m + 1)])


# ------------------------------------------------------------- root algebra


def esym(k, xs):
    """e_k of a list of ints."""
    partial = [1] + [0] * k
    for x in xs:
        for j in range(k, 0, -1):
            partial[j] += x * partial[j - 1]
    return partial[k]


def root_series(roots, n):
    """prod (1 + r t) to n terms."""
    return [esym(k, roots) for k in range(n)]


def subset_products(roots, k):
    out = []
    for combo in itertools.combinations(roots, k):
        p = 1
        for r in combo:
            p *= r
        out.append(p)
    return out


def complete_series(roots, n):
    """prod 1/(1 - r t) to n terms."""
    out = [1] + [0] * (n - 1)
    for r in roots:
        out = s_mul(out, [r ** i for i in range(n)], n)
    return out


# -------------------------------------------------- ghost coordinates over Q


def power_sums(e, upto):
    """Root power sums p_1..p_upto of 1 + e_1 t + ... (Newton)."""
    p = []
    for k in range(1, upto + 1):
        acc = Fraction((-1) ** (k - 1) * k) * e[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i - 1]
        p.append(acc)
    return p


def from_power_sums(p, n):
    e = [Fraction(1)]
    for k in range(1, n):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)
    return e


def witt_lambda_values(k, e):
    """k-th exterior power of 1 + e_1 t + ... over Q, at its full supported
    precision (len(e) - 1) // k + 1."""
    n = (len(e) - 1) // k + 1
    if k == 1:
        return [Fraction(x) for x in e[:n]]
    p = power_sums(e, k * (n - 1))
    ghost = [from_power_sums([p[j * r - 1] for j in range(1, k + 1)], k + 1)[k]
             for r in range(1, n)]
    return from_power_sums(ghost, n)


# ----------------------------------------------------------------- checks


def _fail_if(cond, message):
    return message if cond else None


def _points(names, rng, count=2):
    pts = []
    for _ in range(count):
        pt = {v: rng.randint(-3, 3) for v in names}
        pt["L"] = rng.randint(2, 4)
        pts.append(pt)
    return pts


def check_zeta(out, job):
    """zeta output against the structural series at random integer points,
    and the closed form den * f == num mod t^n."""
    node = parse(job["expr"])
    series = out["series"]
    n = len(series["coeffs"])
    if n != job["terms"]:
        return "expected %d coefficients, got %d" % (job["terms"], n)
    names = list(series["ring"].get("vars", ["L"]))
    rng = random.Random(job["id"])
    for pt in _points(names, rng):
        want = zeta_values(node, n, pt, job.get("increment", "J"))
        got = series_values(series, pt)
        if got != want:
            return "series differs from the oracle at %s" % pt
        rat = out.get("rational")
        if job.get("rational"):
            if rat is None:
                return "closed form missing"
            num = [eval_elem(rat["ring"], c, pt) for c in rat["num"]]
            den = [eval_elem(rat["ring"], c, pt) for c in rat["den"]]
            if den[0] != 1 or s_mul(den, want, n) != (num + [0] * n)[:n]:
                return "closed form fails den * f == num at %s" % pt
    spec = job.get("specialize")
    if spec is not None:
        prof = cell_profile(node)
        want = factor_product(prof, spec, n)
        s = out["specialized"]["series"]
        got = series_values(s, {})
        if got != want:
            return "specialized series differs from prod (1 - q^k t)^(-a_k)"
    return None


def check_hankel(out, job, series):
    """Each determinant equals the exact Fraction determinant of the
    oracle series at a point; the window agrees with the zero pattern."""
    m_max, off = job["m_max"], job["offset_max"]
    grid = out["determinants"]
    if len(grid) != m_max + 1 or any(len(r) != off + 1 for r in grid):
        return "determinant grid has the wrong shape"
    ring = out["ring"]
    names = ring.get("vars", []) if ring["kind"] == "poly" else []
    rng = random.Random(job["id"])
    for pt in _points(names, rng, 1):
        a = series(pt)
        for m in range(m_max + 1):
            for i in range(off + 1):
                if eval_elem(ring, grid[m][i], pt) != hankel_det(a, m, i):
                    return "determinant m=%d i=%d differs at %s" % (m, i, pt)
    zero = [[_is_zero(ring, d) for d in row] for row in grid]
    for m in range(m_max + 1):
        nonzero = [i for i in range(off + 1) if not zero[m][i]]
        last = nonzero[-1] if nonzero else -1
        want = None if last >= off else max(last, 0)
        if out["per_m"][m]["n"] != want:
            return "window for m=%d disagrees with the determinants" % m
    return None


def _is_zero(ring, obj):
    if ring["kind"] == "fraction":
        return not poly_terms(obj["num"])
    return not poly_terms(obj)


def check_pade(out, job, f):
    """Success: den(0) = 1, degrees within bound, den * f == num mod t^n.
    Expected failure: success false with a reason."""
    d = job["den_deg"]
    if out.get("den_deg") != d:
        return "den_deg echoed wrongly"
    if not job["must_succeed"]:
        if out.get("success") is not False or not out.get("reason"):
            return "degree %d must fail with a reason" % d
        return None
    if out.get("success") is not True:
        return "degree %d must succeed: %s" % (d, out.get("reason"))
    ring = {"kind": "fraction"}
    num = [eval_elem(ring, c, {}) for c in out["num"]]
    den = [eval_elem(ring, c, {}) for c in out["den"]]
    if den[0] != 1:
        return "den(0) != 1"
    if len(num) - 1 > d or len(den) - 1 > d:
        return "degree bound exceeded"
    n = len(f)
    prod = [sum(den[j] * f[k - j] for j in range(min(k, len(den) - 1) + 1))
            for k in range(n)]
    if prod != (num + [0] * n)[:n]:
        return "den * f != num mod t^%d" % n
    return None


def check_witt_mul(out, job):
    a, b = job["roots"]
    n = job["precision"]
    want = root_series([x * y for x in a for y in b], n)
    return _fail_if(series_values(out, {}) != want, "Witt product differs from root products")


def check_lambda(out, job):
    roots, k = job["roots"][0], job["k"]
    n = (job["precision"] - 1) // k + 1
    want = root_series(subset_products(roots, k), n)
    return _fail_if(series_values(out, {}) != want, "lambda^%d differs from subset products" % k)


def check_psi(out, job):
    roots, k = job["roots"][0], job["k"]
    got = eval_poly(out["value"], {})
    return _fail_if(out.get("psi") != k or got != sum(r ** k for r in roots),
                    "psi^%d differs from the power sum" % k)


def check_sigma(out, job):
    roots = job["roots"][0]
    n = job["precision"]
    want = complete_series(roots, n)
    return _fail_if(series_values(out, {}) != want, "sigma differs from complete sums")


def check_universal(poly, job):
    """Universal polynomial at elementary symmetric values of random integer
    roots and at binomial points (r roots equal to 1).  Root counts reach
    the largest index, so every monomial of the polynomial has a nonzero
    value at the binomial points."""
    which, n, m = job["which"], job["n"], job.get("m")
    rng = random.Random(job["id"])
    pre = ("x", "y") if which == "witt" else ("e", "f")
    top = n * (m or 1)
    for trial in range(4):
        if trial < 2:
            a = [rng.choice((-2, -1, 1, 2)) for _ in range(top + rng.randint(0, 2))]
            b = [rng.choice((-2, -1, 1, 2)) for _ in range(top + rng.randint(0, 2))]
        else:
            a = [1] * (top + rng.randint(0, 3))
            b = [1] * (top + rng.randint(0, 3))
        point = {}
        for i in range(1, top + 1):
            point["%s%d" % (pre[0], i)] = esym(i, a)
            point["%s%d" % (pre[1], i)] = esym(i, b)
        got = eval_poly(poly, point)
        if which in ("P", "witt"):
            want = esym(n, [x * y for x in a for y in b])
        elif which == "Q":
            want = esym(m, subset_products(a, n))
        else:
            want = sum(x ** n for x in a)
        if got != want:
            return "%s polynomial wrong at roots %s / %s" % (which, a, b)
    return None


def check_additivity(out, job):
    """lambda^n(f g) at L = q from ghost coordinates over Q; both the
    direct side and the expanded side must match it."""
    rng = random.Random(job["id"])
    q = rng.randint(2, 5)
    f = series_values(job["f"], {"L": q})
    g = series_values(job["g"], {"L": q})
    total = s_mul(f, g, len(f))
    for idx, n in enumerate(job["ns"]):
        want = witt_lambda_values(n, total)
        for side in ("lhs", "rhs"):
            got = series_values(out[side][idx], {"L": q})
            if got != want:
                return "lambda^%d %s differs from ghost oracle" % (n, side)
    return None


def check_special(out, job):
    want = job["nmax"]
    return _fail_if(out.get("all_hold") is not True or out.get("entries") != want,
                    "product identities must all hold")


def graded_lambda_dims(m, dims):
    """Coefficients of lambda^m of a graded space with the given dimensions
    (symmetric powers in even degree, exterior in odd) by enumerating how m
    factors spread over the degrees."""
    out = {}

    def walk(pos, left, s, coeff):
        if pos == len(dims):
            if left == 0 and coeff:
                out[s] = out.get(s, 0) + coeff
            return
        for take in range(left + 1):
            d = dims[pos]
            c = math.comb(d, take) if pos % 2 else math.comb(d + take - 1, take) if d else int(take == 0)
            if c:
                walk(pos + 1, left - take, s + pos * take, coeff * c)

    walk(0, m, 0, 1)
    top = max(out) if out else 0
    return [out.get(j, 0) for j in range(top + 1)]


def check_measure(out, job):
    entries = out["sequence"]["entries"]
    if len(entries) != job["sym_max"] + 1:
        return "expected %d entries" % (job["sym_max"] + 1)
    dims = [1, job["q"], job["pg"]]
    for m, entry in enumerate(entries):
        terms = poly_terms(entry)
        top = max((dict(k).get("s", 0) for k in terms), default=0)
        got = [terms.get((("s", j),) if j else (), 0) for j in range(top + 1)]
        if got != graded_lambda_dims(m, dims):
            return "measure entry %d differs from the multiset expansion" % m
    return None


def check(job, out):
    """Apply the job's oracle to its parsed JSON output."""
    kind = job["check"]
    if kind == "zeta":
        return check_zeta(out, job)
    if kind == "no_closed_form":
        return _fail_if(out.get("error", {}).get("error") != "no_closed_form",
                        "expected a no_closed_form error")
    if kind == "hankel_symbolic":
        node = parse(job["expr"])
        return check_hankel(out, job, lambda pt: zeta_values(
            node, job["terms"], pt, job.get("increment", "J")))
    if kind in ("hankel_q", "pade"):
        f = factor_product(cell_profile(parse(job["expr"])), job["q"], job["terms"])
        if kind == "pade":
            return check_pade(out, job, f)
        return check_hankel(out, job, lambda pt: f)
    if kind == "universal":
        return check_universal(out.get("poly", out), job)
    return CHECKS[kind](out, job)


CHECKS = {
    "witt-mul": check_witt_mul,
    "lambda": check_lambda,
    "psi": check_psi,
    "sigma": check_sigma,
    "additivity": check_additivity,
    "special": check_special,
    "measure": check_measure,
}
