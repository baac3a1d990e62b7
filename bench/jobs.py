"""Seeded job lists for the three benchmark workloads.

A job list is plain JSON: the program only ever sees the argv and input
files written from it.  Each workload mixes shapes on purpose (see
WORKLOADS in run.py for why each exists), and each shape is sized to a
per-job time budget measured once on this program, so that the batch cost
stays comparable from seed to seed while the seed still picks the
expressions, sizes, roots and job order.

Job fields:
  id           unique name, also seeds the oracle's sample points
  kind         "cli" (argv for mzeta.cli.run) or a library call name
  argv         for "cli"; "@name" stands for the input file called name
  expect_exit  exit code the CLI must return
  check        oracle to apply (see worker.check_job)
  save         {"name", "path"}: store part of the JSON output as a file
               that later jobs read
"""

import random

from oracles import cell_profile, pade_degree, parse, root_series

def _int_elem(c):
    return {"terms": [{"c": str(c), "e": {}}] if c else []}


def int_series(values):
    return {
        "ring": {"kind": "integers"},
        "precision": len(values),
        "coeffs": [_int_elem(c) for c in values],
    }


def l_series(polys):
    """Series over Z[L]; each coefficient is a list of ints by L-degree."""
    coeffs = []
    for p in polys:
        terms = [{"c": str(c), "e": ({"L": d} if d else {})} for d, c in enumerate(p) if c]
        coeffs.append({"terms": terms})
    return {"ring": {"kind": "poly", "vars": ["L"]}, "precision": len(polys), "coeffs": coeffs}


class _Batch:
    def __init__(self, prefix):
        self.prefix = prefix
        self.jobs = []
        self.files = {}
        self.groups = []

    def job(self, **fields):
        fields["id"] = "%s%03d" % (self.prefix, len(self.jobs))
        self.jobs.append(fields)
        return fields

    def group(self, jobs):
        """Jobs that must stay adjacent and in order (a pipeline)."""
        self.groups.append(jobs)

    def finish(self, rng, workload, seed):
        rng.shuffle(self.groups)
        ordered = [j for g in self.groups for j in g]
        assert len(ordered) == len(self.jobs)
        return {"workload": workload, "seed": seed, "files": self.files, "jobs": ordered}


# ------------------------------------------------------------ zeta_symbolic

# Batch cost must stay put from seed to seed, so every shape has a fixed
# size and the seed only changes what does not change the work:
#  - the cell side of a product with a curve is a random grammar
#    expression with a fixed cell profile (the program only reads its
#    profile there);
#  - a cell-built expression gets random cost-neutral rewrites: point, A(0),
#    P(0) and Gm(0) are interchangeable, as are P(1) and Curve(0), and the
#    operands of Disj commute;
#  - argument order of products with curves, curve increments, the roots
#    and coefficients of Witt elements, and job order.


_UNITS = (("point",), ("A", 0), ("P", 0), ("Gm", 0))
_LINES = (("P", 1), ("Curve", 0))


def _unparse(node):
    if len(node) == 1:
        return node[0]
    if node[0] in ("Prod", "Disj"):
        return "%s(%s,%s)" % (node[0], _unparse(node[1]), _unparse(node[2]))
    if node[0] in ("VB", "PB"):
        return "%s(%s,%d)" % (node[0], _unparse(node[1]), node[2])
    return "%s(%d)" % node


def _profile_key(text):
    return tuple(sorted(cell_profile(parse(text)).items()))


def _cell_tree(rng, depth):
    leaves = ["point", "A(%d)", "P(%d)", "Gm(%d)", "Curve(0)"]
    if depth > 0 and rng.random() < 0.7:
        op = rng.choice(["Prod", "Disj", "VB", "PB"])
        if op in ("Prod", "Disj"):
            return "%s(%s,%s)" % (op, _cell_tree(rng, depth - 1), _cell_tree(rng, depth - 1))
        return "%s(%s,%d)" % (op, _cell_tree(rng, depth - 1), rng.randint(1, 2))
    leaf = rng.choice(leaves)
    return leaf % rng.randint(1, 3) if "%" in leaf else leaf


class _Syntax:
    """Random grammar expressions bucketed by cell profile."""

    def __init__(self, rng, draws=3000):
        self.rng = rng
        self.pool = {}
        for _ in range(draws):
            text = _cell_tree(rng, 2)
            if cell_profile(parse(text)):
                self.pool.setdefault(_profile_key(text), set()).add(text)

    def like(self, text):
        """A random expression with the same cell profile as text."""
        options = sorted(self.pool.get(_profile_key(text), set()) | {text})
        return self.rng.choice(options)

    def neutral(self, text):
        """text after random cost-neutral rewrites."""
        return _unparse(self._rewrite(parse(text)))

    def _rewrite(self, node):
        rng = self.rng
        if node in _UNITS:
            return rng.choice(_UNITS)
        if node in _LINES:
            return rng.choice(_LINES)
        if node[0] in ("Prod", "Disj"):
            a, b = self._rewrite(node[1]), self._rewrite(node[2])
            if node[0] == "Disj" and rng.random() < 0.5:
                a, b = b, a
            return (node[0], a, b)
        if node[0] in ("VB", "PB"):
            return (node[0], self._rewrite(node[1]), node[2])
        return node

    def pair(self, fmt, a, b):
        """fmt % (a, b) or fmt % (b, a), for commutative constructors."""
        return fmt % ((a, b) if self.rng.random() < 0.5 else (b, a))


def _zeta_shapes(syn):
    """(expr, terms, hankel order m, curve increment) per shape.  m is the
    lever on cost: Hankel grids on many-symbol series grow about 10x per
    order, so heavier shapes get a smaller m rather than being dropped."""
    rng = syn.rng
    P = syn.pair
    cells = syn.like
    shapes = [("Curve(%d)" % g, 24, 4, rng.choice("JX")) for g in (1, 2, 3, 4)]
    shapes += [
        ("VB(Curve(2),1)", 20, 4, "J"),
        ("VB(Curve(3),2)", 20, 4, "J"),
        (P("Prod(%s,%s)", cells("A(1)"), "Curve(3)"), 16, 4, "J"),
        (P("Prod(%s,%s)", cells("P(1)"), "Curve(1)"), 14, 3, "J"),
        (P("Prod(%s,%s)", cells("P(1)"), "Curve(2)"), 14, 3, "J"),
        ("PB(Curve(1),1)", 12, 3, "J"),
        ("PB(Curve(2),1)", 12, 3, "J"),
        ("Disj(Curve(1),Curve(1))", 12, 3, "J"),
        (P("Disj(%s,%s)", "Curve(1)", "Curve(2)"), 12, 3, "J"),
        (P("Disj(%s,%s)", "Curve(2)", syn.neutral("P(1)")), 14, 3, "J"),
        ("VB(%s,1)" % P("Prod(%s,%s)", cells("P(1)"), "Curve(1)"), 12, 3, "J"),
        (P("Prod(%s,%s)", cells("Gm(1)"), "Curve(1)"), 10, 2, "J"),
        (P("Prod(%s,%s)", cells("Gm(1)"), "Curve(2)"), 10, 2, "J"),
        ("PB(Curve(1),2)", 10, 2, "J"),
        (P("Prod(%s,%s)", cells("Gm(2)"), "Curve(1)"), 9, 2, "J"),
        (P("Prod(%s,%s)", cells("Prod(P(1),P(1))"), "Curve(1)"), 10, 2, "J"),
        (P("Disj(%s,%s)", P("Prod(%s,%s)", cells("A(1)"), "Curve(1)"), "Curve(2)"), 10, 2, "J"),
    ]
    for text, terms, m in (("P(2)", 18, 4), ("P(3)", 16, 4), ("Gm(2)", 14, 4), ("Gm(3)", 14, 4),
                           ("Prod(P(1),P(2))", 14, 3), ("Disj(Gm(2),PB(A(1),2))", 14, 3),
                           ("Prod(P(1),Gm(2))", 14, 3), ("Disj(P(2),A(3))", 14, 3)):
        shapes.append((syn.neutral(text), terms, m, "J"))
    return shapes


def zeta_symbolic(seed):
    rng = random.Random("zeta_symbolic:%d" % seed)
    syn = _Syntax(rng)
    b = _Batch("z")
    for expr, terms, m, inc in _zeta_shapes(syn):
        name = "z%d.json" % len(b.groups)
        argv = ["zeta", expr, "--terms", str(terms), "--rational", "--format", "json"]
        if inc != "J":
            argv[5:5] = ["--curve-increment", inc]
        z = b.job(kind="cli", argv=argv, expect_exit=0, check="zeta", expr=expr,
                  terms=terms, rational=True, increment=inc,
                  save={"name": name, "path": ["series"]})
        h = b.job(kind="cli", argv=["hankel", "@" + name, "--m-max", str(m),
                                    "--offset-max", "2", "--format", "json"],
                  expect_exit=0, check="hankel_symbolic", expr=expr, terms=terms,
                  increment=inc, m_max=m, offset_max=2)
        b.group([z, h])
    # products of two positive-genus curves have no closed form: exit 1
    for fmt in ("%s", "Disj(%%s,%s)" % syn.neutral("P(1)"), "PB(%s,1)"):
        expr = fmt % syn.pair("Prod(%s,%s)", "Curve(1)", "Curve(%d)" % rng.randint(1, 3))
        b.group([b.job(kind="cli", argv=["zeta", expr, "--terms", "8", "--rational",
                                         "--format", "json"],
                       expect_exit=1, check="no_closed_form", expr=expr)])
    return b.finish(rng, "zeta_symbolic", seed)


# ------------------------------------------------------ specialize_rational

# One cell-built expression per entry, with its minimal Pade degree d (1 to
# 6).
# Pade cost grows steeply with d (degree 6 costs ~50x degree 4), and at this
# commit degree 6, and degree 5 at L=5, crash writing their answer; both
# stay in the batch and count as failures.
PADE_PROFILES = ("Gm(1)", "P(1)", "P(2)", "Disj(Gm(2),A(2))", "P(3)", "Prod(P(1),P(1))",
                 "P(4)", "Disj(P(2),P(1))", "Prod(P(1),P(2))", "Disj(P(3),P(1))")


def specialize_rational(seed):
    rng = random.Random("specialize_rational:%d" % seed)
    syn = _Syntax(rng)
    b = _Batch("s")
    for text in PADE_PROFILES:
        expr = syn.neutral(text)
        d = pade_degree(cell_profile(parse(expr)), 2)
        terms = 2 * d + 4
        for q in range(2, 6):
            name = "s%d.json" % len(b.groups)
            common = dict(expr=expr, q=q, terms=terms)
            jobs = [b.job(kind="cli", argv=["zeta", expr, "--terms", str(terms), "--specialize",
                                             "L=%d" % q, "--format", "json"],
                          expect_exit=0, check="zeta", specialize=q,
                          save={"name": name, "path": ["specialized", "series"]}, **common)]
            for deg, ok in ((d, True), (d - 1, False)):
                if deg >= 0:
                    jobs.append(b.job(kind="cli", argv=["pade", "@" + name, "--den-deg", str(deg),
                                                        "--format", "json"],
                                      expect_exit=0, check="pade", den_deg=deg,
                                      must_succeed=ok, **common))
            jobs.append(b.job(kind="cli", argv=["hankel", "@" + name, "--m-max", str(d),
                                                "--offset-max", "2", "--format", "json"],
                              expect_exit=0, check="hankel_q", m_max=d, offset_max=2, **common))
            b.group(jobs)
    return b.finish(rng, "specialize_rational", seed)


# ------------------------------------------------------------- witt_symfunc


def _random_l_series(rng, precision, degree=2):
    """Random series over Z[L] with constant term 1.  Coefficients are
    never zero, so every element of a batch has the same number of terms
    and the same cost."""
    out = [[1]]
    for _ in range(precision - 1):
        out.append([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree + 1)])
    return out


def _roots(rng):
    return [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)]


def witt_symfunc(seed):
    rng = random.Random("witt_symfunc:%d" % seed)
    b = _Batch("w")
    # lambda additivity and product identities on random Witt elements over
    # Z[L], the work of the lambda-axiom acceptance check
    for _ in range(8):
        f, g = (l_series(_random_l_series(rng, 16)) for _ in range(2))
        b.group([b.job(kind="additivity", f=f, g=g, ns=[2, 3], check="additivity")])
    for _ in range(8):
        f, g = (l_series(_random_l_series(rng, 6)) for _ in range(2))
        b.group([b.job(kind="special", f=f, g=g, nmax=3, check="special")])
    # lambda-op through the CLI on elements with known integer roots; sizes
    # are fixed, the seed picks the roots and the operation index
    for op in ("witt-mul", "lambda", "psi", "sigma"):
        for _ in range(8):
            precision = 10
            roots = [_roots(rng) for _ in range(2 if op == "witt-mul" else 1)]
            names = []
            for r in roots:
                name = "w%d.json" % len(b.files)
                b.files[name] = int_series(root_series(r, precision))
                names.append("@" + name)
            argv = ["lambda-op", "--op", op]
            k = None
            if op in ("lambda", "psi"):
                k = rng.randint(2, 3) if op == "lambda" else rng.randint(1, precision - 1)
                argv += ["--k", str(k)]
            b.group([b.job(kind="cli", argv=argv + names + ["--format", "json"], expect_exit=0,
                           check=op, roots=roots, precision=precision, k=k)])
    # universal tables through the CLI (ghost path, disk cache) ...
    for which, n, m in (("P", 5, None), ("Q", 2, 3), ("Q", 3, 2), ("newton", 6, None),
                        ("witt", 3, None)):
        argv = ["universal", "--which", which, "--n", str(n), "--format", "json"]
        if m:
            argv[5:5] = ["--m", str(m)]
        b.group([b.job(kind="cli", argv=argv, expect_exit=0, check="universal",
                       which=which, n=n, m=m)])
    # ... and by root expansion plus symmetric elimination.  Sizes are
    # bounded: P_4 with one extra root takes over a second, Q_{4,2} 1.4 s
    # even without one, and the cost of Q_{m,n} explodes past mn = 8
    for n in range(1, 5):
        extra = 0 if n == 4 else 1
        b.group([b.job(kind="p_roots", n=n, extra=extra, check="universal", which="P", m=None)])
    q_pairs = [(1, rng.randint(2, 8)), (rng.randint(2, 8), 1), (2, 2), (2, 3), (3, 2), (2, 4)]
    for m, n in q_pairs:
        extra = 0 if m * n == 8 else 1
        b.group([b.job(kind="q_roots", m=m, n=n, extra=extra, check="universal", which="Q")])
    for _ in range(3):
        q, pg = rng.randint(0, 2), rng.randint(1, 3)
        plurigenera = [pg] + sorted(rng.randint(pg, pg + 4) for _ in range(rng.randint(2, 4)))
        surface = "q=%d,pg=%d,P=%s" % (q, pg, ",".join(map(str, plurigenera)))
        sym_max = 10
        b.group([b.job(kind="cli", argv=["measure", "--surface", surface, "--sym-max", str(sym_max),
                                         "--witness", "--format", "json"],
                       expect_exit=0, check="measure", q=q, pg=pg, sym_max=sym_max)])
    return b.finish(rng, "witt_symfunc", seed)


GENERATORS = {
    "zeta_symbolic": zeta_symbolic,
    "specialize_rational": specialize_rational,
    "witt_symfunc": witt_symfunc,
}
WORKLOAD_NAMES = tuple(GENERATORS)


def generate(workload, seed):
    return GENERATORS[workload](seed)
