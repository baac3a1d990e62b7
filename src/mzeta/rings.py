"""Exact coefficient rings.

Four ring kinds, all with decidable equality and arbitrary-precision integer
coefficients:

  * IntegerRing          -- Z
  * PolynomialRing       -- Z[vars], sparse multivariate
  * SquareZeroRing       -- Z[vars] / (v^2 : v in vars), reduction is eager
  * FractionField        -- Frac of Z or Z[vars], no gcd auto-normalization

Elements are plain values (MultiPoly, FractionElem) and the ring objects own
the arithmetic.  Ring holds the MultiPoly arithmetic once; subclasses define
membership (validate), and FractionField overrides it with fraction rules.
A SquareZeroRing may be given an explicit variable list or a prefix, in which
case variables prefix1, prefix2, ... exist on demand.

JSON encodings round-trip bit-exactly:

  polynomial  {"terms": [{"c": "<decimal int>", "e": {"<var>": <exp>, ...}}, ...]}
  fraction    {"num": <poly>, "den": <poly>}
  ring        {"kind": "integers"} | {"kind": "poly", "vars": [...]}
              | {"kind": "square_zero", "vars": [...] } | {"kind": "square_zero", "prefix": "x"}
              | {"kind": "fraction", "of": <ring>}
"""

from __future__ import annotations

import re

from .errors import (
    ExactDivisionError,
    InvalidElementError,
    InvalidInputError,
    NotInvertibleError,
    RingMismatchError,
)

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _natural_key(name):
    """Sort key splitting digit runs, so c2 < c10 and J < J2."""
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts if p != "")


class MultiPoly:
    """Sparse multivariate polynomial over Z.

    Terms are stored as a dict mapping a monomial key, a sorted tuple of
    (variable, exponent) pairs with exponent >= 1, to a nonzero integer
    coefficient. Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff == 0:
                    continue
                key = tuple(sorted((v, e) for v, e in key if e != 0))
                for v, e in key:
                    if e < 0:
                        raise InvalidElementError("negative exponent on %r" % v)
                clean[key] = clean.get(key, 0) + coeff
                if clean[key] == 0:
                    del clean[key]
        self.terms = clean

    @classmethod
    def const(cls, c):
        p = cls.__new__(cls)
        p.terms = {(): int(c)} if c else {}
        return p

    @classmethod
    def var(cls, name, exp=1, coeff=1):
        if not _VAR_RE.match(name):
            raise InvalidElementError("bad variable name %r" % name)
        p = cls.__new__(cls)
        if coeff == 0 or exp < 0:
            p.terms = {}
        elif exp == 0:
            p.terms = {(): coeff}
        else:
            p.terms = {((name, exp),): coeff}
        return p

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((), 0)

    def as_int(self):
        if any(key for key in self.terms):
            raise InvalidElementError("polynomial is not a constant")
        return self.constant_term()

    def variables(self):
        vs = set()
        for key in self.terms:
            for v, _ in key:
                vs.add(v)
        return vs

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e for _, e in key) for key in self.terms)

    def degree_in(self, var):
        d = 0
        for key in self.terms:
            for v, e in key:
                if v == var and e > d:
                    d = e
        return d

    def coefficient_of(self, var, exp):
        """Collect the coefficient of var**exp as a polynomial in the rest."""
        out = {}
        for key, c in self.terms.items():
            got = 0
            rest = []
            for v, e in key:
                if v == var:
                    got = e
                else:
                    rest.append((v, e))
            if got == exp:
                out[tuple(rest)] = out.get(tuple(rest), 0) + c
        p = MultiPoly.__new__(MultiPoly)
        p.terms = {k: v for k, v in out.items() if v != 0}
        return p

    def add(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    def neg(self):
        p = MultiPoly.__new__(MultiPoly)
        p.terms = {key: -c for key, c in self.terms.items()}
        return p

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        # plain Z[vars] product; quotient rings reduce afterwards
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _mono_mul(k1, k2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    def mul_int(self, n):
        if n == 0:
            return MultiPoly.const(0)
        p = MultiPoly.__new__(MultiPoly)
        p.terms = {key: c * n for key, c in self.terms.items()}
        return p

    def pow(self, n):
        if n < 0:
            raise InvalidElementError("negative power of a polynomial")
        return power(self, n, MultiPoly.mul, MultiPoly.const(1))

    def substitute(self, mapping):
        """Replace variables by MultiPoly (or int) values; others stay."""
        vals = {}
        for v, val in mapping.items():
            vals[v] = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
        out = MultiPoly.const(0)
        for key, c in self.terms.items():
            term = MultiPoly.const(c)
            for v, e in key:
                if v in vals:
                    term = term.mul(vals[v].pow(e))
                else:
                    term = term.mul(MultiPoly.var(v, e))
            out = out.add(term)
        return out

    def divide_int_exact(self, n):
        if n == 0:
            raise ExactDivisionError("division by zero")
        out = {}
        for key, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ExactDivisionError("coefficient %d not divisible by %d" % (c, n))
            out[key] = q
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    __hash__ = None

    def sorted_terms(self):
        """Terms in display order: total degree, then lex on natural var order."""
        if not self.terms:
            return []
        vs = sorted(self.variables(), key=_natural_key)
        index = {v: i for i, v in enumerate(vs)}

        def key(item):
            mono, _ = item
            vec = [0] * len(vs)
            for v, e in mono:
                vec[index[v]] = e
            return (-sum(vec), tuple(-x for x in vec))

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mono, c in self.sorted_terms():
            factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in mono]
            body = "*".join(factors)
            mag = abs(c)
            if body:
                text = body if mag == 1 else "%d*%s" % (mag, body)
            else:
                text = str(mag)
            if not chunks:
                chunks.append(text if c > 0 else "-" + text)
            else:
                chunks.append(("+ " if c > 0 else "- ") + text)
        return " ".join(chunks)

    def __repr__(self):
        return "MultiPoly(%s)" % self


def power(x, n, mul, one):
    """x**n (n >= 0) by repeated squaring; returns one for n == 0 and x
    itself for n == 1, so no product is formed that is not needed."""
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


def _mono_mul(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    d = dict(k1)
    for v, e in k2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def poly_to_json(p):
    out = []
    for mono, c in sorted(p.terms.items()):
        out.append({"c": str(c), "e": {v: e for v, e in mono}})
    return {"terms": out}


def poly_from_json(obj):
    if not isinstance(obj, dict) or "terms" not in obj:
        raise InvalidInputError("expected a polynomial object with 'terms'")
    terms = {}
    for t in obj["terms"]:
        c = int(t["c"])
        mono = tuple(sorted((str(v), int(e)) for v, e in t.get("e", {}).items()))
        terms[mono] = terms.get(mono, 0) + c
    return MultiPoly(terms)


class FractionElem:
    """Unreduced fraction num/den of MultiPoly over an integral domain."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, MultiPoly) or not isinstance(den, MultiPoly):
            raise InvalidElementError("fraction parts must be polynomials")
        if den.is_zero():
            raise InvalidElementError("zero denominator")
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def normalized(self):
        """Display-only normalization: divide out integer content and sign."""
        if self.num.is_zero():
            return FractionElem(MultiPoly.const(0), MultiPoly.const(1))
        import math

        g = 0
        for c in self.num.terms.values():
            g = math.gcd(g, c)
        for c in self.den.terms.values():
            g = math.gcd(g, c)
        num, den = self.num, self.den
        if g > 1:
            num = num.divide_int_exact(g)
            den = den.divide_int_exact(g)
        lead = den.sorted_terms()[0][1]
        if lead < 0:
            num, den = num.neg(), den.neg()
        return FractionElem(num, den)

    def __eq__(self, other):
        if not isinstance(other, FractionElem):
            return NotImplemented
        return self.num.mul(other.den) == other.num.mul(self.den)

    __hash__ = None

    def __str__(self):
        n = self.normalized()
        if n.den == MultiPoly.const(1):
            return str(n.num)
        return "(%s)/(%s)" % (n.num, n.den)

    def __repr__(self):
        return "FractionElem(%s)" % self


def frac_to_json(f):
    return {"num": poly_to_json(f.num), "den": poly_to_json(f.den)}


def frac_from_json(obj):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise InvalidInputError("expected a fraction object with 'num' and 'den'")
    return FractionElem(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


class Ring:
    """Common interface, with the MultiPoly arithmetic; subclasses validate."""

    kind = None
    is_domain = False
    is_field = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return MultiPoly.const(n)

    def add(self, a, b):
        self.validate(a), self.validate(b)
        return a.add(b)

    def neg(self, a):
        self.validate(a)
        return a.neg()

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        self.validate(a), self.validate(b)
        return a.mul(b)

    def mul_int(self, a, n):
        return a.mul_int(n)

    def eq(self, a, b):
        self.validate(a), self.validate(b)
        return a == b

    def is_zero(self, a):
        return a.is_zero()

    def pow(self, a, n):
        if n < 0:
            raise NotInvertibleError("negative ring power")
        self.validate(a)
        return power(a, n, self.mul, self.one())

    def validate(self, a):
        raise NotImplementedError

    def divide_exact(self, a, n):
        """Exact division by a nonzero integer (rings here are torsion-free)."""
        return a.divide_int_exact(n)

    def elem_to_json(self, a):
        return poly_to_json(a)

    def elem_from_json(self, obj):
        a = poly_from_json(obj)
        self.validate(a)
        return a

    def elem_str(self, a):
        return str(a)

    def to_json(self):
        raise NotImplementedError

    def __repr__(self):
        import json

        return "Ring(%s)" % json.dumps(self.to_json(), sort_keys=True)


def _check_var_names(variables):
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise InvalidInputError("duplicate variable names")
    for v in vs:
        if not _VAR_RE.match(v):
            raise InvalidInputError("bad variable name %r" % v)
    return vs


class IntegerRing(Ring):
    kind = "integers"
    is_domain = True

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("integer ring holds polynomial constants")
        if a.variables():
            raise RingMismatchError("element %s has variables, ring is Z" % a)

    def invert(self, a):
        c = a.as_int()
        if c in (1, -1):
            return a
        raise NotInvertibleError("%d is not a unit in Z" % c)

    def exact_div(self, a, b):
        q, r = divmod(a.as_int(), b.as_int())
        if r:
            raise ExactDivisionError("inexact integer division")
        return MultiPoly.const(q)

    def to_json(self):
        return {"kind": "integers"}

    def __eq__(self, other):
        return isinstance(other, IntegerRing)


class PolynomialRing(Ring):
    kind = "poly"
    is_domain = True

    def __init__(self, variables):
        self.variables = _check_var_names(variables)
        self._varset = set(self.variables)

    def var(self, name):
        if name not in self._varset:
            raise RingMismatchError("variable %r is not in this ring" % name)
        return MultiPoly.var(name)

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("expected a polynomial element")
        extra = a.variables() - self._varset
        if extra:
            raise RingMismatchError("variables %s not in ring %s" % (sorted(extra), list(self.variables)))

    def invert(self, a):
        self.validate(a)
        if a == MultiPoly.const(1) or a == MultiPoly.const(-1):
            return a
        raise NotInvertibleError("only +-1 are units in a polynomial ring over Z")

    def exact_div(self, a, b):
        return poly_exact_div(a, b)

    def to_json(self):
        return {"kind": "poly", "vars": list(self.variables)}

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and self.variables == other.variables


def poly_exact_div(a, b):
    """Exact multivariate division a / b over Z[vars]; raises if inexact.

    Leading-term elimination in lex order on exponent vectors; valid because
    Z[vars] is an integral domain, so when b divides a the lex-leading terms
    divide stepwise and the leading monomial of the remainder strictly drops.
    """
    if b.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    vars_all = sorted(a.variables() | b.variables())

    def vec(key):
        d = dict(key)
        return tuple(d.get(v, 0) for v in vars_all)

    bkey = max(b.terms, key=vec)
    bvec = vec(bkey)
    blead = b.terms[bkey]
    quot = {}
    rem = a
    while not rem.is_zero():
        rkey = max(rem.terms, key=vec)
        rvec = vec(rkey)
        rc = rem.terms[rkey]
        diff = tuple(x - y for x, y in zip(rvec, bvec))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("polynomial division is not exact")
        q, r = divmod(rc, blead)
        if r:
            raise ExactDivisionError("polynomial division is not exact")
        key = tuple((v, e) for v, e in zip(vars_all, diff) if e)
        quot[key] = quot.get(key, 0) + q
        t = MultiPoly.__new__(MultiPoly)
        t.terms = {key: q}
        rem = rem.sub(t.mul(b))
    return MultiPoly(quot)


class SquareZeroRing(Ring):
    """Z[vars]/(v^2 for each v); elements stay square-free (eager reduction).

    With prefix given instead of a variable list, the ring has countably many
    variables prefix1, prefix2, ... available on demand.
    """

    kind = "square_zero"
    is_domain = False

    def __init__(self, variables=None, prefix=None):
        if (variables is None) == (prefix is None):
            raise InvalidInputError("give either a variable list or a prefix")
        if prefix is not None and not _VAR_RE.match(prefix):
            raise InvalidInputError("bad variable prefix %r" % prefix)
        self.prefix = prefix
        if variables is not None:
            self.variables = _check_var_names(variables)
            self._varset = set(self.variables)
        else:
            self.variables = None
            self._varset = None
            self._prefix_re = re.compile(re.escape(prefix) + r"[1-9][0-9]*\Z")

    def _valid_var(self, v):
        if self._varset is not None:
            return v in self._varset
        return bool(self._prefix_re.match(v))

    def var(self, name):
        if not self._valid_var(name):
            raise RingMismatchError("variable %r is not in this ring" % name)
        return MultiPoly.var(name)

    def var_by_index(self, i):
        if self.prefix is None:
            raise InvalidInputError("ring has a fixed variable list")
        if i < 1:
            raise InvalidInputError("variable index must be >= 1")
        return MultiPoly.var("%s%d" % (self.prefix, i))

    def reduce(self, a):
        out = {}
        for key, c in a.terms.items():
            if any(e >= 2 for _, e in key):
                continue
            out[key] = c
        p = MultiPoly.__new__(MultiPoly)
        p.terms = out
        return p

    def mul(self, a, b):
        self.validate(a), self.validate(b)
        return self.reduce(a.mul(b))

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("expected a polynomial element")
        for key in a.terms:
            for v, e in key:
                if not self._valid_var(v):
                    raise RingMismatchError("variable %r is not in this ring" % v)
                if e >= 2:
                    raise InvalidElementError("unreduced square %s^%d" % (v, e))

    def invert(self, a):
        """Invert c + n with c = +-1 and n nilpotent, by a finite geometric sum."""
        self.validate(a)
        c = a.constant_term()
        if c not in (1, -1):
            raise NotInvertibleError("constant term %d is not a unit in Z" % c)
        n = a.sub(MultiPoly.const(c))
        out = MultiPoly.const(0)
        power = MultiPoly.const(1)
        sign = 1
        while not power.is_zero():
            out = out.add(power.mul_int(sign * c))
            power = self.reduce(power.mul(n).mul_int(c))
            sign = -sign
        return out

    def to_json(self):
        if self.prefix is not None:
            return {"kind": "square_zero", "prefix": self.prefix}
        return {"kind": "square_zero", "vars": list(self.variables)}

    def __eq__(self, other):
        return (
            isinstance(other, SquareZeroRing)
            and self.prefix == other.prefix
            and self.variables == other.variables
        )


class FractionField(Ring):
    """Field of fractions of Z or Z[vars]; equality by cross-multiplication."""

    kind = "fraction"
    is_domain = True
    is_field = True

    def __init__(self, base):
        if not isinstance(base, (IntegerRing, PolynomialRing)):
            raise InvalidInputError("fraction field needs an integral domain base")
        self.base = base

    def from_int(self, n):
        return FractionElem(MultiPoly.const(n), MultiPoly.const(1))

    def from_base(self, p):
        self.base.validate(p)
        return FractionElem(p, MultiPoly.const(1))

    def add(self, a, b):
        self.validate(a), self.validate(b)
        return FractionElem(a.num.mul(b.den).add(b.num.mul(a.den)), a.den.mul(b.den))

    def neg(self, a):
        self.validate(a)
        return FractionElem(a.num.neg(), a.den)

    def mul(self, a, b):
        self.validate(a), self.validate(b)
        return FractionElem(a.num.mul(b.num), a.den.mul(b.den))

    def mul_int(self, a, n):
        return FractionElem(a.num.mul_int(n), a.den)

    def eq(self, a, b):
        self.validate(a), self.validate(b)
        return a == b

    def is_zero(self, a):
        return a.num.is_zero()

    def validate(self, a):
        if not isinstance(a, FractionElem):
            raise RingMismatchError("expected a fraction element")
        self.base.validate(a.num)
        self.base.validate(a.den)

    def invert(self, a):
        self.validate(a)
        if a.num.is_zero():
            raise NotInvertibleError("division by zero")
        return FractionElem(a.den, a.num)

    def div(self, a, b):
        return self.mul(a, self.invert(b))

    exact_div = div

    def divide_exact(self, a, n):
        if n == 0:
            raise ExactDivisionError("division by zero")
        return FractionElem(a.num, a.den.mul_int(n))

    def elem_to_json(self, a):
        return frac_to_json(a)

    def elem_from_json(self, obj):
        a = frac_from_json(obj)
        self.validate(a)
        return a

    def to_json(self):
        return {"kind": "fraction", "of": self.base.to_json()}

    def __eq__(self, other):
        return isinstance(other, FractionField) and self.base == other.base


def ring_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("expected a ring object with 'kind'")
    kind = obj["kind"]
    if kind == "integers":
        return IntegerRing()
    if kind == "poly":
        return PolynomialRing([str(v) for v in obj.get("vars", [])])
    if kind == "square_zero":
        if "prefix" in obj:
            return SquareZeroRing(prefix=str(obj["prefix"]))
        return SquareZeroRing([str(v) for v in obj.get("vars", [])])
    if kind == "fraction":
        return FractionField(ring_from_json(obj.get("of", {})))
    raise InvalidInputError("unknown ring kind %r" % kind)


def eval_poly(expr, mapping, ops):
    """Evaluate a MultiPoly by substituting ring (or rule) elements.

    ops must provide from_int, add, mul, and pow-compatible mul; used for
    universal polynomial evaluation over rings, Witt rings, and lambda rules.
    """
    total = ops.from_int(0)
    for mono, c in sorted(expr.terms.items()):
        term = ops.from_int(c)
        for v, e in mono:
            if v not in mapping:
                raise InvalidInputError("no value supplied for %r" % v)
            val = mapping[v]
            # one factor at a time, not power(): a Witt-ring product costs
            # more as its operands grow, and squaring val first grows them
            for _ in range(e):
                term = ops.mul(term, val)
        total = ops.add(total, term)
    return total
