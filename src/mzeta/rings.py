"""Exact coefficient rings.

Four ring kinds, all with decidable equality and arbitrary-precision integer
coefficients:

  * IntegerRing          -- Z
  * PolynomialRing       -- Z[vars], sparse multivariate
  * SquareZeroRing       -- Z[vars] / (v^2 : v in vars), reduction is eager
  * FractionField        -- Q, the singleton QQ; elements are fractions.Fraction
                            values, always in lowest terms with a positive
                            denominator (FractionField(IntegerRing()) returns QQ,
                            and no other base is accepted)

Elements are plain values (MultiPoly, Fraction) and the ring objects own the
arithmetic.  Ring holds the MultiPoly arithmetic once; subclasses define
membership (validate), and FractionField overrides it with Fraction rules.
FractionElem, an unreduced quotient of two MultiPolys, is no ring's element:
it holds a group series' coefficients and the periodic-ratio witness's
ratios.  QQ writes its fraction JSON form directly and reads that form
straight into a Fraction (_const_int); any other form goes through
_fraction_parts, the parser of frac_from_json.

Every ring checks membership once, where an element enters: in TruncSeries
construction (which covers every series result and every WittElement built
from a series) and each ring's elem_from_json.  The arithmetic (add, neg,
sub, mul, dot, eq, pow, invert) trusts its operands, so an element of a
foreign ring is rejected where it enters, not by the operation that meets it.
dot(pairs) is the sum of a*b over a list of pairs, gathered into one dict
by the module's one term-product loop; MultiPoly.mul is its one-pair case,
and MultiPoly.substitute is one collect plus one dot.
Over Z, whose elements are constants, dot and mul are one integer sum.

Monomials are packed integers (the packed exponent vectors of Monagan and
Pearce, and FLINT's fmpz_mpoly).  Every MultiPoly carries a layout, an
interned tuple of variable names: field i of each of its keys is a 64-bit
field that holds the exponent of names[i], so the monomial prod v_i^e_i is
the integer sum e_i << 64*i and the product of two monomials is one integer
addition.  A PolynomialRing or SquareZeroRing owns the layout of its own
variable list, and its var, from_int and elem_from_json build elements in
it; in the motivic ring ["L", "J", "c1", ...] the key of L^k is the small
integer k.  A prefix SquareZeroRing's layout grows by one name each time
the ring hands out a variable it has not handed out before.  A value built
outside a ring (MultiPoly(...), MultiPoly.var, poly_from_json) gets the
sorted layout of the names it uses, and MultiPoly.const the empty layout.
So a key is as wide as the fields of its own variables, whatever names the
rest of the process has seen.

Operands that share a layout, tested by identity, run the plain loops, and
a constant on the empty layout fits every layout as it is.  Otherwise two
layouts meet (add, dot, ==) by one rule, _union: in the layout that already
holds the other's names, or else in the first layout's names
followed by the second's new ones.  An operand whose layout is a prefix of
the meeting layout keeps its keys; any other re-packs each key once.  Like
sys.intern, a layout fixes only how a monomial is stored: no value, output
order or error depends on it, because equality compares keys on one layout,
and everything that leaves the process (JSON, str, sorting, error messages)
decodes keys back to names.
A layout lives while a polynomial, ring or memo holds it, so a stream of
fresh names does not pile up layouts in the process.

Keys decode once per polynomial: items(), variables() and poly_to_json find
the fields its keys use from one OR of the keys and read every term through
them.  poly_from_json packs each term as it reads it, checking each name
once per polynomial before any layout learns it; a ring's elem_from_json
packs straight into the ring's layout.  Every path that takes a variable
name from its caller (MultiPoly(...), MultiPoly.var, collect, the keys of a
substitute mapping, JSON) rejects a name that is not [A-Za-z][A-Za-z0-9_]*.

_kronecker, used by hankel_test and by the product checks of
verify_global and MotivicModel.rational_form, maps every operand of a
computation over Z[vars] once through v -> 2^b for one variable v: the
terms that differ only in v become one term with coefficient the integer
sum c 2^(b e).  Results are decoded from balanced base-2^b digits or
compared as images, exactly, since b comes from the caller's bound on
the coefficients it reads (the argument is in _kronecker).  The cell
passes of the zeta series (motivic._cell_series) call its pack and
unpack steps directly, always with v = L, and take b from their own
norm bound.

The top bit of every field is a guard: exponents must stay below 2^63.
Larger ones raise DegreeCutoffError at construction and JSON load, and each
product or dot sum ORs its result keys once to test the guard bits of its
layout.  Two exponents below 2^63 sum to less than 2^64, so a carry never
reaches a neighbouring field before it is caught.

A SquareZeroRing may be given an explicit variable list or a prefix, in which
case variables prefix1, prefix2, ... exist on demand.

JSON encodings round-trip bit-exactly (over QQ, once in lowest terms):

  polynomial  {"terms": [{"c": "<decimal int>", "e": {"<var>": <exp>, ...}}, ...]};
              every <var> must be a variable name and every <exp> lie in
              [0, 2^63), whatever the term's coefficient
  fraction    {"num": <poly>, "den": <poly>}; QQ writes the reduced numerator
              and the positive denominator as constant polynomials
  ring        {"kind": "integers"} | {"kind": "poly", "vars": [...]}
              | {"kind": "square_zero", "vars": [...] } | {"kind": "square_zero", "prefix": "x"}
              | {"kind": "fraction", "of": {"kind": "integers"}}

A report's payload() is its JSON shape with each ring element left as a
value: a MultiPoly or a Fraction, and a FractionElem as {"num": p, "den": q}.
Its to_json() is plain(payload()), which puts the forms above in their place;
the CLI writes payload() itself to the same text, ordering each element's
terms by an integer key that its tests pin to the order _json_terms defines.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
import threading
import weakref
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import (
    DegreeCutoffError,
    ExactDivisionError,
    InvalidElementError,
    InvalidInputError,
    MissingDataError,
    NotInvertibleError,
    RingMismatchError,
)

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+\Z")

_FIELD = 64
_FIELD_MASK = (1 << _FIELD) - 1
_EXP_LIMIT = 1 << (_FIELD - 1)


class _Layout:
    """The field order of packed keys: field i belongs to names[i].

    Layouts are interned by _layout_of: equal live layouts are identical."""

    __slots__ = ("names", "index", "guard", "above_one", "decode", "__weakref__")

    def __init__(self, names):
        self.names = names
        self.index = {v: i for i, v in enumerate(names)}
        # one set bit at the bottom of every field
        low = ((1 << (_FIELD * len(names))) - 1) // _FIELD_MASK
        self.guard = low << (_FIELD - 1)
        # the bits of every exponent >= 2
        self.above_one = low * (_FIELD_MASK - 1)
        # (name, shift) of every field, sorted by name
        self.decode = sorted((v, _FIELD * i) for i, v in enumerate(names))

    def __reduce__(self):
        # copies and pickles stay the interned instance
        return _layout_of, (self.names,)

    def used(self, terms):
        """(name, shift) of every field that some key of terms uses, sorted
        by name, from one OR of the keys."""
        acc = reduce(or_, terms, 0)
        return [(v, s) for v, s in self.decode if (acc >> s) & _FIELD_MASK]


_layouts = weakref.WeakValueDictionary()
# a weak table's setdefault is not atomic: two threads interning one tuple
# of names at once would otherwise make it two live layouts
_interning = threading.Lock()


def _layout_of(names):
    """The interned layout of a tuple of distinct, valid names."""
    lay = _layouts.get(names)
    if lay is None:
        with _interning:
            lay = _layouts.setdefault(names, _Layout(names))
    return lay


_EMPTY = _layout_of(())

def _union(la, lb):
    """The layout where operands of layouts la and lb meet: la or lb when it
    holds the other's names (a constant's empty layout is held by every
    layout), else la's names followed by lb's new ones."""
    if la is lb or lb is _EMPTY:
        return la
    if la is _EMPTY:
        return lb
    if la.index.keys() >= lb.index.keys():
        return la
    if lb.index.keys() >= la.index.keys():
        return lb
    return _layout_of(la.names + tuple(v for v in lb.names if v not in la.index))


def _moved(terms, src, dst):
    """terms, packed with field i for the name src[i], on layout dst, which
    holds every name their keys use.  A key stays as it is when src is a
    prefix of dst's names; otherwise each key is re-packed once.  Names are
    distinct, so no two keys meet and no field sums."""
    if dst.names[: len(src)] == src:
        return terms
    # a name no key uses moves nowhere: its field is zero in every key
    shifts = [_FIELD * dst.index.get(v, 0) for v in src]
    out = {}
    for key, c in terms.items():
        new = 0
        for s in shifts:
            if not key:
                break
            new += (key & _FIELD_MASK) << s
            key >>= _FIELD
        out[new] = c
    return out


def _onto(p, lay):
    """p on layout lay, which holds every name p uses."""
    if p.layout is lay:
        return p
    return _poly(_moved(p.terms, p.layout.names, lay), lay)


def _check_name(v):
    if not isinstance(v, str) or not _VAR_RE.match(v):
        raise InvalidElementError("bad variable name %.40r" % (v,))


def _own_layout(terms, names):
    """terms, packed with field i for names[i], and the sorted layout of the
    names they use, moved onto it."""
    acc = reduce(or_, terms, 0)
    used = tuple(sorted(v for i, v in enumerate(names) if (acc >> (_FIELD * i)) & _FIELD_MASK))
    lay = _layout_of(used)
    return _moved(terms, tuple(names), lay), lay


def _block_fields(lay, names):
    """(shifts, keep) for reading the exponents of names from keys on layout
    lay: (key >> shifts[i]) & _FIELD_MASK is the exponent of names[i], and
    key & keep clears every field of names.  Each name is checked; a name
    outside the layout reads the field past its last one, which is zero in
    every key."""
    index = lay.index
    past = _FIELD * len(index)
    shifts = []
    for v in names:
        i = index.get(v) if isinstance(v, str) else None
        if i is None:
            _check_name(v)
            shifts.append(past)
        else:
            shifts.append(_FIELD * i)
    block = 0
    for s in shifts:
        block |= _FIELD_MASK << s
    return shifts, ~block


def _exponent_cutoff():
    return DegreeCutoffError("an exponent is 2^63 or more, the limit of a monomial field")


def _poly(terms, layout, new=object.__new__):
    """MultiPoly over an already packed dict with nonzero coefficients."""
    p = new(MultiPoly)
    p.terms = terms
    p.layout = layout
    return p


def _integer(n, what, *args):
    """n when it is an int and not a bool; else an InvalidElementError that
    names it by what % args."""
    if isinstance(n, int) and not isinstance(n, bool):
        return n
    raise InvalidElementError("%s must be an integer, not %s" % (what % args, type(n).__name__))


def _var(lay, name, exp, coeff):
    """coeff * name^exp on layout lay, which holds name."""
    if _integer(exp, "the exponent of %r", name) < 0:
        raise InvalidElementError("negative exponent on %r" % name)
    if _integer(coeff, "the coefficient of %r", name) == 0:
        return _poly({}, lay)
    if exp >= _EXP_LIMIT:
        raise _exponent_cutoff()
    return _poly({exp << (_FIELD * lay.index[name]): coeff}, lay)


def _natural_key(name):
    """Sort key splitting digit runs, so c2 < c10 and J < J2."""
    parts = re.split(r"(\d+)", name)
    return tuple(int(p) if p.isdigit() else p for p in parts if p != "")


def _int_text(n):
    """n in decimal for an error message, or its size where the interpreter
    refuses to convert it."""
    try:
        return str(n)
    except ValueError:
        return "an integer of %d bits" % n.bit_length()


class MultiPoly:
    """Sparse multivariate polynomial over Z.

    terms maps a packed monomial on layout (see the module docstring) to a
    nonzero integer coefficient; items() gives the same terms with decoded
    keys, tuples of (variable, exponent) pairs sorted by name.  Instances
    are treated as immutable.
    """

    __slots__ = ("terms", "layout")

    def __init__(self, terms=None):
        """terms maps sequences of (variable, exponent) pairs to integers."""
        clean = {}
        names = []
        index = {}
        if terms:
            for pairs, coeff in terms.items():
                if _integer(coeff, "a coefficient") == 0:
                    continue
                key = 0
                for v, e in pairs:
                    if _integer(e, "the exponent of %r", v) < 0:
                        raise InvalidElementError("negative exponent on %r" % v)
                    if e:
                        if e >= _EXP_LIMIT:
                            raise _exponent_cutoff()
                        i = index.get(v) if isinstance(v, str) else None
                        if i is None:
                            _check_name(v)
                            i = index[v] = len(names)
                            names.append(v)
                        key += e << (_FIELD * i)
                        # a name given twice sums in its field
                        if (key >> (_FIELD * i + _FIELD - 1)) & 1:
                            raise _exponent_cutoff()
                _accumulate(clean, key, coeff)
        self.terms, self.layout = _own_layout(clean, names)

    @classmethod
    def const(cls, c):
        return _poly({0: c} if _integer(c, "a constant") else {}, _EMPTY)

    @classmethod
    def var(cls, name, exp=1, coeff=1):
        _check_name(name)
        return _var(_layout_of((name,)), name, exp, coeff)

    def items(self):
        """The terms as (((variable, exponent), ...), coefficient) pairs."""
        used = self.layout.used(self.terms)
        return [
            (tuple([(v, e) for v, shift in used if (e := (key >> shift) & _FIELD_MASK)]), c)
            for key, c in self.terms.items()
        ]

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(0, 0)

    def as_int(self):
        if any(self.terms):
            raise InvalidElementError("polynomial is not a constant")
        return self.constant_term()

    def variables(self):
        return {v for v, _ in self.layout.used(self.terms)}

    def collect(self, names):
        """Group the terms by their exponent vector on names: a dict from the
        vector to its coefficient, a polynomial in the other variables."""
        shifts, keep = _block_fields(self.layout, names)
        groups = {}
        for key, c in self.terms.items():
            vec = tuple((key >> s) & _FIELD_MASK for s in shifts)
            groups.setdefault(vec, {})[key & keep] = c
        return {vec: _poly(terms, self.layout) for vec, terms in groups.items()}

    def add(self, other):
        lay = self.layout
        a, b = self.terms, other.terms
        if other.layout is not lay:
            lay = _union(lay, other.layout)
            a, b = _onto(self, lay).terms, _onto(other, lay).terms
        out = dict(a)
        for key, c in b.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _poly(out, lay)

    def neg(self):
        return _poly({key: -c for key, c in self.terms.items()}, self.layout)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        # plain Z[vars] product; quotient rings reduce afterwards
        return _dot(((self, other),))

    def mul_int(self, n):
        if _integer(n, "a multiplier") == 0:
            return MultiPoly.const(0)
        return _poly({key: c * n for key, c in self.terms.items()}, self.layout)

    def pow(self, n):
        if _integer(n, "an exponent") < 0:
            raise InvalidElementError("negative power of a polynomial")
        return power(self, n, MultiPoly.mul, MultiPoly.const(1))

    def substitute(self, mapping):
        """p with every variable v of mapping replaced by mapping[v], a
        MultiPoly or an int, all at once; the other variables stay.

        One collect groups p's terms by their exponents on the mapped names
        (a name p does not use is checked and reads 0), each power of an
        image is formed once, and the result is one dot of every group with
        the product of its image powers."""
        images = [
            val if isinstance(val, MultiPoly)
            else MultiPoly.const(_integer(val, "a non-polynomial image of %r", v))
            for v, val in mapping.items()
        ]
        powers = {}

        def product(vec):
            out = None
            for i, e in enumerate(vec):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i].pow(e)
                    out = powers[i, e] if out is None else out.mul(powers[i, e])
            return MultiPoly.const(1) if out is None else out

        # a generator, so the dot holds one group's product at a time
        return _dot((group, product(vec)) for vec, group in self.collect(list(mapping)).items())

    def divide_int_exact(self, n):
        if _integer(n, "a divisor") == 0:
            raise ExactDivisionError("division by zero")
        out = {}
        for key, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ExactDivisionError(
                    "coefficient %s not divisible by %s" % (_int_text(c), _int_text(n))
                )
            out[key] = q
        return _poly(out, self.layout)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return False
        if other.layout is self.layout:
            return self.terms == other.terms
        if len(self.terms) != len(other.terms):
            return False
        lay = _union(self.layout, other.layout)
        return _onto(self, lay).terms == _onto(other, lay).terms

    __hash__ = None

    def sorted_terms(self):
        """Decoded terms in display order: total degree, then lex on natural
        var order."""
        items = self.items()
        vs = sorted({v for mono, _ in items for v, _ in mono}, key=_natural_key)
        index = {v: i for i, v in enumerate(vs)}

        def key(item):
            mono, _ = item
            vec = [0] * len(vs)
            for v, e in mono:
                vec[index[v]] = e
            return (-sum(vec), tuple(-x for x in vec))

        return sorted(items, key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for mono, c in self.sorted_terms():
            factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in mono]
            body = "*".join(factors)
            mag = abs(c)
            if body:
                text = body if mag == 1 else int_str(mag) + "*" + body
            else:
                text = int_str(mag)
            if not chunks:
                chunks.append(text if c > 0 else "-" + text)
            else:
                chunks.append(("+ " if c > 0 else "- ") + text)
        return " ".join(chunks)

    def __repr__(self):
        return "MultiPoly(%s)" % self


def _dot(pairs):
    """Sum of the products a*b over (a, b) pairs of MultiPolys, gathered in
    one dict: the one term-product loop of the module.

    The loop runs on one layout.  A pair that arrives on another layout
    widens it in place to the _union of it and the pair's layouts, and the
    pair's terms and the terms gathered so far move onto the union; a move
    keeps every key when the old layout is a prefix of the new one, as a
    constant's empty layout is of every layout.  Every key of the sum is
    the sum of two keys whose fields lie below 2^63, so one guard test at
    the end catches any field that overflowed."""
    out = {}
    get = out.get
    lay = None
    for x, y in pairs:
        a, b = x.terms, y.terms
        if x.layout is not lay or y.layout is not lay:
            if lay is None and x.layout is y.layout:
                lay = x.layout
            else:
                wide = _union(_union(lay or _EMPTY, x.layout), y.layout)
                if out:
                    out = _moved(out, lay.names, wide)
                    get = out.get
                a = _moved(a, x.layout.names, wide)
                b = _moved(b, y.layout.names, wide)
                lay = wide
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        for k1, c1 in a.items():
            for k2, c2 in b:
                key = k1 + k2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
    if lay is None:
        return _poly(out, _EMPTY)
    if reduce(or_, out, 0) & lay.guard:
        raise _exponent_cutoff()
    return _poly(out, lay)


# a computation packs v only while its images hold at most this many slots
# (b-bit digits) per term of its operands
_SLOTS_PER_TERM = 4


def _packed_variable(polys, ring):
    """The variable whose powers _kronecker packs into the integers of
    polys, or None.

    Packing v leaves one group per distinct monomial in the other
    variables of each polynomial, and the image of a group holds one
    b-bit slot per exponent of v from 0 to its top one.  Among the ring's
    variables whose images hold at most _SLOTS_PER_TERM slots per term of
    polys, the one that leaves the fewest groups is packed, unless it
    leaves more than half as many groups as there are terms.

    The slot bound keeps out images that would be mostly empty slots or
    impossibly large.  With the exponents of L spread by L -> L^s on four
    benchmark series (Python 3.11, 2-vCPU VM), a packed Hankel grid was
    1.4-10x faster at 1-4 slots per term, 1.1-3.5x faster at 5-11 and
    slower from 13 (2x at 15-22, 7-70x at 50-180), so the bound sits well
    below the break-even point.  A term L^(2^63 - 1) alone needs 2^63
    slots and exponents 10^6 apart about 10^6 slots per term, so such
    operands run unpacked, exactly as before, and the exponent guard of
    the products still applies.  A square-zero ring packs nothing, since
    2^b squared is not 0.  Entries linear in several variables seldom
    pack: packing v merges only the terms c and c_v v of c + sum c_v v.
    """
    if ring.kind != "poly":
        return None
    terms = sum(len(p.terms) for p in polys)
    # a pass stops once v leaves more groups than the best variable so far
    # (or than half the terms) or more slots than allowed
    stop = terms // 2
    best = None
    for v in ring.variables:
        groups = slots = 0
        for p in polys:
            top = _kronecker_groups(p, v)
            groups += len(top)
            slots += len(top) + sum(top.values())
            if groups > stop or slots > _SLOTS_PER_TERM * terms:
                break
        else:
            if best is None or groups < stop:
                best, stop = v, groups
    return best


def _kronecker(ring, operands, bound):
    """Kronecker substitution (as in D. Harvey, J. Symbolic Comput. 44,
    2009) for one computation over Z[vars].

    operands is a list of lists of ring elements.  When _packed_variable
    picks a variable v for all of them, each is mapped once through the
    ring map phi: v -> 2^b, with b = bound(norms).bit_length() + 1 and
    norms the l1 norms (sums of absolute coefficients) of the operands, in
    the same nesting.  Returns (images, unpack), unpack reading a
    polynomial back from an image; or (operands, None) if nothing packs.

    phi is a ring homomorphism and commutes with truncation in t, so the
    caller computes on the images with the ring's own arithmetic.  bound
    must be an int at least the absolute value of every coefficient of
    each result the caller decodes, or of each difference it compares
    (|pq|_1 <= |p|_1 |q|_1 gives such bounds from the norms).  Those
    coefficients are then balanced base-2^b digits, so a result has one
    preimage, and phi of a difference is 0 only if the difference is.
    Values neither decoded nor compared may overflow their slots.
    """
    v = _packed_variable([p for ps in operands for p in ps], ring)
    if v is None:
        return operands, None
    norms = [[sum(map(abs, p.terms.values())) for p in ps] for ps in operands]
    b = bound(norms).bit_length() + 1
    images = [[_kronecker_pack(p, v, b) for p in ps] for ps in operands]
    return images, lambda p: _kronecker_unpack(p, v, b)


def _kronecker_groups(p, v):
    """{key of p with v's field cleared: the top exponent of v among p's
    keys that clear to it}."""
    i = p.layout.index.get(v)
    if i is None:
        return dict.fromkeys(p.terms, 0)
    shift = _FIELD * i
    keep = ~(_FIELD_MASK << shift)
    top = {}
    for key in p.terms:
        rest = key & keep
        e = key >> shift & _FIELD_MASK
        if top.get(rest, -1) < e:
            top[rest] = e
    return top


def _kronecker_pack(p, v, b):
    """p under the ring map v -> 2^b (Kronecker substitution), on p's
    layout with v's field empty: each coefficient is the integer sum of
    c 2^(b e) over the terms c v^e of one group."""
    i = p.layout.index.get(v)
    if i is None:
        return p
    shift = _FIELD * i
    keep = ~(_FIELD_MASK << shift)
    out = {}
    for key, c in p.terms.items():
        rest = key & keep
        out[rest] = out.get(rest, 0) + (c << b * (key >> shift & _FIELD_MASK))
    return _poly({key: c for key, c in out.items() if c}, p.layout)


def _kronecker_unpack(p, v, b):
    """The polynomial whose image under v -> 2^b is p, read from the
    balanced base-2^b digits of p's coefficients, which are unique when
    every coefficient sought lies in [-2^(b-1), 2^(b-1)).

    Each coefficient is read one digit at a time, up to its top nonzero
    digit, and each step shifts what is left of it: a coefficient of s
    slots costs s Python steps and O(s^2 b) bit operations, even where
    most of its digits are 0."""
    if v not in p.layout.index:
        # an image whose keys all clear v's field may have met its
        # operands on a layout without v
        p = _onto(p, _union(p.layout, _layout_of((v,))))
    step = 1 << _FIELD * p.layout.index[v]
    full = 1 << b
    mask = full - 1
    half = full >> 1
    out = {}
    for rest, c in p.terms.items():
        key = rest
        while c:
            d = c & mask
            if d >= half:
                d -= full
            if d:
                out[key] = d
            c = (c - d) >> b
            key += step
    return _poly(out, p.layout)


def _accumulate(terms, key, c):
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        del terms[key]


def int_str(n):
    """str(n) for an int; past the interpreter's limit on int-to-str
    conversion a typed error instead of a ValueError."""
    try:
        return str(n)
    except ValueError:
        raise DegreeCutoffError(
            "a coefficient has more than %d decimal digits, the interpreter's "
            "limit for int-to-str conversion" % sys.get_int_max_str_digits()
        ) from None


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


def _json_terms(p):
    """p's terms in JSON order, the one definition of it: sorted by monomial,
    its pairs by name.  The CLI's sort key reproduces it, as its tests check."""
    return sorted(p.items())


def poly_to_json(p):
    return {"terms": [{"c": int_str(c), "e": dict(mono)} for mono, c in _json_terms(p)]}


def _check_int(value, what):
    """Reject a bool or a non-int where an API takes an integer count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError("%s must be an integer" % what)


def _json_int(x, what):
    """An int from a JSON integer or a decimal string, with typed errors.

    A decimal string is ASCII -?[0-9]+ and nothing else: no sign "+", no
    spaces, no "_" separators and no other scripts' digits, all of which
    int() would take.
    """
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InvalidInputError(
            "%s must be an integer or a decimal string, not %s" % (what, type(x).__name__)
        )
    if isinstance(x, str) and not _DECIMAL_RE.match(x):
        raise InvalidInputError("%s %r is not an integer" % (what, x[:40]))
    try:
        return int(x)
    except ValueError:
        raise DegreeCutoffError(
            "%s has more than %d decimal digits, the interpreter's limit "
            "for str-to-int conversion" % (what, sys.get_int_max_str_digits())
        ) from None


def poly_from_json(obj, layout=_EMPTY):
    """A polynomial from its JSON form, packed on layout (a ring's) when it
    uses no other name; names outside layout take the fields after it, and
    a polynomial read on the empty layout gets the layout of its names."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise InvalidInputError("expected a polynomial object with 'terms'")
    if not isinstance(obj["terms"], list):
        raise InvalidInputError("a polynomial's 'terms' must be a list")
    # each term is packed as it is read; a name is checked and given its
    # field once per polynomial, before any layout can learn it
    index = layout.index
    shifts = {}
    extra = []
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or "c" not in t:
            raise InvalidInputError("each polynomial term must be an object with 'c'")
        exps = t.get("e", {})
        if not isinstance(exps, dict):
            raise InvalidInputError("a term's 'e' must map variables to exponents")
        key = 0
        for v, e in exps.items():
            shift = shifts.get(v)
            if shift is None:
                if not isinstance(v, str) or not _VAR_RE.match(v):
                    raise InvalidInputError("bad variable name %.40r" % (v,))
                i = index.get(v)
                if i is None:
                    i = len(index) + len(extra)
                    extra.append(v)
                shift = shifts[v] = _FIELD * i
            if type(e) is not int:
                e = _json_int(e, "exponent")
            # every exponent is checked, whatever its term's coefficient
            if e < 0:
                raise InvalidElementError("negative exponent on %r" % v)
            if e >= _EXP_LIMIT:
                raise _exponent_cutoff()
            # distinct names own distinct fields, so no sum can carry
            key += e << shift
        c = _json_int(t["c"], "coefficient")
        if c:
            _accumulate(terms, key, c)
    if not extra:
        return _poly(terms, layout)
    if layout is _EMPTY:
        return _poly(*_own_layout(terms, extra))
    if not reduce(or_, terms, 0) >> (_FIELD * len(index)):
        return _poly(terms, layout)
    return _poly(terms, _layout_of(layout.names + tuple(extra)))


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


def _const_int(p):
    """The int in a constant's JSON form as the writers emit it, {"terms":
    []} or {"terms": [{"c": decimal, "e": {}}]}; None for any other form and
    past the interpreter's digit limit, which poly_from_json then reads."""
    terms = p.get("terms") if type(p) is dict else None
    if type(terms) is not list or len(terms) > 1:
        return None
    if not terms:
        return 0
    t = terms[0]
    if type(t) is dict and type(t.get("e")) is dict and not t["e"]:
        c = t.get("c")
        if type(c) is str and _DECIMAL_RE.match(c):
            try:
                return int(c)
            except ValueError:
                pass
    return None


def _fraction_parts(obj):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise InvalidInputError("expected a fraction object with 'num' and 'den'")
    return poly_from_json(obj["num"]), poly_from_json(obj["den"])


def frac_from_json(obj):
    return FractionElem(*_fraction_parts(obj))


class Ring:
    """Common interface, with the MultiPoly arithmetic; subclasses validate."""

    kind = None
    # the layout of the ring's own elements (see the module docstring)
    _layout = _EMPTY

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return _poly({0: n} if _integer(n, "a ring constant") else {}, self._layout)

    def add(self, a, b):
        return a.add(b)

    def neg(self, a):
        return a.neg()

    def sub(self, a, b):
        return a.sub(b)

    def mul(self, a, b):
        return a.mul(b)

    def dot(self, pairs):
        """Sum of a*b over the (a, b) pairs, built in one pass."""
        return _dot(pairs)

    def mul_int(self, a, n):
        return a.mul_int(n)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a.is_zero()

    def pow(self, a, n):
        if _integer(n, "an exponent") < 0:
            raise NotInvertibleError("negative ring power")
        return power(a, n, self.mul, self.one())

    def validate(self, a):
        raise NotImplementedError

    def divide_exact(self, a, n):
        """Exact division by a nonzero integer (rings here are torsion-free)."""
        return a.divide_int_exact(n)

    def elem_from_json(self, obj):
        a = poly_from_json(obj, self._layout)
        self.validate(a)
        return a

    def elem_str(self, a):
        return str(a)

    def to_json(self):
        raise NotImplementedError

    def __repr__(self):
        return "Ring(%s)" % json.dumps(self.to_json(), sort_keys=True)


def _check_var_names(variables):
    vs = tuple(variables)
    for v in vs:
        if not isinstance(v, str) or not _VAR_RE.match(v):
            raise InvalidInputError("bad variable name %.40r" % (v,))
    if len(set(vs)) != len(vs):
        raise InvalidInputError("duplicate variable names")
    return vs


class IntegerRing(Ring):
    kind = "integers"

    def mul(self, a, b):
        return self.dot(((a, b),))

    def dot(self, pairs):
        # every element is a constant, {0: c} or {}, so the sum is one int
        n = 0
        for a, b in pairs:
            if a.terms and b.terms:
                n += a.terms[0] * b.terms[0]
        return _poly({0: n} if n else {}, _EMPTY)

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("integer ring holds polynomial constants")
        if any(a.terms):
            raise RingMismatchError("element %s has variables, ring is Z" % a)

    def invert(self, a):
        c = a.as_int()
        if c in (1, -1):
            return a
        raise NotInvertibleError("%s is not a unit in Z" % _int_text(c))

    def to_json(self):
        return {"kind": "integers"}

    def __eq__(self, other):
        return isinstance(other, IntegerRing)


class PolynomialRing(Ring):
    kind = "poly"

    def __init__(self, variables):
        self.variables = _check_var_names(variables)
        self._varset = set(self.variables)
        self._layout = _layout_of(self.variables)

    def var(self, name, exp=1):
        if name not in self._varset:
            raise RingMismatchError("variable %r is not in this ring" % name)
        return _var(self._layout, name, exp, 1)

    def _mask_of(self, lay):
        # every field of a ring variable: an element's keys OR into it
        return sum(_FIELD_MASK << (_FIELD * i) for i, v in enumerate(lay.names) if v in self._varset)

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("expected a polynomial element")
        # no key passes the last field of its layout, so every element on
        # the ring's own layout is in the ring
        if a.layout is self._layout:
            return
        mask = self._mask_of(a.layout)
        if reduce(or_, a.terms, mask) != mask:
            extra = a.variables() - self._varset
            raise RingMismatchError("variables %s not in ring %s" % (sorted(extra), list(self.variables)))

    def invert(self, a):
        if a == MultiPoly.const(1) or a == MultiPoly.const(-1):
            return a
        raise NotInvertibleError("only +-1 are units in a polynomial ring over Z")

    def to_json(self):
        return {"kind": "poly", "vars": list(self.variables)}

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and self.variables == other.variables


class SquareZeroRing(Ring):
    """Z[vars]/(v^2 for each v); elements stay square-free (eager reduction).

    With prefix given instead of a variable list, the ring has countably many
    variables prefix1, prefix2, ... available on demand.
    """

    kind = "square_zero"

    def __init__(self, variables=None, prefix=None):
        if (variables is None) == (prefix is None):
            raise InvalidInputError("give either a variable list or a prefix")
        if prefix is not None and not _VAR_RE.match(prefix):
            raise InvalidInputError("bad variable prefix %r" % prefix)
        self.prefix = prefix
        if variables is not None:
            self.variables = _check_var_names(variables)
            self._varset = set(self.variables)
            self._layout = _layout_of(self.variables)
        else:
            self.variables = None
            self._varset = None
            self._prefix_re = re.compile(re.escape(prefix) + r"[1-9][0-9]*\Z")
            # grows by one name each time var hands out a new variable
            self._layout = _EMPTY

    def _valid_var(self, v):
        if self._varset is not None:
            return v in self._varset
        return bool(self._prefix_re.match(v))

    def var(self, name):
        if not self._valid_var(name):
            raise RingMismatchError("variable %r is not in this ring" % name)
        lay = self._layout
        if name not in lay.index:
            # only a prefix ring meets a variable its layout lacks
            lay = self._layout = _layout_of(lay.names + (name,))
        return _var(lay, name, 1, 1)

    def var_by_index(self, i):
        if self.prefix is None:
            raise InvalidInputError("ring has a fixed variable list")
        _check_int(i, "variable index")
        if i < 1:
            raise InvalidInputError("variable index must be >= 1")
        return self.var("%s%d" % (self.prefix, i))

    def reduce(self, a):
        squares = a.layout.above_one
        return _poly({key: c for key, c in a.terms.items() if not key & squares}, a.layout)

    def mul(self, a, b):
        return self.reduce(a.mul(b))

    def dot(self, pairs):
        # reduction only drops monomials, so one reduce of the sum is enough
        return self.reduce(_dot(pairs))

    def _mask_of(self, lay):
        # the exponent-one bit of the field of each ring variable
        return sum(1 << (_FIELD * i) for i, v in enumerate(lay.names) if self._valid_var(v))

    def validate(self, a):
        if not isinstance(a, MultiPoly):
            raise RingMismatchError("expected a polynomial element")
        # a key ORs into the ones bits iff its variables are the ring's and
        # every exponent is 1
        ones = self._mask_of(a.layout)
        if reduce(or_, a.terms, ones) == ones:
            return
        # the decoded check names the offending variable
        for mono, _ in a.items():
            for v, e in mono:
                if not self._valid_var(v):
                    raise RingMismatchError("variable %r is not in this ring" % v)
                if e >= 2:
                    raise InvalidElementError("unreduced square %s^%d" % (v, e))

    def invert(self, a):
        """Invert c + n with c = +-1 and n nilpotent, by a finite geometric sum."""
        c = a.constant_term()
        if c not in (1, -1):
            raise NotInvertibleError("constant term %s is not a unit in Z" % _int_text(c))
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
    """Q, the field of fractions of Z, with fractions.Fraction elements, which
    are always in lowest terms with a positive denominator.  QQ is the one
    instance: FractionField(IntegerRing()) returns it, and any other base is
    an error.  The operations trust their operands."""

    kind = "fraction"

    def __new__(cls, base):
        if not isinstance(base, IntegerRing):
            raise InvalidInputError("the only fraction field is Q: its base must be the integers")
        return QQ

    def __reduce__(self):
        # copies and pickles stay the one instance
        return "QQ"

    def from_int(self, n):
        return Fraction(_integer(n, "a ring constant"))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, pairs):
        return sum((a * b for a, b in pairs), Fraction(0))

    def mul_int(self, a, n):
        return a * _integer(n, "a multiplier")

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    def validate(self, a):
        if not isinstance(a, Fraction):
            raise RingMismatchError("expected a fraction element")

    def invert(self, a):
        if not a:
            raise NotInvertibleError("division by zero")
        return 1 / a

    def divide_exact(self, a, n):
        if _integer(n, "a divisor") == 0:
            raise ExactDivisionError("division by zero")
        return a / n

    def elem_to_json(self, a):
        # the fraction form with constant polynomials; a zero numerator has
        # no terms
        n = a.numerator
        num = [{"c": int_str(n), "e": {}}] if n else []
        return {"num": {"terms": num}, "den": {"terms": [{"c": int_str(a.denominator), "e": {}}]}}

    def elem_from_json(self, obj):
        # the canonical form directly; any other goes through the parser
        if type(obj) is dict:
            n, d = _const_int(obj.get("num")), _const_int(obj.get("den"))
            if n is not None and d:
                return Fraction(n, d)
        num, den = _fraction_parts(obj)
        if not den.terms:
            raise InvalidElementError("zero denominator")
        _ZZ.validate(num)
        _ZZ.validate(den)
        return Fraction(num.constant_term(), den.constant_term())

    def elem_str(self, a):
        if a.denominator == 1:
            return int_str(a.numerator)
        return "(%s)/(%s)" % (int_str(a.numerator), int_str(a.denominator))

    def to_json(self):
        return {"kind": "fraction", "of": {"kind": "integers"}}


_ZZ = IntegerRing()
QQ = object.__new__(FractionField)


def plain(obj):
    """obj with every MultiPoly and Fraction in its dicts and lists replaced
    by its JSON form; anything else passes through.  A report's to_json()
    is plain(payload()), where payload() leaves its ring elements as values."""
    if isinstance(obj, MultiPoly):
        return poly_to_json(obj)
    if isinstance(obj, Fraction):
        return QQ.elem_to_json(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


class JsonPayload:
    """Base of the values whose JSON form holds ring elements: each defines
    payload(), and to_json() is plain(payload())."""

    __slots__ = ()

    def to_json(self):
        return plain(self.payload())


def _json_vars(obj):
    names = obj.get("vars", [])
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise InvalidInputError("a ring's 'vars' must be a list of variable names")
    return names


def ring_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("expected a ring object with 'kind'")
    kind = obj["kind"]
    if kind == "integers":
        return IntegerRing()
    if kind == "poly":
        return PolynomialRing(_json_vars(obj))
    if kind == "square_zero":
        if "prefix" not in obj:
            return SquareZeroRing(_json_vars(obj))
        if not isinstance(obj["prefix"], str):
            raise InvalidInputError("a ring's 'prefix' must be a string")
        # with "vars" as well, the constructor raises its typed error
        variables = _json_vars(obj) if "vars" in obj else None
        return SquareZeroRing(variables, obj["prefix"])
    if kind == "fraction":
        return FractionField(ring_from_json(obj.get("of", {})))
    raise InvalidInputError("unknown ring kind %r" % kind)


class Numbers:
    """Python ints and Fractions as an operation table (from_int, add, mul,
    pow, eq): eval_poly's ops for images that are numbers, and the
    arithmetic of the integer lambda carriers."""

    __slots__ = ()
    from_int = staticmethod(int)
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    pow = staticmethod(pow)
    eq = staticmethod(operator.eq)


NUMBERS = Numbers()


def eval_poly(expr, mapping, ops):
    """expr with each variable v replaced by mapping[v], computed in the
    operation table ops (from_int, add, mul, pow): a Ring, a LambdaRule, or
    NUMBERS.  This is the one evaluator of a polynomial at values: the
    universal polynomials over rings, Witt rings and lambda carriers, and a
    measure's images in Q.

    The first variable the mapping does not cover (or maps to None), in
    term order, is a MissingDataError.  Terms are summed in stored order;
    every table is exact and commutative, so the order changes no value.
    Exponents are read from the packed keys, field by field in the order of
    items(), and each power is the table's own pow: the builtin on numbers.
    """
    add, mul, pow_ = ops.add, ops.mul, ops.pow
    fields = [(s, v, mapping.get(v)) for v, s in expr.layout.used(expr.terms)]
    total = ops.from_int(0)
    for key, c in expr.terms.items():
        term = ops.from_int(c)
        for s, v, x in fields:
            e = (key >> s) & _FIELD_MASK
            if e:
                if x is None:
                    raise MissingDataError("measure does not cover variable %r" % v)
                term = mul(term, x if e == 1 else pow_(x, e))
        total = add(total, term)
    return total
