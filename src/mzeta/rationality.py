"""Three notions of rationality for truncated power series, as bounded
executable tests, plus exact rational reconstruction and the periodic-ratio
criterion for series with coefficients in a group of fractions.

The notions, in decreasing strength:

* global: f is the unique solution of g(t) x = h(t) for polynomials g, h.
  Verified by checking the product to the available precision and
  certifying uniqueness through the annihilator of the coefficients of g.
* determinantal: the (m+1) x (m+1) shifted Hankel determinants of the
  coefficients eventually vanish.  Tested on a bounded (m, offset) grid.
* pointwise: after every ring homomorphism to a field the image series is
  rational.  Tested for user-supplied homomorphisms by coefficientwise
  substitution followed by exact Pade reconstruction.

All verdicts are bounded-window statements, never absolute claims.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    InvalidInputError,
    InvalidMeasureError,
    MissingDataError,
    PrecisionError,
)
from .rings import (
    FractionElem,
    FractionField,
    IntegerRing,
    MultiPoly,
    frac_from_json,
    frac_to_json,
)
from .series import TruncSeries, poly_str, poly_trim


# ---------------------------------------------------------------------------
# determinants


def _cofactor_det(rows, ring):
    """Minor expansion along the first remaining row, memoized on the set of
    remaining columns; skips zero entries, which keeps square-zero examples
    cheap."""
    n = len(rows)
    memo = {}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        r = n - bin(mask).count("1")
        if r == n:
            return ring.one()
        total = ring.zero()
        sign = 1
        for c in range(n):
            bit = 1 << c
            if not mask & bit:
                continue
            entry = rows[r][c]
            if not ring.is_zero(entry):
                sub = rec(mask & ~bit)
                term = ring.mul(entry, sub)
                total = ring.add(total, term if sign > 0 else ring.neg(term))
            sign = -sign
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def _bareiss_det(rows, ring):
    """Fraction-free elimination; every division is exact in a domain."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if ring.is_zero(m[k][k]):
            pivot = None
            for i in range(k + 1, n):
                if not ring.is_zero(m[i][k]):
                    pivot = i
                    break
            if pivot is None:
                return ring.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(
                    ring.mul(m[k][k], m[i][j]), ring.mul(m[i][k], m[k][j])
                )
                m[i][j] = ring.exact_div(num, prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else ring.neg(det)


def determinant(rows, ring):
    """Exact determinant of a square matrix of ring elements."""
    n = len(rows)
    if n == 0:
        return ring.one()
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant of a non-square matrix")
    if ring.is_domain and n > 5:
        return _bareiss_det(rows, ring)
    return _cofactor_det(rows, ring)


# ---------------------------------------------------------------------------
# determinantal rationality


class HankelReport:
    """Grid of shifted Hankel determinants and the verdict drawn from it.

    grid[m][i] is the determinant of the (m+1) x (m+1) matrix with entries
    a_{i+r+c}.  For each m the minimal offset n with det = 0 for every
    tested i > n is recorded; the summary is the first such (m, n).
    """

    def __init__(self, ring, m_max, offset_max, grid):
        self.ring = ring
        self.m_max = m_max
        self.offset_max = offset_max
        self.grid = grid

    def det(self, m, i):
        return self.grid[m][i]

    def window(self, m):
        """Minimal n such that all tested determinants with i > n vanish,
        or None when the last tested determinant is nonzero."""
        last_nonzero = -1
        for i, d in enumerate(self.grid[m]):
            if not self.ring.is_zero(d):
                last_nonzero = i
        if last_nonzero >= self.offset_max:
            return None
        return max(last_nonzero, 0)

    @property
    def summary(self):
        for m in range(self.m_max + 1):
            n = self.window(m)
            if n is not None:
                return (m, n)
        return None

    @property
    def found(self):
        return self.summary is not None

    def to_json(self):
        summary = self.summary
        return {
            "ring": self.ring.to_json(),
            "m_max": self.m_max,
            "offset_max": self.offset_max,
            "window": (
                {"m": summary[0], "n": summary[1]} if summary else None
            ),
            "per_m": [
                {"m": m, "n": self.window(m)} for m in range(self.m_max + 1)
            ],
            "determinants": [
                [self.ring.elem_to_json(d) for d in row] for row in self.grid
            ],
        }

    def __str__(self):
        lines = []
        summary = self.summary
        if summary:
            lines.append(
                "vanishing window found: m=%d, offsets beyond n=%d"
                % summary
            )
        else:
            lines.append(
                "no vanishing window within m <= %d, offsets <= %d"
                % (self.m_max, self.offset_max)
            )
        for m in range(self.m_max + 1):
            vals = ", ".join(self.ring.elem_str(d) for d in self.grid[m])
            lines.append("m=%d: [%s]" % (m, vals))
        return "\n".join(lines)


def hankel_test(f, m_max, offset_max):
    """Shifted Hankel determinants of the series coefficients on a bounded
    grid of orders m <= m_max and offsets i <= offset_max."""
    if m_max < 0 or offset_max < 0:
        raise InvalidInputError("bounds must be nonnegative")
    need = offset_max + 2 * m_max + 1
    if f.precision < need:
        raise PrecisionError(
            "hankel grid needs precision %d, series has %d" % (need, f.precision)
        )
    ring = f.ring
    grid = []
    for m in range(m_max + 1):
        row = []
        for i in range(offset_max + 1):
            mat = [
                [f.coefficient(i + r + c) for c in range(m + 1)]
                for r in range(m + 1)
            ]
            row.append(determinant(mat, ring))
        grid.append(row)
    return HankelReport(ring, m_max, offset_max, grid)


# ---------------------------------------------------------------------------
# global rationality


def _square_free_monomials(variables):
    out = [()]
    for v in sorted(variables):
        out += [key + ((v, 1),) for key in out]
    return out


def _square_zero_annihilator_exists(ring, coeffs):
    """Whether some nonzero element kills every coefficient of g.

    In a square-zero quotient it suffices to search the subring generated by
    the variables appearing in the coefficients: a variable foreign to all
    of them multiplies injectively, so any annihilator projects to one here.
    The search is a finite linear system over the square-free monomials.
    """
    variables = set()
    for c in coeffs:
        variables |= c.variables()
    basis = _square_free_monomials(variables)
    if len(basis) > 4096:
        return None  # too large to certify either way
    index = {key: pos for pos, key in enumerate(basis)}
    equations = {}
    for j, c in enumerate(coeffs):
        for pos, key in enumerate(basis):
            mono = MultiPoly.__new__(MultiPoly)
            mono.terms = {key: 1}
            prod = ring.mul(mono, c)
            for tkey, tc in prod.terms.items():
                eq = equations.setdefault((j, tkey), [0] * len(basis))
                eq[pos] += tc
    # nontrivial kernel of the equation matrix <=> annihilator exists
    rows = [row[:] for row in equations.values()]
    rank = 0
    col = 0
    nvars = len(basis)
    while col < nvars and rank < len(rows):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = Fraction(rows[rank][col])
        rows[rank] = [Fraction(x) / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [
                    Fraction(a) - factor * b for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
        col += 1
    return rank < nvars


class VerifyGlobalReport:
    """Product check plus the uniqueness certificate for g f = h."""

    def __init__(self, product_ok, uniqueness, precision):
        self.product_ok = product_ok
        self.uniqueness = uniqueness  # "certified" | "fails" | "not_certified"
        self.precision = precision

    def __bool__(self):
        return self.product_ok and self.uniqueness == "certified"

    def to_json(self):
        return {
            "product_ok": self.product_ok,
            "uniqueness": self.uniqueness,
            "precision": self.precision,
            "verdict": bool(self),
        }

    def __str__(self):
        return (
            "product %s to precision %d; uniqueness %s"
            % (
                "holds" if self.product_ok else "FAILS",
                self.precision,
                self.uniqueness,
            )
        )


def verify_global(f, g, h):
    """Check that f solves g(t) x = h(t) and that the solution is unique.

    g and h are coefficient lists over the ring of f.  Uniqueness holds when
    the annihilator of the ideal generated by the coefficients of g is zero;
    this is certified for integral domains (some coefficient nonzero) and
    for square-zero quotients (finite linear search); other rings report
    "not_certified" rather than guessing.
    """
    ring = f.ring
    n = f.precision
    if len(g) > n or len(h) > n:
        raise PrecisionError(
            "polynomial degrees must stay below the series precision"
        )
    if not g:
        raise InvalidInputError("g must have at least one coefficient")
    for c in list(g) + list(h):
        ring.validate(c)
    gf = TruncSeries.from_polynomial(ring, g, n).mul(f)
    hs = TruncSeries.from_polynomial(ring, h, n) if h else TruncSeries.zero(ring, n)
    product_ok = gf.eq(hs)
    nonzero = [c for c in g if not ring.is_zero(c)]
    if not nonzero:
        uniqueness = "fails"  # g = 0 annihilates everything
    elif ring.is_domain:
        uniqueness = "certified"
    elif ring.kind == "square_zero":
        found = _square_zero_annihilator_exists(ring, g)
        if found is None:
            uniqueness = "not_certified"
        else:
            uniqueness = "fails" if found else "certified"
    else:
        uniqueness = "not_certified"
    return VerifyGlobalReport(product_ok, uniqueness, n)


# ---------------------------------------------------------------------------
# linear solving and Pade reconstruction over a field


def solve_linear(ring, rows, rhs):
    """Exact Gaussian elimination over a field.

    Returns one solution with free variables set to zero, or None when the
    system is inconsistent.
    """
    if not ring.is_field:
        raise InvalidInputError("linear solving needs a field")
    n_eq = len(rows)
    n_var = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(n_eq)]
    pivots = []
    r = 0
    for c in range(n_var):
        pivot = None
        for i in range(r, n_eq):
            if not ring.is_zero(aug[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = ring.invert(aug[r][c])
        aug[r] = [ring.mul(inv, x) for x in aug[r]]
        for i in range(n_eq):
            if i != r and not ring.is_zero(aug[i][c]):
                factor = aug[i][c]
                aug[i] = [
                    ring.sub(a, ring.mul(factor, b))
                    for a, b in zip(aug[i], aug[r])
                ]
        pivots.append((r, c))
        r += 1
        if r == n_eq:
            break
    for i in range(r, n_eq):
        if not ring.is_zero(aug[i][n_var]):
            return None
    x = [ring.zero()] * n_var
    for ri, c in pivots:
        acc = aug[ri][n_var]
        for j in range(c + 1, n_var):
            if not ring.is_zero(aug[ri][j]):
                acc = ring.sub(acc, ring.mul(aug[ri][j], x[j]))
        x[c] = acc
    return x


class PadeResult:
    """Outcome of rational reconstruction at a fixed denominator degree."""

    def __init__(self, ring, den_deg, num=None, den=None, reason=None):
        self.ring = ring
        self.den_deg = den_deg
        self.num = num
        self.den = den
        self.reason = reason

    @property
    def success(self):
        return self.num is not None

    def __bool__(self):
        return self.success

    def to_json(self):
        out = {"den_deg": self.den_deg, "success": self.success}
        if self.success:
            out["num"] = [self.ring.elem_to_json(c) for c in self.num]
            out["den"] = [self.ring.elem_to_json(c) for c in self.den]
        else:
            out["reason"] = self.reason
        return out

    def __str__(self):
        if not self.success:
            return "no rational form with denominator degree %d (%s)" % (
                self.den_deg,
                self.reason,
            )
        num = poly_str(self.ring, self.num)
        den = poly_str(self.ring, self.den)
        return "(%s) / (%s)" % (num, den)


def pade_reconstruct(f, den_deg):
    """Find g, h with g f = h (mod t^precision), deg g <= den_deg, g(0) = 1,
    deg h <= den_deg, over a field; exact linear algebra throughout.

    Needs precision >= 2 den_deg + 2 so that the defining window is
    overdetermined and the tail check is meaningful.
    """
    ring = f.ring
    if not ring.is_field:
        raise InvalidInputError("Pade reconstruction needs a field")
    d = den_deg
    if d < 0:
        raise InvalidInputError("negative denominator degree")
    n = f.precision
    if n < 2 * d + 2:
        raise PrecisionError(
            "denominator degree %d needs precision %d, series has %d"
            % (d, 2 * d + 2, n)
        )
    a = f.coeffs
    if d > 0:
        rows = []
        rhs = []
        for k in range(d + 1, 2 * d + 2):
            rows.append([a[k - j] if k - j < n else ring.zero() for j in range(1, d + 1)])
            rhs.append(ring.neg(a[k]))
        sol = solve_linear(ring, rows, rhs)
        if sol is None:
            return PadeResult(ring, d, reason="window system inconsistent")
        den = [ring.one()] + sol
    else:
        den = [ring.one()]
    gf = TruncSeries.from_polynomial(ring, den, n).mul(f)
    for k in range(d + 1, n):
        if not ring.is_zero(gf.coefficient(k)):
            return PadeResult(
                ring, d, reason="tail coefficient %d nonzero" % k
            )
    num = poly_trim(ring, [gf.coefficient(k) for k in range(d + 1)])
    return PadeResult(ring, d, num=num, den=poly_trim(ring, den))


# ---------------------------------------------------------------------------
# pointwise rationality


QQ = FractionField(IntegerRing())


def _fraction_to_elem(q):
    return FractionElem(
        MultiPoly.const(q.numerator), MultiPoly.const(q.denominator)
    )


def _eval_poly_at(poly, assignment):
    total = Fraction(0)
    for key, c in poly.terms.items():
        val = Fraction(c)
        for v, e in key:
            if v in assignment:
                img = Fraction(assignment[v])
            elif "*" in assignment:
                img = Fraction(assignment["*"])
            else:
                raise MissingDataError("measure does not cover variable %r" % v)
            val *= img ** e
        total += val
    return total


def apply_measure(f, assignment):
    """Apply a ring homomorphism to a field, given as variable images, to
    every coefficient; returns a series over the rationals.

    The assignment maps variable names to integers (or Fractions); the key
    "*" supplies a default for unlisted variables.  Homomorphisms out of a
    square-zero quotient must kill every variable.
    """
    ring = f.ring
    if ring.kind == "square_zero":
        for v in set(assignment) - {"*"}:
            if Fraction(assignment[v]) != 0:
                raise InvalidMeasureError(
                    "image of square-zero variable %r must be 0" % v
                )
        if "*" in assignment and Fraction(assignment["*"]) != 0:
            raise InvalidMeasureError(
                "default image in a square-zero ring must be 0"
            )

    def convert(c):
        if ring.kind == "fraction":
            num = _eval_poly_at(c.num, assignment)
            den = _eval_poly_at(c.den, assignment)
            if den == 0:
                raise InvalidMeasureError(
                    "measure sends a denominator to zero"
                )
            return _fraction_to_elem(num / den)
        return _fraction_to_elem(_eval_poly_at(c, assignment))

    return f.map_coefficients(convert, QQ)


class PointwiseVerdict:
    def __init__(self, assignment, result):
        self.assignment = dict(assignment)
        self.result = result  # PadeResult of the first successful degree

    @property
    def rational(self):
        return self.result.success

    def to_json(self):
        return {
            "measure": {k: str(v) for k, v in sorted(self.assignment.items())},
            "rational": self.rational,
            "reconstruction": self.result.to_json(),
        }

    def __str__(self):
        measure = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(self.assignment.items())
        )
        if self.rational:
            return "{%s}: rational, %s" % (measure, self.result)
        return "{%s}: no reconstruction with denominator degree <= %d" % (
            measure,
            self.result.den_deg,
        )


def pointwise_test(f, measures, d_max):
    """Apply each measure and search for a rational form of denominator
    degree at most d_max; one verdict per measure."""
    verdicts = []
    for assignment in measures:
        image = apply_measure(f, assignment)
        limit = min(d_max, (image.precision - 2) // 2)
        result = None
        for d in range(limit + 1):
            attempt = pade_reconstruct(image, d)
            if attempt.success:
                result = attempt
                break
        if result is None:
            result = PadeResult(QQ, d_max, reason="no degree succeeded")
        verdicts.append(PointwiseVerdict(assignment, result))
    return verdicts


# ---------------------------------------------------------------------------
# the periodic-ratio criterion


class GroupSeries:
    """Series whose coefficients are elements of a group of fractions of
    nonzero polynomials, or the zero marker (None)."""

    def __init__(self, coeffs, check_monoid=False):
        self.coeffs = []
        for c in coeffs:
            if c is None:
                self.coeffs.append(None)
                continue
            if not isinstance(c, FractionElem):
                raise InvalidInputError("coefficients are fractions or None")
            if c.num.is_zero() or c.den.is_zero():
                raise InvalidInputError(
                    "nonzero coefficients need nonzero numerator and denominator"
                )
            if check_monoid and (
                c.num.constant_term() != 1 or c.den.constant_term() != 1
            ):
                raise InvalidInputError(
                    "monoid membership requires constant term 1 on both sides"
                )
            self.coeffs.append(c)

    def __len__(self):
        return len(self.coeffs)

    @classmethod
    def from_polynomials(cls, polys, **kw):
        one = MultiPoly.const(1)
        coeffs = [
            None if p is None or p.is_zero() else FractionElem(p, one)
            for p in polys
        ]
        return cls(coeffs, **kw)

    def to_json(self):
        return {
            "coeffs": [
                None if c is None else frac_to_json(c) for c in self.coeffs
            ]
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            [None if c is None else frac_from_json(c) for c in obj["coeffs"]]
        )

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            parts.append("0" if c is None else str(c))
        return "[" + ", ".join(parts) + "]"


class PeriodFound:
    """Witness (n, i0, h) with g_{i+n} = h_{i mod n} g_i for all i > i0."""

    def __init__(self, period, offset, ratios):
        self.period = period
        self.offset = offset
        self.ratios = list(ratios)  # index r holds h for i with i mod n == r

    @property
    def found(self):
        return True

    def ratio_for(self, i):
        return self.ratios[i % self.period]

    def to_json(self):
        return {
            "found": True,
            "period": self.period,
            "offset": self.offset,
            "ratios": [frac_to_json(h) for h in self.ratios],
        }

    def __str__(self):
        hs = ", ".join(
            "i=%d (mod %d): %s" % (r, self.period, h)
            for r, h in enumerate(self.ratios)
        )
        return "period %d from offset %d with ratios {%s}" % (
            self.period,
            self.offset,
            hs,
        )


class NoWitnessUpTo:
    """Negative verdict: no (n, i0) within the searched bounds works."""

    def __init__(self, n_max, i0_max):
        self.n_max = n_max
        self.i0_max = i0_max

    @property
    def found(self):
        return False

    def to_json(self):
        return {"found": False, "n_max": self.n_max, "i0_max": self.i0_max}

    def __str__(self):
        return "no periodic ratio with period <= %d and offset <= %d" % (
            self.n_max,
            self.i0_max,
        )


def _ratio(a, b):
    """b / a in the group of fractions, unreduced."""
    return FractionElem(b.num.mul(a.den), b.den.mul(a.num))


def periodic_ratio_test(gs, n_max, i0_max):
    """Search for the periodic-ratio witness of eventual monomial structure.

    Periods n <= n_max are tried in increasing order, then offsets
    i0 <= i0_max; the first witness is returned.  A zero coefficient inside
    the periodic tail forces its successor g_{i+n} to be zero as well
    (ratios live in a group, so nothing can map zero to nonzero or back).

    A window counts as found only when every residue class modulo the
    period is pinned down by at least two consecutive-ratio constraints,
    which needs i0 + 3n coefficients beyond index 0.  Windows near the
    edge of the data that pass vacuously are skipped, so a positive answer
    is always backed by an observed repetition of each ratio.
    """
    if n_max < 1 or i0_max < 0:
        raise InvalidInputError("period bound >= 1 and offset bound >= 0")
    total = len(gs)
    if total <= i0_max + 2 * n_max:
        raise PrecisionError(
            "need more than %d coefficients, have %d"
            % (i0_max + 2 * n_max, total)
        )
    one = FractionElem(MultiPoly.const(1), MultiPoly.const(1))
    for n in range(1, n_max + 1):
        for i0 in range(i0_max + 1):
            ratios = [None] * n
            ok = True
            for i in range(i0 + 1, total - n):
                a = gs.coeffs[i]
                b = gs.coeffs[i + n]
                if a is None and b is None:
                    continue
                if (a is None) != (b is None):
                    ok = False
                    break
                h = _ratio(a, b)
                r = i % n
                if ratios[r] is None:
                    ratios[r] = h
                elif ratios[r] != h:
                    ok = False
                    break
            if ok and total - 1 - n - i0 >= 2 * n:
                return PeriodFound(
                    n, i0, [h if h is not None else one for h in ratios]
                )
    return NoWitnessUpTo(n_max, i0_max)


def reconstruct_from_witness(gs, witness, upto):
    """Extend the series coefficients using the witness and return them.

    Coefficients up to the offset plus one period are copied from the
    input; beyond that each value is the ratio times the value one period
    earlier, realizing the closed form of the forward direction.
    """
    keep = witness.offset + witness.period + 1
    if keep > len(gs):
        raise PrecisionError("witness needs %d initial coefficients" % keep)
    out = list(gs.coeffs[:keep])
    for i in range(keep, upto):
        prev = out[i - witness.period]
        if prev is None:
            out.append(None)
        else:
            h = witness.ratio_for(i - witness.period)
            out.append(
                FractionElem(prev.num.mul(h.num), prev.den.mul(h.den))
            )
    return GroupSeries(out)
