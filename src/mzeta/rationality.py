"""Three notions of rationality for truncated power series, as bounded
executable tests, plus exact rational reconstruction and the periodic-ratio
criterion for series with coefficients in a group of fractions.

The notions, in decreasing strength:

* global: f is the unique solution of g(t) x = h(t) for polynomials g, h.
  Verified by checking the product to the available precision and
  certifying uniqueness through the annihilator of the coefficients of g:
  it is zero iff some coefficient is nonzero (over Z, Z[vars] and Q) or has
  a nonzero constant term (over a square-zero quotient).
* determinantal: the (m+1) x (m+1) shifted Hankel determinants of the
  coefficients eventually vanish.  Tested on a bounded (m, offset) grid.
* pointwise: after every ring homomorphism to a field the image series is
  rational.  Tested for user-supplied homomorphisms by coefficientwise
  substitution followed by exact Pade reconstruction.

All verdicts are bounded-window statements, never absolute claims.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import mul

from .errors import (
    InvalidInputError,
    InvalidMeasureError,
    PrecisionError,
)
from .rings import (
    NUMBERS,
    QQ,
    FractionElem,
    JsonPayload,
    MultiPoly,
    _check_int,
    _kronecker,
    eval_poly,
    frac_from_json,
)
from .series import TruncSeries, poly_str, poly_trim


# ---------------------------------------------------------------------------
# determinants


def _scaled_ints(values):
    """The rationals in values times the lcm D of their denominators, as
    ints, and D."""
    ratios = [c.as_integer_ratio() for c in values]
    scale = math.lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios], scale


def _bareiss_step(m, r, c, prev):
    """One fraction-free elimination step (Bareiss 1968) on a matrix of
    Python ints, in place: clear column c below the pivot m[r][c], where
    prev is the pivot of the step before (1 at the first).  Each entry right
    of c below row r becomes the minor on the pivot rows and columns so far
    plus its own row and column, so the division by prev is exact.  Returns
    the pivot."""
    pivot_row = m[r]
    pivot = pivot_row[c]
    width = len(pivot_row)
    # column c below the pivot is left stale: nothing reads it again
    for row in m[r + 1 :]:
        a = row[c]
        for j in range(c + 1, width):
            row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
    return pivot


def _int_echelon(m, n_cols):
    """Fraction-free row echelon form of a matrix of Python ints, in place,
    pivoting on the first n_cols columns by _bareiss_step.  A column with no
    nonzero entry at or below the current row is skipped, and a zero pivot
    is exchanged for the first nonzero entry below it, so each pivot is the
    leading minor on the pivot columns of the permuted rows.  Returns the
    pivots as (row, column) pairs and the sign of the row permutation."""
    n_rows = len(m)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for i in range(r, n_rows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        prev = _bareiss_step(m, r, c, prev)
        pivots.append((r, c))
        r += 1
    return pivots, sign


def _int_det(m):
    """Determinant of a square matrix of Python ints, by _int_echelon in
    place."""
    pivots, sign = _int_echelon(m, len(m))
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1]


def determinant(rows, ring):
    """Exact determinant of a square matrix over Z or Q.

    Bareiss elimination (_int_echelon) runs on plain ints: a Q matrix is
    first scaled by the lcm of its denominators, and its determinant
    becomes a Fraction once, at the end.  Other rings raise
    InvalidInputError.  hankel_test does not call this: over Z and Q it
    scales a grid's coefficients once and reads each offset's cells off one
    elimination (_hankel_dets), and over Z[vars] or a square-zero quotient
    it fills the grid from its own table of minors (_hankel_minors), which
    needs no division.
    """
    if ring.kind not in ("integers", "fraction"):
        raise InvalidInputError("determinant needs entries in Z or Q")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant of a non-square matrix")
    if n == 0:
        return ring.one()
    if ring.kind == "integers":
        return ring.from_int(_int_det([[a.as_int() for a in r] for r in rows]))
    flat, den = _scaled_ints([a for r in rows for a in r])
    ints = [flat[i : i + n] for i in range(0, n * n, n)]
    return Fraction(_int_det(ints), den**n)


# ---------------------------------------------------------------------------
# determinantal rationality


class HankelReport(JsonPayload):
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

    def payload(self):
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
            "determinants": [list(row) for row in self.grid],
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


def _hankel_minors(coeffs, ring):
    """One table of Hankel minors for a whole grid over Z[vars] or a
    square-zero quotient, where no division is cheap or even defined.

    minor(S) is the determinant of rows 0..k-1 and the k absolute columns in
    the bit set S, with entries a_{r+c}.  Rows 1..k-1 over columns T are rows
    0..k-2 over T shifted by one, so expansion along row 0 reads
    minor(S) = sum over c in S of +-a_c minor((S - c) << 1), skipping zero
    entries, as one ring.dot.  Cell (m, i) is minor(((1 << (m+1)) - 1) << i),
    and cells share every minor they have in common.

    The table uses only ring.neg, ring.dot and ring.one, so it commutes
    with any ring map: given the images of the coefficients under one
    (hankel_test's v -> 2^b), it holds the images of the minors.
    """
    nonzero = [not ring.is_zero(a) for a in coeffs]
    # signed[0][c] = a_c and signed[1][c] = -a_c
    signed = (coeffs, [ring.neg(a) for a in coeffs])
    memo = {0: ring.one()}

    def minor(cols):
        hit = memo.get(cols)
        if hit is not None:
            return hit
        pairs = []
        odd = 0
        rest = cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            c = bit.bit_length() - 1
            if nonzero[c]:
                pairs.append((signed[odd][c], minor((cols ^ bit) << 1)))
            odd ^= 1
        memo[cols] = total = ring.dot(pairs)
        return total

    return minor


def _hankel_dets(ints, i, size):
    """The determinants of the Hankel blocks a_{i+r+c} of orders 1..size,
    for Python ints a, from one fraction-free elimination of the block of
    order size without row exchanges: its k-th pivot is the leading minor
    of order k + 1, which is the block of that order.  The pivots are read
    up to the first zero one, s; past it a pivot would need an exchange and
    would no longer be a leading minor, so each larger block is its own
    determinant (_int_det)."""
    block = [ints[i + r : i + r + size] for r in range(size)]
    dets = []
    prev = 1
    for k in range(size):
        dets.append(block[k][k])
        if not dets[-1]:
            break
        prev = _bareiss_step(block, k, k, prev)
    for k in range(len(dets) + 1, size + 1):
        dets.append(_int_det([ints[i + r : i + r + k] for r in range(k)]))
    return dets


def hankel_test(f, m_max, offset_max):
    """Shifted Hankel determinants of the series coefficients on a bounded
    grid of orders m <= m_max and offsets i <= offset_max.

    Over Z and Q the coefficients are scaled to ints once per grid, by the
    lcm D of their denominators, and each offset's column of cells comes
    from one fraction-free elimination (_hankel_dets); a Q cell of order
    m + 1 is that integer minor over D^(m+1).  Over Z[vars] and a
    square-zero quotient one table of minors
    (_hankel_minors) fills the grid.  Over Z[vars] the table usually runs
    on the images of the coefficients under v -> 2^b for one variable v
    (rings._kronecker), which turns each group of terms that differ only
    in v into one Python int, so one int product replaces a product of
    two groups.  The coefficients are packed once per grid and each cell
    is decoded once.  The bound on a cell's coefficients is
    prod over rows r of sum over columns c of |a_{i+r+c}|_1 for cell
    (m, i), since |pq|_1 <= |p|_1 |q|_1 for the l1 norm.
    """
    _check_int(m_max, "m_max")
    _check_int(offset_max, "offset_max")
    if m_max < 0 or offset_max < 0:
        raise InvalidInputError("bounds must be nonnegative")
    need = offset_max + 2 * m_max + 1
    if f.precision < need:
        raise PrecisionError(
            "hankel grid needs precision %d, series has %d" % (need, f.precision)
        )
    ring = f.ring
    a = [f.coefficient(k) for k in range(need)]
    if ring.kind in ("integers", "fraction"):
        if ring.kind == "integers":
            ints, dens = [c.as_int() for c in a], None
        else:
            ints, scale = _scaled_ints(a)
            dens = [scale ** (m + 1) for m in range(m_max + 1)]
        columns = [_hankel_dets(ints, i, m_max + 1) for i in range(offset_max + 1)]

        def cell(m, i):
            det = columns[i][m]
            return ring.from_int(det) if dens is None else Fraction(det, dens[m])

    else:

        def bound(norms):
            [norm] = norms
            return max(
                math.prod(sum(norm[i + r : i + r + m + 1]) for r in range(m + 1))
                for m in range(m_max + 1)
                for i in range(offset_max + 1)
            )

        (a,), unpack = _kronecker(ring, [a], bound)
        minor = _hankel_minors(a, ring)

        def cell(m, i):
            det = minor(((1 << (m + 1)) - 1) << i)
            return det if unpack is None else unpack(det)

    grid = [[cell(m, i) for i in range(offset_max + 1)] for m in range(m_max + 1)]
    return HankelReport(ring, m_max, offset_max, grid)


# ---------------------------------------------------------------------------
# global rationality


class VerifyGlobalReport:
    """Product check plus the uniqueness certificate for g f = h."""

    def __init__(self, product_ok, uniqueness, precision):
        self.product_ok = product_ok
        # "certified" when the coefficients of g have a zero annihilator (one
        # is nonzero, or over a square-zero quotient one has a nonzero
        # constant term), else "fails"
        self.uniqueness = uniqueness
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


# packing pays from about this many term products per term of f: on the
# benchmark's closed forms it took 0.5-0.9 of the plain time from 11 on
# and 1.2-2.2x as long below 8 (Python 3.11, 2-vCPU VM)
_PACKED_WORK_PER_TERM = 10


def _product_holds(ring, f, factors, h):
    """Whether g_1 ... g_k f = h mod t^n for the coefficient lists f (of
    length n), h and factors = [g_1, ..., g_k].  f is multiplied by one
    factor at a time, so the expanded product never meets f.  Over Z[vars]
    enough work runs on the images of all operands under v -> 2^b
    (rings._kronecker), compared without decoding, with the bound on the
    product minus h taken factor by factor: |(g f)_n|_1 <= sum_i |g_i|_1
    |f_(n-i)|_1, plus |h_n|_1."""
    n = len(f)

    def bound(norms):
        norm, h_norm, *factor_norms = norms
        for g in factor_norms:
            norm = [sum(map(mul, g[: k + 1], norm[k::-1])) for k in range(n)]
        return max(map(sum, zip_longest(norm, h_norm, fillvalue=0)))

    if ring.kind == "poly":
        # g_i meets the terms of f_0 .. f_(n-1-i), prefix[n-i] of them
        prefix = [0, *accumulate(len(p.terms) for p in f)]
        work = sum(len(c.terms) * prefix[n - i] for g in factors for i, c in enumerate(g))
        if work >= _PACKED_WORK_PER_TERM * prefix[n]:
            f, h, *factors = _kronecker(ring, [f, h, *factors], bound)[0]
    product = TruncSeries(ring, f)
    for g in factors:
        product = TruncSeries.from_polynomial(ring, g, n).mul(product)
    return product.eq(TruncSeries.from_polynomial(ring, h, n))


def verify_global(f, g, h):
    """Check that f solves g(t) x = h(t) and that the solution is unique.

    g and h are coefficient lists over the ring of f.  Uniqueness holds iff
    the annihilator of the ideal generated by the coefficients of g is zero.
    Over the domains Z, Z[vars] and Q that means some coefficient is
    nonzero.  Over a square-zero quotient Z[vars]/(v^2) it means some
    coefficient has a nonzero constant term: c + n with c a nonzero integer
    and n nilpotent is no zero divisor (a c = -a n gives a c^m = +-a n^m = 0
    for large m, and the ring is torsion-free), while if every constant term
    is 0 the product of all the variables of g kills every coefficient.
    """
    ring = f.ring
    n = f.precision
    if len(g) > n or len(h) > n:
        raise PrecisionError(
            "polynomial degrees must stay below the series precision"
        )
    if not g:
        raise InvalidInputError("g must have at least one coefficient")
    product_ok = _product_holds(ring, f.coeffs, [g], h)
    if ring.kind == "square_zero":
        regular = any(c.constant_term() != 0 for c in g)
    else:
        regular = any(not ring.is_zero(c) for c in g)
    uniqueness = "certified" if regular else "fails"
    return VerifyGlobalReport(product_ok, uniqueness, n)


# ---------------------------------------------------------------------------
# linear solving and Pade reconstruction over a field


def solve_linear(ring, rows, rhs):
    """Exact solution of rows . x = rhs over Q.

    Each augmented row is scaled by the lcm of its denominators and the
    integer system is brought to echelon form without fractions
    (_int_echelon); pivot columns are the first nonzero ones, as in
    Gaussian elimination.  Returns one solution with free variables set to
    zero, as Fractions in lowest terms, or None when the system is
    inconsistent.
    """
    if ring is not QQ:
        raise InvalidInputError("linear solving needs a field")
    n_var = len(rows[0]) if rows else 0
    aug = [_scaled_ints(list(row) + [b])[0] for row, b in zip(rows, rhs)]
    pivots, _ = _int_echelon(aug, n_var)
    for i in range(len(pivots), len(aug)):
        if aug[i][n_var]:
            return None
    # by Cramer's rule the solution on the pivot columns times the last
    # pivot is integral, so back-substitution divides exactly
    scale = aug[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    y = [0] * n_var
    for ri, c in reversed(pivots):
        row = aug[ri]
        acc = scale * row[n_var] - sum(row[j] * y[j] for j in range(c + 1, n_var))
        y[c] = acc // row[c]
    return [Fraction(v, scale) for v in y]


class PadeResult(JsonPayload):
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

    def payload(self):
        out = {"den_deg": self.den_deg, "success": self.success}
        if self.success:
            out["num"] = list(self.num)
            out["den"] = list(self.den)
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
    deg h <= den_deg, over Q.

    The series is scaled to integers by the lcm of its denominators once:
    the window system for g is solved fraction-free (solve_linear), and the
    tail of g f is checked by an integer convolution, so num and den become
    Fractions in lowest terms only at the end.  Needs precision
    >= 2 den_deg + 2 so that the defining window is overdetermined and the
    tail check is meaningful.
    """
    _check_int(den_deg, "denominator degree")
    ring = f.ring
    if ring is not QQ:
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
    # f scaled to integers by the lcm of its denominators: the window
    # system and the tail check both read these
    ints, a_scale = _scaled_ints(f.coeffs)
    if d > 0:
        window = range(d + 1, 2 * d + 2)
        rows = [ints[k - d : k][::-1] for k in window]
        sol = solve_linear(ring, rows, [-ints[k] for k in window])
        if sol is None:
            return PadeResult(ring, d, reason="window system inconsistent")
        den = [ring.one()] + sol
    else:
        den = [ring.one()]
    # coefficient k of g f over Z is g . (ints[k], ints[k-1], ...)
    g, den_scale = _scaled_ints(den)
    back = ints[::-1]

    def gf(k):
        return sum(map(mul, g, back[n - 1 - k :]))

    for k in range(d + 1, n):
        if gf(k):
            return PadeResult(
                ring, d, reason="tail coefficient %d nonzero" % k
            )
    scale = den_scale * a_scale
    num = poly_trim(ring, [Fraction(gf(k), scale) for k in range(d + 1)])
    return PadeResult(ring, d, num=num, den=poly_trim(ring, den))


# ---------------------------------------------------------------------------
# pointwise rationality


def _check_images(assignment):
    """Reject a variable image that is not an int or a Fraction; a bool is
    not an image."""
    for v, x in assignment.items():
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidMeasureError(
                "image of %r must be an integer or a Fraction, got %s"
                % (v, type(x).__name__)
            )


def _eval_poly_at(poly, assignment):
    """poly at the checked images of its variables, a Fraction in lowest
    terms: "*" stands for every variable the assignment does not list, and
    rings.eval_poly sums the terms in NUMBERS."""
    if "*" in assignment:
        default = assignment["*"]
        assignment = {v: assignment.get(v, default) for v in poly.variables()}
    return Fraction(eval_poly(poly, assignment, NUMBERS))


def apply_measure(f, assignment):
    """Apply a ring homomorphism to a field, given as variable images, to
    every coefficient; returns a series over the rationals.

    The assignment maps variable names to ints or Fractions, and anything
    else (a bool, a float, a string) is an InvalidMeasureError; the key "*"
    supplies a default for unlisted variables.  Each coefficient is
    evaluated by rings.eval_poly in Python numbers.  Homomorphisms out of a
    square-zero quotient must kill every variable.
    """
    _check_images(assignment)
    ring = f.ring
    if ring == QQ:
        return f
    if ring.kind == "square_zero":
        for v, x in assignment.items():
            if v != "*" and x != 0:
                raise InvalidMeasureError(
                    "image of square-zero variable %r must be 0" % v
                )
        if assignment.get("*", 0) != 0:
            raise InvalidMeasureError(
                "default image in a square-zero ring must be 0"
            )
    return f.map_coefficients(lambda c: _eval_poly_at(c, assignment), QQ)


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
    degree at most min(d_max, (precision - 2) // 2), the largest degree
    pade_reconstruct accepts; one verdict per measure.  A failed verdict
    reports that bound, the last degree tried."""
    _check_int(d_max, "d_max")
    if d_max < 0:
        raise InvalidInputError("negative denominator degree")
    limit = min(d_max, (f.precision - 2) // 2)
    if limit < 0:
        raise PrecisionError(
            "pointwise test needs precision 2, series has %d" % f.precision
        )
    verdicts = []
    for assignment in measures:
        image = apply_measure(f, assignment)
        result = None
        for d in range(limit + 1):
            attempt = pade_reconstruct(image, d)
            if attempt.success:
                result = attempt
                break
        if result is None:
            result = PadeResult(QQ, limit, reason="no degree succeeded")
        verdicts.append(PointwiseVerdict(assignment, result))
    return verdicts


# ---------------------------------------------------------------------------
# the periodic-ratio criterion


class GroupSeries(JsonPayload):
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

    def payload(self):
        return {
            "coeffs": [
                None if c is None else {"num": c.num, "den": c.den} for c in self.coeffs
            ]
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise InvalidInputError("expected a group series object with a 'coeffs' list")
        return cls(
            [None if c is None else frac_from_json(c) for c in obj["coeffs"]]
        )

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            parts.append("0" if c is None else str(c))
        return "[" + ", ".join(parts) + "]"


class PeriodFound(JsonPayload):
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

    def payload(self):
        return {
            "found": True,
            "period": self.period,
            "offset": self.offset,
            "ratios": [{"num": h.num, "den": h.den} for h in self.ratios],
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


class NoWitnessUpTo(JsonPayload):
    """Negative verdict: no (n, i0) within the searched bounds works."""

    def __init__(self, n_max, i0_max):
        self.n_max = n_max
        self.i0_max = i0_max

    @property
    def found(self):
        return False

    def payload(self):
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
    _check_int(n_max, "n_max")
    _check_int(i0_max, "i0_max")
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
