"""Graded measures of surfaces and the periodic-ratio harness.

The geometry comes in as plain integers: irregularity q, geometric genus
pg, the plurigenus list P1, P2, ..., and optionally virtual dimensions
h1n for n >= 2.  The degree-one measure of a surface is the graded space
1 + q s + pg s^2 in Z[s]; the n-th is 1 + h1n s + P_n s^2.  Measures of
symmetric powers come from the graded lambda operations for n = 1; for
n >= 2 that identity is not available, so only three coefficient tracks
are certified: the constant term (always 1), the s^1 value, and the
leading term C(P_n + m - 1, m) in degree 2m.

The harness turns the sequence of measures into a group series over the
monoid of constant-term-1 polynomials and looks for a periodic
coefficient-ratio witness; independently it checks a growth certificate:
when the leading coefficients are strictly increasing along strictly
increasing degrees, a finite log-concavity comparison rules out every
periodic window that fits inside the computed range.
"""

import json
import math

from .errors import InvalidInputError, MissingDataError
from .lambda_rings import graded_dims, graded_lambda_sequence, graded_space
from .rationality import (
    GroupSeries,
    NoWitnessUpTo,
    PeriodFound,
    periodic_ratio_test,
)
from .rings import JsonPayload, _check_int, _json_int


def _is_int(x):
    # JSON true and false are ints to Python, not plurigenera
    return isinstance(x, int) and not isinstance(x, bool)


class SurfaceData:
    """Numerical invariants of a smooth projective surface.

    plurigenera is the list P1, P2, ...; P1 must equal pg.  h1n maps
    n >= 2 to the virtual dimension in degree one, which may be negative.
    """

    def __init__(self, q, pg, plurigenera, h1n=None):
        if not _is_int(q) or q < 0:
            raise InvalidInputError("irregularity must be a nonnegative integer")
        if not _is_int(pg) or pg < 0:
            raise InvalidInputError("geometric genus must be a nonnegative integer")
        plurigenera = list(plurigenera)
        if not plurigenera:
            raise InvalidInputError("need at least one plurigenus")
        for value in plurigenera:
            if not _is_int(value) or value < 0:
                raise InvalidInputError("plurigenera must be nonnegative integers")
        if plurigenera[0] != pg:
            raise InvalidInputError("P1 must equal the geometric genus")
        self.q = q
        self.pg = pg
        self.plurigenera = plurigenera
        self.h1n = {}
        for key, value in (h1n or {}).items():
            n = _json_int(key, "h1n index")
            if n < 2:
                raise InvalidInputError("h1n indices start at 2")
            if not _is_int(value):
                raise InvalidInputError("h1n values must be integers")
            self.h1n[n] = value

    def plurigenus(self, n):
        if n < 1:
            raise InvalidInputError("plurigenus index must be positive")
        if n > len(self.plurigenera):
            raise MissingDataError("plurigenus P%d not supplied" % n)
        return self.plurigenera[n - 1]

    def h1(self, n):
        if n == 1:
            return self.q
        if n not in self.h1n:
            raise MissingDataError("h1 in degree %d not supplied" % n)
        return self.h1n[n]

    @classmethod
    def from_text(cls, text):
        """Parse the compact form "q=2,pg=1,P=1,1,1,1[,h1=0,3]"."""
        fields = {}
        current = None
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                if key in fields:
                    raise InvalidInputError("surface field %r is given twice" % key)
                fields[key] = [value.strip()]
                current = key
            else:
                if current is None:
                    raise InvalidInputError(
                        "surface data must start with key=value"
                    )
                fields[current].append(token)
        unknown = set(fields) - {"q", "pg", "P", "h1"}
        if unknown:
            raise InvalidInputError(
                "unknown surface fields: %s" % ", ".join(sorted(unknown))
            )
        if "q" not in fields or "pg" not in fields or "P" not in fields:
            raise InvalidInputError("surface data needs q, pg, and P")

        def ints(key):
            return [_json_int(v, "surface field %s" % key) for v in fields[key]]

        q = ints("q")
        pg = ints("pg")
        if len(q) != 1 or len(pg) != 1:
            raise InvalidInputError("q and pg take a single value")
        h1n = None
        if "h1" in fields:
            h1n = {n + 2: v for n, v in enumerate(ints("h1"))}
        return cls(q[0], pg[0], ints("P"), h1n)

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except ValueError as e:
                raise InvalidInputError("surface data is not valid JSON: %s" % e) from None
        if not isinstance(obj, dict) or not {"q", "pg", "plurigenera"} <= obj.keys():
            raise InvalidInputError("surface data needs an object with q, pg and plurigenera")
        if not isinstance(obj["plurigenera"], list) or not isinstance(obj.get("h1n") or {}, dict):
            raise InvalidInputError("plurigenera must be a list and h1n an object")
        return cls(
            obj["q"],
            obj["pg"],
            obj["plurigenera"],
            obj.get("h1n"),
        )

    def to_json(self):
        out = {"q": self.q, "pg": self.pg, "plurigenera": list(self.plurigenera)}
        if self.h1n:
            out["h1n"] = {str(n): v for n, v in sorted(self.h1n.items())}
        return out

    def __eq__(self, other):
        if not isinstance(other, SurfaceData):
            return NotImplemented
        return (
            self.q == other.q
            and self.pg == other.pg
            and self.plurigenera == other.plurigenera
            and self.h1n == other.h1n
        )

    __hash__ = None

    def __str__(self):
        parts = ["q=%d" % self.q, "pg=%d" % self.pg]
        parts.append("P=" + ",".join(str(p) for p in self.plurigenera))
        if self.h1n:
            top = max(self.h1n)
            vals = [str(self.h1n.get(n, 0)) for n in range(2, top + 1)]
            parts.append("h1=" + ",".join(vals))
        return ",".join(parts)


def mu(surface, n):
    """The n-th graded measure 1 + h1n s + P_n s^2 of the surface."""
    _check_int(n, "measure index")
    if n < 1:
        raise InvalidInputError("measure index must be positive")
    return graded_space([1, surface.h1(n), surface.plurigenus(n)])


class MeasureSequence(JsonPayload):
    """Measures of the symmetric powers Sym^m X for m = 0..M, in Z[s]."""

    def __init__(self, entries):
        entries = list(entries)
        for entry in entries:
            if graded_dims(entry)[0] != 1:
                raise InvalidInputError("measure entries have constant term 1")
        self.entries = entries

    def entry(self, m):
        return self.entries[m]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def payload(self):
        return {"entries": list(self.entries)}

    def __str__(self):
        return "\n".join(
            "m=%d: %s" % (m, e) for m, e in enumerate(self.entries)
        )


def mu_sym_sequence(surface, M):
    """Measures of Sym^m X for m = 0..M via the graded lambda operations."""
    _check_int(M, "bound M")
    if M < 0:
        raise InvalidInputError("need a nonnegative bound")
    return MeasureSequence(graded_lambda_sequence(mu(surface, 1), M))


def hilb_leading_term(surface, n, m):
    """Leading coefficient of the n-th measure of the m-point Hilbert model,
    the dimension of Sym^m of a P_n-dimensional space: C(P_n + m - 1, m)."""
    _check_int(n, "measure index")
    _check_int(m, "power m")
    if m < 0:
        raise InvalidInputError("need a nonnegative power")
    P = surface.plurigenus(n)
    if P == 0:
        return 1 if m == 0 else 0
    return math.comb(P + m - 1, m)


class BoundednessReport:
    """Fixed-degree coefficient track of a measure sequence.

    Carries the s^j values across all entries, the constancy check of the
    s^1 track from m >= 1 on, and the leading (degree 2m) track.
    """

    def __init__(self, j, values, s1_values, leading_values, degrees):
        self.j = j
        self.values = values
        self.s1_values = s1_values
        self.leading_values = leading_values
        self.degrees = degrees

    @property
    def max_value(self):
        return max(self.values) if self.values else 0

    @property
    def s1_constant(self):
        tail = self.s1_values[1:]
        return all(v == tail[0] for v in tail) if tail else True

    @property
    def leading_strictly_increasing(self):
        pairs = zip(self.leading_values[1:], self.leading_values[2:])
        return all(b > a for a, b in pairs)

    def head(self, n):
        """The report on the first n entries of the sequence."""
        return BoundednessReport(
            self.j,
            self.values[:n],
            self.s1_values[:n],
            self.leading_values[:n],
            self.degrees[:n],
        )

    def to_json(self):
        return {
            "degree": self.j,
            "values": list(self.values),
            "max": self.max_value,
            "s1_values": list(self.s1_values),
            "s1_constant": self.s1_constant,
            "leading_values": list(self.leading_values),
            "entry_degrees": list(self.degrees),
        }

    def __str__(self):
        return (
            "s^%d track %s (max %d); s^1 track %s (%s); leading track %s"
            % (
                self.j,
                self.values,
                self.max_value,
                self.s1_values,
                "constant from m=1" if self.s1_constant else "not constant",
                self.leading_values,
            )
        )


def boundedness_check(seq, j):
    """Track the s^j coefficients across a measure sequence."""
    _check_int(j, "track degree")
    if j < 0:
        raise InvalidInputError("track degree must be nonnegative")
    if not len(seq):
        raise InvalidInputError("empty measure sequence")
    dims = [dict(enumerate(graded_dims(e))) for e in seq]
    values = [d.get(j, 0) for d in dims]
    s1 = [d.get(1, 0) for d in dims]
    leading = [d.get(2 * m, 0) for m, d in enumerate(dims)]
    degrees = [len(d) - 1 for d in dims]
    return BoundednessReport(j, values, s1, leading, degrees)


class GrowthCertificate:
    """Finite refutation of periodic ratios from coefficient trends.

    argument "tracks": constant terms are 1, degrees strictly increase, and
    the strictly increasing leading coefficients fail the log-concavity
    equality lead(i+n)^2 = lead(i) lead(i+2n) demanded by any periodic
    ratio whose window i0 + 2n fits inside the computed range; that rules
    out every such window regardless of period bound.  argument "direct":
    the trends alone do not obstruct, but the ratio search refuted every
    window inside its box.  argument "found" / "insufficient": no
    refutation.
    """

    def __init__(self, argument, holds, window, conclusion, checked=0):
        self.argument = argument
        self.holds = holds
        self.window = window
        self.conclusion = conclusion
        self.checked = checked

    def to_json(self):
        return {
            "argument": self.argument,
            "holds": self.holds,
            "window": self.window,
            "conclusion": self.conclusion,
            "windows_checked": self.checked,
        }

    def __str__(self):
        return "certificate (%s, %s): %s" % (
            self.argument,
            "holds" if self.holds else "does not hold",
            self.conclusion,
        )


def _track_certificate(leading, degrees, claim_bound):
    """Try the log-concavity refutation on the leading track.

    leading[m] and degrees[m] must extend at least one entry past
    claim_bound, since refuting the window (n, i0) compares the triple at
    i0 + 1, i0 + 1 + n, i0 + 1 + 2n.  Returns a GrowthCertificate, or None
    when the trends do not apply.
    """
    top = len(leading) - 1
    claim_bound = min(claim_bound, top - 1)
    rising_values = all(
        leading[m + 1] > leading[m] for m in range(1, top)
    )
    rising_degrees = all(
        degrees[m + 1] > degrees[m] for m in range(top)
    )
    if not (rising_values and rising_degrees and claim_bound >= 2):
        return None
    checked = 0
    for n in range(1, claim_bound // 2 + 1):
        for i0 in range(0, claim_bound - 2 * n + 1):
            i = i0 + 1
            checked += 1
            if leading[i + n] * leading[i + n] == leading[i] * leading[i + 2 * n]:
                return GrowthCertificate(
                    "tracks",
                    False,
                    claim_bound,
                    "leading track is log-concave at i=%d, n=%d; "
                    "trends do not refute that window" % (i, n),
                    checked,
                )
    return GrowthCertificate(
        "tracks",
        True,
        claim_bound,
        "constant terms are 1, degrees strictly increase, and the leading "
        "track refutes every periodic window with i0 + 2n <= %d"
        % claim_bound,
        checked,
    )


class HarnessReport(JsonPayload):
    """Full outcome of the irrationality harness on one surface.

    In mode "full", boundedness is the s^1 BoundednessReport of the
    displayed sequence; it is not part of the payload.
    """

    def __init__(
        self,
        surface,
        n,
        M,
        applicable,
        note,
        mode=None,
        sequence=None,
        witness=None,
        certificate=None,
        tracks=None,
        boundedness=None,
    ):
        self.surface = surface
        self.n = n
        self.M = M
        self.applicable = applicable
        self.note = note
        self.mode = mode
        self.sequence = sequence
        self.witness = witness
        self.certificate = certificate
        self.tracks = tracks
        self.boundedness = boundedness

    def payload(self):
        out = {
            "surface": self.surface.to_json(),
            "n": self.n,
            "M": self.M,
            "applicable": self.applicable,
            "note": self.note,
        }
        if self.mode is not None:
            out["mode"] = self.mode
        if self.sequence is not None:
            out["sequence"] = self.sequence.payload()
        if self.witness is not None:
            out["witness"] = self.witness.payload()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.tracks is not None:
            out["tracks"] = self.tracks
        return out

    def __str__(self):
        lines = ["harness on %s, n=%d, M=%d" % (self.surface, self.n, self.M)]
        if not self.applicable:
            lines.append("  inapplicable: %s" % self.note)
            return "\n".join(lines)
        lines.append("  mode: %s (%s)" % (self.mode, self.note))
        if self.witness is not None:
            lines.append("  witness search: %s" % self.witness)
        if self.certificate is not None:
            lines.append("  %s" % self.certificate)
        return "\n".join(lines)


def irrationality_harness(surface, n, M, n_max=4, i0_max=6):
    """Search the measure sequence of Sym^m X for a periodic-ratio witness
    and independently certify its absence from coefficient trends.

    For n = 1 the full sequence is available and both the direct search
    and the growth certificate run.  For n >= 2 only the constant, s^1,
    and leading tracks are certified, so only the trend certificate can
    apply, and the report says so.
    """
    for value, what in ((n, "measure index"), (M, "bound M"), (n_max, "n_max"),
                        (i0_max, "i0_max")):
        _check_int(value, what)
    if n < 1:
        raise InvalidInputError("measure index must be positive")
    if M < 2:
        raise InvalidInputError("need at least entries up to m = 2")
    if all(p == 0 for p in surface.plurigenera):
        note = "no plurigenus is positive, so the harness hypothesis fails"
        if surface.q == 0:
            note += (
                "; every measure is 1 and the generating series is the "
                "rational 1/(1 - t)"
            )
        return HarnessReport(surface, n, M, False, note)
    if n == 1:
        need = max(M + 1, i0_max + 3 * n_max)
        seq = mu_sym_sequence(surface, need)
        gs = GroupSeries.from_polynomials(seq, check_monoid=True)
        witness = periodic_ratio_test(gs, n_max, i0_max)
        track = boundedness_check(seq, 1)
        certificate = _track_certificate(track.leading_values, track.degrees, M)
        if certificate is None or not certificate.holds:
            if isinstance(witness, NoWitnessUpTo):
                certificate = GrowthCertificate(
                    "direct",
                    True,
                    M,
                    "trends alone do not obstruct a witness; every window "
                    "with n <= %d, i0 <= %d was refuted by direct ratio "
                    "comparison" % (n_max, i0_max),
                )
            else:
                certificate = GrowthCertificate(
                    "found",
                    False,
                    M,
                    "the sequence admits the periodic ratio exhibited by "
                    "the witness search",
                )
        display = MeasureSequence(list(seq)[: M + 1])
        return HarnessReport(
            surface,
            n,
            M,
            True,
            "full measure sequence computed through m=%d" % need,
            mode="full",
            sequence=display,
            witness=witness,
            certificate=certificate,
            boundedness=track.head(M + 1),
        )
    # n >= 2: the lambda identity is unavailable; only three tracks are
    # certified and the direct ratio search cannot run.
    leading = [hilb_leading_term(surface, n, m) for m in range(M + 2)]
    P = surface.plurigenus(n)
    degrees = [2 * m if P else 0 for m in range(M + 2)]
    tracks = {
        "constant": [1] * (M + 1),
        "leading": leading[: M + 1],
        "s1": surface.h1n.get(n),
    }
    certificate = _track_certificate(leading, degrees, M)
    if certificate is None:
        certificate = GrowthCertificate(
            "insufficient",
            False,
            M,
            "the certified tracks (constant, s^1, leading) do not trend "
            "strongly enough to refute a witness",
        )
    return HarnessReport(
        surface,
        n,
        M,
        True,
        "only the constant, s^1, and leading tracks are certified for "
        "measures of index 2 or more",
        mode="tracks",
        witness=None,
        certificate=certificate,
        tracks=tracks,
    )
