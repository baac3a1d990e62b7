"""Tests for surface invariants, measure sequences, and the harness."""

import io
import json
import random

import pytest

from mzeta import cli
from mzeta.errors import DegreeCutoffError, InvalidInputError, MissingDataError
from mzeta.lambda_rings import graded_dims, graded_lambda_sequence, graded_space
from mzeta.measures import (
    BoundednessReport,
    GrowthCertificate,
    MeasureSequence,
    SurfaceData,
    boundedness_check,
    hilb_leading_term,
    irrationality_harness,
    mu,
    mu_sym_sequence,
)
from mzeta.oracles import binom, multiset_graded_lambda
from mzeta.rationality import NoWitnessUpTo, PeriodFound


def k3():
    return SurfaceData(q=0, pg=1, plurigenera=[1, 1, 1, 1, 1])


def abelian():
    return SurfaceData(q=2, pg=1, plurigenera=[1, 1, 1])


def general_type():
    # pg = 2 and strictly climbing plurigenera.
    return SurfaceData(q=0, pg=2, plurigenera=[2, 3, 4, 5, 6])


def rational_like():
    return SurfaceData(q=0, pg=0, plurigenera=[0, 0, 0])


# ---------------------------------------------------------------- surface data


def test_surface_validation():
    with pytest.raises(InvalidInputError):
        SurfaceData(q=0, pg=1, plurigenera=[2])  # P1 != pg
    with pytest.raises(InvalidInputError):
        SurfaceData(q=-1, pg=0, plurigenera=[0])
    with pytest.raises(InvalidInputError):
        SurfaceData(q=0, pg=0, plurigenera=[])
    with pytest.raises(InvalidInputError):
        SurfaceData(q=0, pg=1, plurigenera=[1, -2])
    with pytest.raises(InvalidInputError):
        SurfaceData(q=0, pg=1, plurigenera=[1], h1n={1: 0})


def test_surface_accessors():
    s = general_type()
    assert s.plurigenus(1) == 2
    assert s.plurigenus(5) == 6
    with pytest.raises(MissingDataError):
        s.plurigenus(6)
    assert s.h1(1) == 0
    with pytest.raises(MissingDataError):
        s.h1(2)
    t = SurfaceData(q=3, pg=1, plurigenera=[1, 2], h1n={2: -1})
    assert t.h1(1) == 3
    assert t.h1(2) == -1


def test_surface_from_text():
    s = SurfaceData.from_text("q=2,pg=1,P=1,1,1")
    assert s == abelian()
    t = SurfaceData.from_text(" q=0, pg=1, P=1, 1, h1 = 0, 4 ")
    assert t.h1n == {2: 0, 3: 4}
    with pytest.raises(InvalidInputError):
        SurfaceData.from_text("q=2,pg=1,P=1,genus=3")
    with pytest.raises(InvalidInputError):
        SurfaceData.from_text("q=2,P=1")
    with pytest.raises(InvalidInputError):
        SurfaceData.from_text("q=two,pg=0,P=0")
    with pytest.raises(InvalidInputError):
        SurfaceData.from_text("1,2,q=0")


def test_surface_text_repeated_key_is_an_error():
    for text, key in [("q=0,pg=1,P=1,1,1,q=2", "'q'"), ("q=0,pg=1,P=1,P=1,1", "'P'"),
                      ("q=0,pg=0,P=0,h1=1,h1=2", "'h1'")]:
        with pytest.raises(InvalidInputError, match=key):
            SurfaceData.from_text(text)


def test_surface_integers_are_ascii_decimals():
    # int() would read each of these as a number: 10, +1, 1 (Arabic-Indic), 20
    for text in ("q=1_0,pg=1,P=1", "q=0,pg=1,P=1,+1", "q=0,pg=\u0661,P=1",
                 "q=0,pg=1,P=1,1,h1=2_0"):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            SurfaceData.from_text(text)
    for key in ("2_0", " 2", "+2", "\u0662"):
        with pytest.raises(InvalidInputError, match="h1n index"):
            SurfaceData(q=0, pg=1, plurigenera=[1, 1], h1n={key: 3})
    with pytest.raises(DegreeCutoffError):
        SurfaceData.from_text("q=0,pg=1,P=1," + "7" * 5000)
    assert SurfaceData(q=0, pg=1, plurigenera=[1, 1], h1n={"2": 3}).h1n == {2: 3}


def test_surface_text_round_trip():
    rng = random.Random(606)
    for _ in range(25):
        pg = rng.randrange(0, 4)
        ps = [pg] + [rng.randrange(0, 9) for _ in range(rng.randrange(1, 5))]
        h1n = None
        if rng.random() < 0.5:
            # contiguous indices from 2, as the compact form writes them
            h1n = {
                j + 2: rng.randrange(-2, 5)
                for j in range(rng.randrange(1, 4))
            }
        s = SurfaceData(rng.randrange(0, 5), pg, ps, h1n)
        assert SurfaceData.from_text(str(s)) == s


def test_surface_str_fills_h1_gaps():
    s = SurfaceData(q=0, pg=1, plurigenera=[1], h1n={2: 0, 4: 3})
    assert "h1=0,0,3" in str(s)


def test_surface_json_round_trip():
    s = SurfaceData(q=1, pg=2, plurigenera=[2, 4], h1n={2: 5})
    blob = json.dumps(s.to_json())
    assert SurfaceData.from_json(blob) == s
    assert SurfaceData.from_json(s.to_json()) == s
    plain = SurfaceData.from_json({"q": 0, "pg": 0, "plurigenera": [0]})
    assert plain.h1n == {}


@pytest.mark.parametrize("text", ["{", "", "q=1", '{"q": 1,}'])
def test_surface_json_that_does_not_parse_is_a_typed_error(text):
    with pytest.raises(InvalidInputError, match="not valid JSON"):
        SurfaceData.from_json(text)


# ------------------------------------------------------------------ measures


def test_mu_examples():
    assert mu(k3(), 1) == graded_space([1, 0, 1])
    assert mu(abelian(), 1) == graded_space([1, 2, 1])
    # with all plurigenera zero and the degree-one term supplied as zero,
    # the higher measures collapse to the unit
    s = SurfaceData(q=0, pg=0, plurigenera=[0, 0], h1n={2: 0})
    assert mu(s, 2) == graded_space([1])
    with pytest.raises(MissingDataError):
        mu(rational_like(), 2)
    with pytest.raises(InvalidInputError):
        mu(k3(), 0)


def test_mu_abelian_is_a_square():
    line = graded_space([1, 1])
    assert mu(abelian(), 1) == line.mul(line)


def test_k3_sym_sequence():
    seq = mu_sym_sequence(k3(), 6)
    assert len(seq) == 7
    for m, entry in enumerate(seq):
        expected = [1 if j % 2 == 0 else 0 for j in range(2 * m + 1)]
        assert graded_dims(entry) == expected


def test_abelian_sym_sequence_spot_values():
    seq = mu_sym_sequence(abelian(), 4)
    assert graded_dims(seq.entry(2))[4] == 1
    for m in range(1, 5):
        dims = graded_dims(seq.entry(m))
        assert dims[1] == 2
        assert len(dims) - 1 == 2 * m


def test_sym_sequence_against_multiset_oracle():
    seq = mu_sym_sequence(abelian(), 6)
    for m in range(7):
        assert graded_dims(seq.entry(m)) == multiset_graded_lambda(
            m, [1, 2, 1]
        )


def test_curve_like_lambda_sanity():
    g = 3
    entries = graded_lambda_sequence(graded_space([1, g]), 5)
    for m, entry in enumerate(entries):
        # coefficient j is C(g, j) for j <= m, and the degree stays <= g
        assert graded_dims(entry) == [binom(g, j) for j in range(min(m, g) + 1)]


def test_measure_sequence_rejects_bad_constant():
    with pytest.raises(InvalidInputError):
        MeasureSequence([graded_space([2])])


# ----------------------------------------------------------- hilbert leading


def test_hilb_leading_term_values():
    assert [hilb_leading_term(k3(), 2, m) for m in range(5)] == [1, 1, 1, 1, 1]
    s = general_type()
    assert [hilb_leading_term(s, 1, m) for m in range(6)] == [
        1, 2, 3, 4, 5, 6,
    ]
    assert hilb_leading_term(s, 2, 3) == binom(3 + 3 - 1, 3)  # P2 = 3
    assert hilb_leading_term(rational_like(), 1, 0) == 1
    assert hilb_leading_term(rational_like(), 1, 4) == 0
    with pytest.raises(InvalidInputError):
        hilb_leading_term(s, 1, -1)


# ------------------------------------------------------------- boundedness


def test_boundedness_abelian_s1_track():
    seq = mu_sym_sequence(abelian(), 6)
    report = boundedness_check(seq, 1)
    assert report.values[0] == 0
    assert report.values[1:] == [2] * 6
    assert report.s1_constant
    assert report.max_value == 2


def test_boundedness_k3_degree_one_is_zero():
    seq = mu_sym_sequence(k3(), 6)
    report = boundedness_check(seq, 1)
    assert report.values == [0] * 7
    assert report.leading_values == [1] * 7
    assert not report.leading_strictly_increasing


def test_boundedness_general_type_leading_grows():
    seq = mu_sym_sequence(general_type(), 6)
    report = boundedness_check(seq, 0)
    assert report.values == [1] * 7
    assert report.leading_values == [m + 1 for m in range(7)]
    assert report.leading_strictly_increasing
    assert report.degrees == [2 * m for m in range(7)]
    blob = report.to_json()
    assert blob["s1_constant"] is True
    assert blob["max"] == 1


def test_boundedness_rejects_empty():
    with pytest.raises(InvalidInputError):
        boundedness_check(MeasureSequence([]), 0)


# ----------------------------------------------------------------- harness


def test_harness_general_type_full_mode():
    report = irrationality_harness(general_type(), 1, 10)
    assert report.applicable
    assert report.mode == "full"
    assert isinstance(report.witness, NoWitnessUpTo)
    assert report.witness.n_max == 4
    assert report.witness.i0_max == 6
    assert report.certificate.argument == "tracks"
    assert report.certificate.holds
    assert report.certificate.window == 10
    assert len(report.sequence) == 11
    assert "m=18" in report.note
    # the harness keeps its s^1 track, cut to the displayed entries
    want = boundedness_check(report.sequence, 1).to_json()
    assert report.boundedness.to_json() == want
    assert len(want["values"]) == 11


def test_harness_k3_direct_certificate():
    report = irrationality_harness(k3(), 1, 10)
    assert isinstance(report.witness, NoWitnessUpTo)
    assert report.certificate.argument == "direct"
    assert report.certificate.holds


def test_harness_inapplicable_when_all_plurigenera_vanish():
    report = irrationality_harness(rational_like(), 1, 10)
    assert not report.applicable
    assert "1/(1 - t)" in report.note
    assert report.witness is None and report.certificate is None
    # with irregularity the series is not claimed rational
    irregular = SurfaceData(q=1, pg=0, plurigenera=[0])
    report = irrationality_harness(irregular, 1, 10)
    assert not report.applicable
    assert "1/(1 - t)" not in report.note


def test_harness_finds_eventually_constant_ratio():
    # pg = 0 with q = 1 makes the measures stabilize at 1 + s from m = 1,
    # so the ratio 1 is an honest period-one witness.
    s = SurfaceData(q=1, pg=0, plurigenera=[0, 1])
    report = irrationality_harness(s, 1, 6)
    assert isinstance(report.witness, PeriodFound)
    assert report.witness.period == 1
    assert report.certificate.argument == "found"
    assert not report.certificate.holds


def test_harness_tracks_mode_for_higher_index():
    report = irrationality_harness(general_type(), 2, 8)
    assert report.mode == "tracks"
    assert report.witness is None
    assert report.sequence is None
    assert report.certificate.argument == "tracks"
    assert report.certificate.holds
    assert report.tracks["constant"] == [1] * 9
    assert report.tracks["leading"][:4] == [1, 3, 6, 10]  # P2 = 3
    assert report.tracks["s1"] is None
    assert report.boundedness is None
    assert "constant, s^1, and leading" in report.note


def test_harness_tracks_mode_reports_supplied_h1():
    s = SurfaceData(q=0, pg=2, plurigenera=[2, 3], h1n={2: 7})
    report = irrationality_harness(s, 2, 6)
    assert report.tracks["s1"] == 7


def test_harness_insufficient_when_plurigenus_is_one():
    report = irrationality_harness(k3(), 2, 8)
    assert report.mode == "tracks"
    assert report.certificate.argument == "insufficient"
    assert not report.certificate.holds


def test_harness_missing_plurigenus_raises():
    s = SurfaceData(q=0, pg=2, plurigenera=[2, 3])
    with pytest.raises(MissingDataError):
        irrationality_harness(s, 4, 6)


def test_harness_guards():
    with pytest.raises(InvalidInputError):
        irrationality_harness(k3(), 0, 10)
    with pytest.raises(InvalidInputError):
        irrationality_harness(k3(), 1, 1)


def test_harness_report_json():
    report = irrationality_harness(general_type(), 1, 6)
    blob = report.to_json()
    text = json.dumps(blob, sort_keys=True)
    assert '"applicable": true' in text
    assert blob["witness"]["found"] is False
    assert blob["certificate"]["argument"] == "tracks"
    assert blob["surface"]["pg"] == 2
    assert len(blob["sequence"]["entries"]) == 7
    tracked = irrationality_harness(general_type(), 2, 6).to_json()
    assert "witness" not in tracked
    assert tracked["tracks"]["constant"] == [1] * 7


def test_certificate_log_concavity_window_scales():
    # the refutation window follows the requested exhibit bound
    small = irrationality_harness(general_type(), 1, 4)
    large = irrationality_harness(general_type(), 1, 12)
    assert small.certificate.window == 4
    assert large.certificate.window == 12
    assert large.certificate.checked > small.certificate.checked


# the verdicts of the surface corpus (general type, abelian, K3, Enriques,
# bielliptic) under `measure --sym-max 8 --witness` at n = 1, 2, 3, 4
@pytest.mark.parametrize(
    "surface,arguments",
    [
        ("q=3,pg=2,P=2,3,5,7", ["tracks", "tracks", "tracks", "tracks"]),
        ("q=2,pg=1,P=1,1,1,1", ["direct", "insufficient", "insufficient", "insufficient"]),
        ("q=0,pg=1,P=1,1,1,1", ["direct", "insufficient", "insufficient", "insufficient"]),
        ("q=0,pg=0,P=0,1,0,1", ["found", "insufficient", "insufficient", "insufficient"]),
        ("q=1,pg=0,P=0,1,0,1", ["found", "insufficient", "insufficient", "insufficient"]),
    ],
    ids=["general_type", "abelian", "k3", "enriques", "bielliptic"],
)
def test_corpus_measure_verdicts(surface, arguments):
    for n, argument in enumerate(arguments, 1):
        buf = io.StringIO()
        argv = ["measure", "--surface", surface, "--sym-max", "8", "--witness",
                "--n", str(n), "--format", "json"]
        assert cli.run(argv, out=buf) == 0
        payload = json.loads(buf.getvalue())
        certificate = payload["certificate"]
        assert certificate["argument"] == argument, n
        assert certificate["holds"] is (argument in ("tracks", "direct")), n
        if n == 1:
            assert payload["mode"] == "full"
            # a witness exactly where the certificate says "found"
            assert payload["witness"]["found"] is (argument == "found")
        else:
            assert payload["mode"] == "tracks"
            assert "witness" not in payload
