"""End-to-end checks of the command-line interface, run in process."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr
from fractions import Fraction

import pytest

from mzeta import cli
from mzeta.motivic import Curve, MotivicModel, Proj, zeta_rational, zeta_series
from mzeta.oracles import linear_factors
from mzeta.rationality import QQ, GroupSeries
from mzeta.rings import IntegerRing, MultiPoly, PolynomialRing
from mzeta.series import TruncSeries, series_from_json

Z = IntegerRing()


def run_cli(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--format", "json"])
    return code, json.loads(text)


def test_zeta_json_round_trip_and_determinism():
    code, payload = run_json(["zeta", "P(1)", "--terms", "4"])
    assert code == 0
    emitted = series_from_json(payload["series"])
    assert emitted.eq(zeta_series(Proj(1), 4))
    assert payload["expr"] == "P(1)"
    assert payload["terms"] == 4
    first = run_cli(["zeta", "P(1)", "--terms", "4", "--format", "json"])
    second = run_cli(["zeta", "P(1)", "--terms", "4", "--format", "json"])
    assert first == second


def test_zeta_rational_and_specialize():
    code, payload = run_json(
        ["zeta", "P(1)", "--terms", "4", "--rational", "--specialize", "L=3"]
    )
    assert code == 0
    assert payload["rational"] == zeta_rational(Proj(1)).to_json()
    assert payload["specialized"]["assignment"] == {"L": 3}
    code, text = run_cli(
        ["zeta", "P(1)", "--terms", "4", "--rational", "--specialize", "L=3"]
    )
    assert code == 0
    assert "closed form:" in text
    assert "specialized at L=3:" in text


def test_curve_by_curve_rational_errors_keep_their_order():
    # the series of a product of two curves is known to two terms, and it
    # has no closed form: past two terms the series' own error comes first
    expr = "Prod(Curve(1),Curve(1))"
    for terms, want in (
        ("2", "no closed rational form for a product of two positive-genus curves"),
        ("3", "the zeta series of a product of two positive-genus curves is not "
              "determined beyond the linear coefficient"),
    ):
        code, payload = run_json(["zeta", expr, "--terms", terms, "--rational"])
        assert code == 1
        assert payload["error"] == {"error": "no_closed_form", "message": want}


@pytest.mark.parametrize("terms", [3, 6, 9])
def test_zeta_rational_expands_the_series_once(monkeypatch, terms):
    # Curve(1) is certified to 6 terms: one expansion, to max(terms, 6)
    # coefficients, serves both the printed series and the certificate
    form = zeta_rational(Curve(1))
    assert form.verified_to == 6
    calls = []
    original = MotivicModel.zeta_series

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(MotivicModel, "zeta_series", counted)
    code, payload = run_json(["zeta", "Curve(1)", "--terms", str(terms), "--rational"])
    assert code == 0
    assert calls == [max(terms, 6)]
    assert series_from_json(payload["series"]).eq(original(MotivicModel(Curve(1)), terms))
    assert payload["rational"] == form.to_json()


def test_zeta_curve_increment_choices():
    code_j, payload_j = run_json(["zeta", "Curve(1)", "--terms", "3"])
    code_x, payload_x = run_json(
        ["zeta", "Curve(1)", "--terms", "3", "--curve-increment", "X"]
    )
    assert code_j == 0 and code_x == 0
    assert payload_j["series"] != payload_x["series"]


def test_zeta_bad_assignment():
    cases = [
        ("L:3", "invalid_input"),
        ("L=3,=5", "invalid_input"),
        ("L=3,2x=5", "invalid_input"),
        ("L=3,L=4", "invalid_input"),
        ("L=3, L = 3", "invalid_input"),
        ("L=x", "invalid_input"),
        ("L=" + "7" * 5000, "degree_cutoff"),
        # decimal digits only, as int() is laxer: no "_", sign "+" or other scripts
        ("L=3_0", "invalid_input"),
        ("L=+3", "invalid_input"),
        ("L=\u0663", "invalid_input"),
        (",", "invalid_input"),
    ]
    for text, error in cases:
        code, payload = run_json(["zeta", "P(1)", "--terms", "3", "--specialize", text])
        assert code == 1, text
        assert payload["error"]["error"] == error, text
        assert len(payload["error"]["message"]) < 200, text
    # a well-formed assignment that leaves a variable of the series out
    code, text = run_cli(["zeta", "Curve(1)", "--terms", "3", "--specialize", "L=2",
                          "--format", "json"])
    assert code == 1
    assert json.loads(text) == {"error": {
        "error": "missing_data", "message": "measure does not cover variable 'c1'"}}


def test_hankel_from_file(tmp_path):
    f = TruncSeries.geometric(Z, Z.from_int(2), 12)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(f.to_json()))
    code, payload = run_json(
        ["hankel", str(path), "--m-max", "1", "--offset-max", "3"]
    )
    assert code == 0
    assert payload["window"] == {"m": 1, "n": 0}
    assert payload["per_m"][0]["n"] is None


def test_hankel_rejects_a_square_zero_ring_with_vars_and_prefix(tmp_path):
    # the file's coefficients use "y"; reading only the prefix used to end
    # in a misleading ring_mismatch about "y"
    blob = {
        "ring": {"kind": "square_zero", "vars": ["y"], "prefix": "x"},
        "precision": 2,
        "coeffs": [{"terms": [{"c": "1", "e": {}}]}, {"terms": [{"c": "1", "e": {"y": 1}}]}],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(blob))
    code, payload = run_json(["hankel", str(path), "--m-max", "1", "--offset-max", "1"])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"
    assert "either a variable list or a prefix" in payload["error"]["message"]


def test_pade_from_file(tmp_path):
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    from mzeta.rationality import QQ

    f = TruncSeries.from_ints(QQ, fib)
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(f.to_json()))
    code, payload = run_json(["pade", str(path), "--den-deg", "2"])
    assert code == 0
    assert payload["success"]
    code, payload = run_json(["pade", str(path), "--den-deg", "1"])
    assert code == 0
    assert not payload["success"]
    assert "reason" in payload


def test_hankel_and_pade_read_zeta_payloads(tmp_path):
    # a zeta payload gives its specialized series when it has one, else its
    # series: every run matches the run on the extracted series byte for byte
    piped, extracted = tmp_path / "zeta.json", tmp_path / "series.json"
    p2_at_3 = ["P(2)", "--terms", "8", "--specialize", "L=3"]
    runs = [
        (p2_at_3, ["pade", "--den-deg", "3"]),
        (p2_at_3, ["hankel", "--m-max", "3", "--offset-max", "1"]),
        (["Curve(1)", "--terms", "8", "--rational"],
         ["hankel", "--m-max", "3", "--offset-max", "1"]),
    ]
    for zeta_args, (command, *flags) in runs:
        code, text = run_cli(["zeta"] + zeta_args + ["--format", "json"])
        assert code == 0
        piped.write_text(text)
        payload = json.loads(text)
        extracted.write_text(json.dumps(payload.get("specialized", payload)["series"]))
        for fmt in ("json", "text"):
            want = run_cli([command, str(extracted)] + flags + ["--format", fmt])
            assert want[0] == 0
            assert run_cli([command, str(piped)] + flags + ["--format", fmt]) == want
    piped.write_text(run_cli(["zeta"] + p2_at_3 + ["--format", "json"])[1])
    assert run_cli(["pade", str(piped), "--den-deg", "3"]) == (
        0, "(1) / (1 + (-13)*t + (39)*t^2 + (-27)*t^3)\n"
    )


def test_witness_from_file(tmp_path):
    polys = [
        MultiPoly.const(1) if i == 0 else MultiPoly.var("L", i) for i in range(14)
    ]
    gs = GroupSeries.from_polynomials(polys)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(gs.to_json()))
    code, payload = run_json(
        ["witness", str(path), "--max-period", "3", "--max-offset", "4"]
    )
    assert code == 0
    assert payload["found"] and payload["period"] == 1 and payload["offset"] == 0
    code, text = run_cli(
        ["witness", str(path), "--max-period", "3", "--max-offset", "4"]
    )
    assert code == 0 and "period" in text


def test_witness_missing_file(tmp_path):
    code, payload = run_json(
        ["witness", str(tmp_path / "nope.json"), "--max-period", "2",
         "--max-offset", "2"]
    )
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_lambda_op_witt_mul(tmp_path):
    one_t = TruncSeries.from_polynomial(Z, [Z.one(), Z.one()], 8)
    sq = one_t.mul(one_t)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(sq.to_json()))
    b.write_text(json.dumps(one_t.to_json()))
    code, payload = run_json(
        ["lambda-op", "--op", "witt-mul", str(a), str(b)]
    )
    assert code == 0
    assert series_from_json(payload).eq(sq)
    code, payload = run_json(["lambda-op", "--op", "witt-mul", str(a)])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_lambda_op_witt_lambda(tmp_path):
    one_t = TruncSeries.from_polynomial(Z, [Z.one(), Z.one()], 9)
    cube = one_t.mul(one_t).mul(one_t)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(cube.to_json()))
    code, payload = run_json(["lambda-op", "--op", "lambda", "--k", "3", str(path)])
    assert code == 0
    got = series_from_json(payload)
    assert got.coefficient(0) == MultiPoly.const(1)
    assert got.coefficient(1) == MultiPoly.const(1)
    assert got.is_zero_beyond(1)
    code, payload = run_json(["lambda-op", "--op", "lambda", "--k", "2", str(path), str(path)])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_lambda_op_needs_k():
    code, payload = run_json(["lambda-op", "--op", "lambda", "whatever.json"])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_lambda_op_sigma_and_psi(tmp_path):
    lam_data = TruncSeries.from_ints(Z, [1, 2, 1, 0, 0])
    path = tmp_path / "two.json"
    path.write_text(json.dumps(lam_data.to_json()))
    code, payload = run_json(["lambda-op", "--op", "sigma", str(path)])
    assert code == 0
    sigma = series_from_json(payload)
    assert [sigma.coefficient(i) for i in range(5)] == [
        MultiPoly.const(i) for i in (1, 2, 3, 4, 5)
    ]
    code, payload = run_json(["lambda-op", "--op", "psi", "--k", "2", str(path)])
    assert code == 0
    assert payload["psi"] == 2
    code, text = run_cli(["lambda-op", "--op", "psi", "--k", "2", str(path)])
    assert code == 0
    assert text.strip() == "2"


def test_universal_cutoff_and_force():
    code, payload = run_json(["universal", "--which", "newton", "--n", "9"])
    assert code == 1
    assert payload["error"]["error"] == "degree_cutoff"
    code, payload = run_json(
        ["universal", "--which", "newton", "--n", "9", "--force"]
    )
    assert code == 0
    assert payload["text"].startswith("e1^9")
    for args in (["Q", "--n", "2"], ["Q", "--m", "0", "--n", "1"], ["P", "--n", "0"]):
        code, payload = run_json(["universal", "--which"] + args)
        assert code == 1, args
        assert payload["error"]["error"] == "invalid_input", args


def test_universal_writes_no_files(tmp_path, monkeypatch):
    # tables are computed in the process, never stored under HOME or the cwd
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for args in (["P", "--n", "4"], ["Q", "--m", "3", "--n", "3"], ["newton", "--n", "7"],
                 ["witt", "--n", "5"]):
        code, _ = run_cli(["universal", "--which"] + args)
        assert code == 0, args
    assert list(tmp_path.iterdir()) == []


def test_universal_q_payload():
    code, payload = run_json(["universal", "--which", "Q", "--n", "2", "--m", "2"])
    assert code == 0
    assert payload["m"] == 2 and payload["n"] == 2
    assert payload["text"] == "e1*e3 - e4"


def test_measure_text_and_witness_flag():
    base = ["measure", "--surface", "q=0,pg=2,P=2,3,4,5,6", "--sym-max", "6"]
    code, payload = run_json(base)
    assert code == 0
    assert "witness" not in payload
    assert payload["boundedness"]["s1_values"] == [0] * 7
    code, payload = run_json(base + ["--witness"])
    assert code == 0
    assert payload["witness"]["found"] is False
    code, text = run_cli(base)
    assert code == 0
    assert "witness search" not in text
    code, text = run_cli(base + ["--witness"])
    assert "witness search" in text
    # a found witness: without --witness the text keeps the certificate,
    # whose conclusion names the witness search, as the JSON does
    found = ["measure", "--surface", "q=0,pg=0,P=0,1,0,1", "--sym-max", "8"]
    certificate = ("  certificate (found, does not hold): the sequence admits the "
                   "periodic ratio exhibited by the witness search")
    code, text = run_cli(found)
    assert code == 0
    assert text.splitlines()[1:] == [
        "  mode: full (full measure sequence computed through m=18)", certificate]
    code, payload = run_json(found)
    assert "witness" not in payload
    assert payload["certificate"]["argument"] == "found"
    code, text = run_cli(found + ["--witness"])
    assert code == 0
    assert text.splitlines()[2:] == [
        "  witness search: period 1 from offset 0 with ratios {i=0 (mod 1): 1}", certificate]


def test_measure_tracks_mode():
    code, payload = run_json(
        ["measure", "--surface", "q=0,pg=2,P=2,3,4,5,6", "--n", "2",
         "--sym-max", "4"]
    )
    assert code == 0
    assert payload["mode"] == "tracks"
    assert "boundedness" not in payload
    assert payload["tracks"]["leading"] == [1, 3, 6, 10, 15]


def test_measure_surface_file(tmp_path):
    from mzeta.measures import SurfaceData

    surface = SurfaceData(q=0, pg=1, plurigenera=[1, 1, 1, 1, 1])
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(surface.to_json()))
    code, payload = run_json(
        ["measure", "--surface-file", str(path), "--sym-max", "5"]
    )
    assert code == 0
    assert payload["certificate"]["argument"] == "direct"
    code, payload = run_json(["measure", "--sym-max", "5"])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_suite_list_and_only():
    code, text = run_cli(["suite", "--list"])
    assert code == 0
    names = text.split()
    assert "ring_square_zero_product" in names
    assert "acceptance_9_cross_module" in names
    code, payload = run_json(
        ["suite", "--only", "ring_square_zero_product", "--only",
         "series_inverse_cancels"]
    )
    assert code == 0
    assert payload["passed"] == 2 and payload["failed"] == 0
    assert [c["name"] for c in payload["checks"]] == [
        "ring_square_zero_product", "series_inverse_cancels",
    ]
    code, payload = run_json(["suite", "--only", "no_such_check"])
    assert code == 1
    assert payload["error"]["error"] == "invalid_input"


def test_error_payload_shape():
    code, payload = run_json(["zeta", "Q(3)", "--terms", "2"])
    assert code == 1
    assert payload["error"]["error"] == "syntax"
    assert payload["error"]["offset"] == 1


def test_usage_errors_exit_two():
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code, _ = run_cli(["zeta", "P(1)"])
        assert code == 2
        code, _ = run_cli(["no-such-command"])
        assert code == 2
        code, _ = run_cli([])
        assert code == 2
    assert "usage" in stderr.getvalue()


def test_run_builds_one_parser_per_process(monkeypatch, capsys):
    calls = []
    build_parser = cli.build_parser

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (
            ["zeta", "P(1)", "--terms", "3"],
            ["zeta", "Curve(1)", "--terms", "2", "--format", "json"],
            ["suite", "--list"],
            ["universal", "--which", "newton", "--n", "2"],
            ["zeta", "P(1)"],
            ["--help"],
        ):
            run_cli(argv)
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    # build_parser itself still returns a fresh parser
    assert build_parser() is not build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    cli._parser.cache_clear()
    plain = ["zeta", "Curve(1)", "--terms", "3", "--format", "json"]
    first = run_cli(plain)
    assert first[0] == 0
    # an append option starts empty on every call
    for name in ("ring_square_zero_product", "series_inverse_cancels"):
        code, payload = run_json(["suite", "--only", name])
        assert code == 0
        assert [c["name"] for c in payload["checks"]] == [name]
    # options given once do not become the next call's defaults
    code, _ = run_cli(plain[:4] + ["--rational", "--specialize", "L=2,*=1",
                                   "--curve-increment", "X"])
    assert code == 0
    assert run_cli(plain) == first
    # nor do a usage error or --help
    assert run_cli(["zeta", "Curve(1)", "--terms", "x"])[0] == 2
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["zeta", "--help"])[0] == 0
    assert run_cli(plain) == first
    captured = capsys.readouterr()
    assert "usage: mzeta zeta" in captured.err
    assert "suite" in captured.out and "--curve-increment" in captured.out


def _dispatch_table(tmp_path):
    """(argv, exit code, a line of stderr) for run: a valid call per
    subcommand, help, and each kind of usage error."""
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(TruncSeries.from_ints(Z, [1, 2, 4, 8, 16, 32]).to_json()))
    rationals = tmp_path / "q.json"
    rationals.write_text(json.dumps(TruncSeries(QQ, [Fraction(1, 2 ** k) for k in range(6)]).to_json()))
    group = tmp_path / "group.json"
    polys = [MultiPoly.const(1)] + [MultiPoly.var("L", i) for i in range(1, 8)]
    group.write_text(json.dumps(GroupSeries.from_polynomials(polys).to_json()))
    unknown = "mzeta: error: argument command: invalid choice: %r"
    return [
        (["zeta", "P(1)", "--terms", "3", "--rational"], 0, ""),
        (["hankel", str(ints), "--m-max", "1", "--offset-max", "2", "--format", "json"], 0, ""),
        (["pade", str(rationals), "--den-deg", "1"], 0, ""),
        (["witness", str(group), "--max-period", "2", "--max-offset", "2"], 0, ""),
        (["lambda-op", "--op", "lambda", "--k", "2", str(ints)], 0, ""),
        (["universal", "--which", "newton", "--n", "2"], 0, ""),
        (["measure", "--surface", "q=0,pg=0,P=0,1,0,1", "--sym-max", "3"], 0, ""),
        (["suite", "--list"], 0, ""),
        # help
        (["-h"], 0, ""),
        (["--help"], 0, ""),
        (["zeta", "-h"], 0, ""),
        (["hankel", str(ints), "--help"], 0, ""),
        # not a subcommand
        ([], 2, "mzeta: error: the following arguments are required: command"),
        (["no-such-command"], 2, unknown % "no-such-command"),
        (["zet", "P(1)", "--terms", "3"], 2, unknown % "zet"),
        (["--format", "json", "zeta", "P(1)", "--terms", "3"], 2, unknown % "json"),
        # the subcommand's own errors
        (["zeta", "P(1)"], 2, "mzeta zeta: error: the following arguments are required: --terms"),
        (["zeta", "P(1)", "--terms", "x"], 2, "mzeta zeta: error: argument --terms: invalid int value: 'x'"),
        (["zeta", "--", "P(1)", "--terms", "3"], 2, "mzeta zeta: error: the following arguments are required: --terms"),
        (["universal", "--which", "R", "--n", "2"], 2, "mzeta universal: error: argument --which: invalid choice: 'R'"),
        (["measure", "--surface", "q=0,pg=0,P=0,1", "--sym-max", "3", "--max", "2"], 2,
         "mzeta measure: error: ambiguous option: --max could match --max-period, --max-offset"),
        # left over, reported by mzeta itself
        (["zeta", "P(1)", "--terms", "3", "extra"], 2, "mzeta: error: unrecognized arguments: extra"),
        (["suite", "--list", "--bogus", "x"], 2, "mzeta: error: unrecognized arguments: --bogus x"),
        (["hankel", str(ints), "--m-max", "1", "--offset-max", "2", "-x"], 2,
         "mzeta: error: unrecognized arguments: -x"),
        # abbreviated long options
        (["zeta", "P(1)", "--ter", "3", "--form", "json"], 0, ""),
        (["universal", "--wh", "P", "--n", "2"], 0, ""),
        (["measure", "--surface", "q=0,pg=0,P=0,1,0,1", "--sym", "3", "--max-p", "2", "--wit"], 0, ""),
    ]


def _run_captured(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dispatch_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    # a call that names its subcommand first is parsed by that subcommand's
    # parser alone; exit codes, output, help and usage errors must be those
    # of the full parser
    table = _dispatch_table(tmp_path)
    fast = [_run_captured(capsys, argv) for argv, _, _ in table]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
    for (argv, code, err), got in zip(table, fast):
        want = _run_captured(capsys, argv)
        assert got == want, argv
        assert want[0] == code, argv
        if code == 0:
            assert want[1] and not want[2], argv
        else:
            assert err in want[2].splitlines()[-1], argv


def test_dispatch_gives_the_full_parsers_namespace(tmp_path):
    for argv, code, _ in _dispatch_table(tmp_path):
        if code == 0 and "-h" not in argv and "--help" not in argv:
            want = vars(cli.build_parser().parse_args(argv))
            assert vars(cli._parse_args(argv)) == want, argv


def _specialized_file(tmp_path, expr, terms, q):
    """Write the zeta series of expr at L=q as a series file over QQ."""
    code, payload = run_json(
        ["zeta", expr, "--terms", str(terms), "--specialize", "L=%d" % q]
    )
    assert code == 0
    path = tmp_path / "series.json"
    path.write_text(json.dumps(payload["specialized"]["series"]))
    return str(path)


def _qq_list(objs):
    return [QQ.elem_from_json(c) for c in objs]


def test_pade_degree_seven_on_p6(tmp_path):
    # the unreduced solve used to build integers past the int-to-str digit
    # limit and crash while writing JSON
    path = _specialized_file(tmp_path, "P(6)", 20, 3)
    code, payload = run_json(["pade", path, "--den-deg", "7"])
    assert code == 0
    assert payload["success"] is True
    assert _qq_list(payload["den"]) == linear_factors([3**i for i in range(7)])
    assert _qq_list(payload["num"]) == [1]


def test_pade_degree_six_on_disjoint_union(tmp_path):
    # Disj(P(3),P(1)) at L=5: 1/((1-t)^2 (1-5t)^2 (1-25t)(1-125t))
    path = _specialized_file(tmp_path, "Disj(P(3),P(1))", 16, 5)
    code, payload = run_json(["pade", path, "--den-deg", "6"])
    assert code == 0
    assert payload["success"] is True
    assert _qq_list(payload["den"]) == linear_factors([1, 1, 5, 5, 25, 125])
    assert _qq_list(payload["num"]) == [1]


def test_coefficient_past_digit_limit_is_a_typed_error():
    # 10^5000 has more digits than int-to-str conversion allows
    argv = ["zeta", "A(5000)", "--terms", "2", "--specialize", "L=10"]
    for fmt in ("json", "text"):
        code, text = run_cli(argv + ["--format", fmt])
        assert code == 1
        error = json.loads(text)["error"]
        assert error["error"] == "degree_cutoff"
        assert "%d decimal digits" % sys.get_int_max_str_digits() in error["message"]


def _qq_series_file(tmp_path, coeffs):
    path = tmp_path / "qq.json"
    ring = {"kind": "fraction", "of": {"kind": "integers"}}
    path.write_text(json.dumps({"ring": ring, "coeffs": coeffs}))
    return str(path)


def _poly(*terms):
    return {"terms": [{"c": str(c), "e": e} for c, e in terms]}


def test_hankel_determinant_past_digit_limit_is_a_typed_error(tmp_path):
    # the m = 1 cell is det [[a, 1], [1, a]] = a^2 - 1: every coefficient
    # of the series can be written, the determinant cannot
    limit = sys.get_int_max_str_digits()
    a = 10 ** (limit // 2 + 50)
    assert a * a - 1 >= 10**limit
    coeffs = [{"num": _poly((c, {})), "den": _poly((1, {}))} for c in (a, 1, a)]
    path = _qq_series_file(tmp_path, coeffs)
    for fmt in ("json", "text"):
        code, text = run_cli(["hankel", path, "--m-max", "1", "--offset-max", "0", "--format", fmt])
        assert code == 1
        # the error body is the whole output: nothing was printed before it
        error = json.loads(text)["error"]
        assert error["error"] == "degree_cutoff"
        assert "%d decimal digits" % limit in error["message"]


def test_qq_bad_fractions_are_typed_errors(tmp_path):
    one = {"num": _poly((1, {})), "den": _poly((1, {}))}
    zero_den = {"num": _poly((1, {})), "den": _poly()}
    non_constant = {"num": _poly((1, {"L": 1})), "den": _poly((1, {}))}
    for bad, error in ((zero_den, "invalid_element"), (non_constant, "ring_mismatch")):
        path = _qq_series_file(tmp_path, [one, bad, one, one])
        code, payload = run_json(["pade", path, "--den-deg", "1"])
        assert code == 1
        assert payload["error"]["error"] == error


def test_qq_written_in_lowest_terms(tmp_path):
    # a 1 x 1 Hankel grid echoes the coefficient: 6/-4 comes back as -3/2
    path = _qq_series_file(tmp_path, [{"num": _poly((6, {})), "den": _poly((-4, {}))}])
    code, payload = run_json(["hankel", path, "--m-max", "0", "--offset-max", "0"])
    assert code == 0
    assert payload["determinants"] == [[{"num": _poly((-3, {})), "den": _poly((2, {}))}]]
    code, text = run_cli(["hankel", path, "--m-max", "0", "--offset-max", "0"])
    assert code == 0
    assert text.endswith("m=0: [(-3)/(2)]\n")


def test_malformed_polynomial_json_is_a_typed_error(tmp_path):
    path = tmp_path / "z.json"
    cases = [
        ({"terms": [{"c": "x", "e": {}}]}, "invalid_input"),
        ({"terms": [{"c": 1.5, "e": {}}]}, "invalid_input"),
        ({"terms": [{"e": {}}]}, "invalid_input"),
        ({"terms": [{"c": "1", "e": {"L": "q"}}]}, "invalid_input"),
        ({"terms": [{"c": "1", "e": ["L"]}]}, "invalid_input"),
        ({"terms": ["1"]}, "invalid_input"),
        ({"terms": "1"}, "invalid_input"),
        ({"terms": [{"c": "1", "e": {"L": -1}}]}, "invalid_element"),
        # every negative exponent, whatever its coefficient
        ({"terms": [{"c": "0", "e": {"L": -1}}]}, "invalid_element"),
        ({"terms": [{"c": "1", "e": {"L": -1}}, {"c": "-1", "e": {"L": -1}}]}, "invalid_element"),
        ({"terms": [{"c": "1", "e": {"1L": 1}}]}, "invalid_input"),
        ({"terms": [{"c": "1", "e": {"L": 2**63}}]}, "degree_cutoff"),
        ({"terms": [{"c": "1", "e": {"L": 10**30}}]}, "degree_cutoff"),
        ({"terms": [{"c": "1" * 5000, "e": {}}]}, "degree_cutoff"),
    ]
    for poly, error in cases:
        series = {"ring": {"kind": "poly", "vars": ["L"]}, "coeffs": [poly]}
        path.write_text(json.dumps(series))
        for fmt in ("json", "text"):
            argv = ["hankel", str(path), "--m-max", "0", "--offset-max", "0", "--format", fmt]
            code, text = run_cli(argv)
            assert code == 1, (poly, fmt)
            assert json.loads(text)["error"]["error"] == error, (poly, fmt)
    path.write_text(json.dumps({"ring": {"kind": "poly", "vars": ["L"]},
                                "coeffs": [{"terms": [{"c": "-12", "e": {"L": 2**63 - 1}}]}]}))
    code, payload = run_json(["hankel", str(path), "--m-max", "0", "--offset-max", "0"])
    assert code == 0
    assert payload["determinants"] == [[{"terms": [{"c": "-12", "e": {"L": 2**63 - 1}}]}]]


def test_bad_variable_name_is_a_typed_error(tmp_path):
    # "1x" is no variable name: it is rejected as read, before printing the
    # element could meet it
    path = tmp_path / "s.json"
    poly = {"terms": [{"c": "1", "e": {"x": 1}}, {"c": "2", "e": {"1x": 1}}]}
    path.write_text(json.dumps({"ring": {"kind": "integers"}, "coeffs": [poly]}))
    for fmt in ("json", "text"):
        code, text = run_cli(["hankel", str(path), "--m-max", "0", "--offset-max", "0",
                              "--format", fmt])
        assert code == 1
        assert json.loads(text)["error"] == {
            "error": "invalid_input", "message": "bad variable name '1x'"
        }


def test_malformed_input_files_are_typed_errors(tmp_path):
    path = tmp_path / "in.json"
    series = ["hankel", str(path), "--m-max", "0", "--offset-max", "0"]
    witness = ["witness", str(path), "--max-period", "2", "--max-offset", "2"]
    pade = ["pade", str(path), "--den-deg", "0"]
    measure = ["measure", "--surface-file", str(path), "--sym-max", "3"]
    frac_of_poly = {"kind": "fraction", "of": {"kind": "poly", "vars": ["L"]}}
    L_over_1 = {"num": _poly((1, {"L": 1})), "den": _poly((1, {}))}
    cases = [
        (series, {"ring": {"kind": "integers"}, "coeffs": 5}),
        (series, {"ring": {"kind": "poly", "vars": 5}, "coeffs": []}),
        (series, {"ring": {"kind": "poly", "vars": "LJ"}, "coeffs": []}),
        (series, {"ring": {"kind": "square_zero", "vars": "x"}, "coeffs": []}),
        (series, {"ring": {"kind": "square_zero", "prefix": None}, "coeffs": []}),
        (series, {"ring": {"kind": "square_zero", "prefix": 5}, "coeffs": []}),
        (witness, {"coeffs": 5}),
        (witness, {"foo": 1}),
        (witness, []),
        (measure, {"pg": 1}),
        (measure, [1]),
        (measure, {"q": 0, "pg": 1, "plurigenera": 5}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, 1], "h1n": [1]}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, 1], "h1n": {"x": 1}}),
        # Q is the only field of fractions
        (series, {"ring": frac_of_poly, "coeffs": [L_over_1]}),
        (pade, {"ring": frac_of_poly, "coeffs": [L_over_1, L_over_1]}),
        # JSON booleans are not integers
        (measure, {"q": True, "pg": 0, "plurigenera": [0]}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, True, 1]}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, 1], "h1n": {"2": True}}),
        # coefficients and indices are ASCII decimal strings, nothing int() also takes
        (series, {"ring": {"kind": "integers"}, "coeffs": [_poly(("1_000", {}))]}),
        (series, {"ring": {"kind": "integers"}, "coeffs": [_poly((" 7 ", {}))]}),
        (series, {"ring": {"kind": "integers"}, "coeffs": [_poly(("+7", {}))]}),
        (series, {"ring": {"kind": "integers"}, "coeffs": [_poly(("\u0663", {}))]}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, 1], "h1n": {"2_0": 3}}),
        (measure, {"q": 0, "pg": 1, "plurigenera": [1, 1], "h1n": {" 2": 3}}),
    ]
    for argv, obj in cases:
        path.write_text(json.dumps(obj))
        for fmt in ("json", "text"):
            code, text = run_cli(argv + ["--format", fmt])
            assert code == 1, (obj, fmt)
            assert json.loads(text)["error"]["error"] == "invalid_input", (obj, fmt)


@pytest.mark.parametrize(
    "argv",
    [
        # larger than the stdout buffer: print itself meets the closed pipe
        ["zeta", "Curve(3)", "--terms", "24", "--format", "json"],
        # buffered: the final flush meets it
        ["zeta", "P(1)", "--terms", "4"],
    ],
    ids=["print", "flush"],
)
def test_closed_output_pipe_exits_quietly(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mzeta.cli"] + argv,
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        # the reader is gone before the first write, as after `| head -2`
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert (tmp_path / "stderr").read_bytes() == b""
    assert code == 1


_JUNK = [
    None, True, False, 0, -1, 1, 3, 2**64, -(2**70), 2**63, 1.5, "", "x",
    "L", "-3", "1_0", "7" * 5000, [], {}, [1], {"c": "1", "e": {}},
    {"L": 2**62}, {"L": -1}, {"kind": "integers"},
    {"kind": "poly", "vars": ["L", "J"]}, {"kind": "square_zero", "prefix": "x"},
    {"kind": "fraction", "of": {"kind": "integers"}},
]


def _nodes(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _mutated(obj, rng):
    """A deep copy of obj with one to three random edits: a number or a
    decimal string changed to another, a node replaced by junk or by a copy
    of another node, a key or list entry dropped, a list entry doubled, or a
    key renamed."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 3)):
        paths = list(_nodes(obj))
        path = rng.choice(paths[1:])
        parent = obj
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        edit = rng.randrange(6)
        if edit == 5 and type(parent[last]) is int:
            parent[last] = rng.choice([0, 1, 2, 5, 9, 2**62])
        elif edit == 5 and isinstance(parent[last], str):
            parent[last] = rng.choice(["0", "1", "-2", "6", str(3**60)])
        elif edit == 0:
            parent[last] = json.loads(json.dumps(rng.choice(_JUNK)))
        elif edit == 1:
            donor = obj
            for step in rng.choice(paths):
                donor = donor[step]
            parent[last] = json.loads(json.dumps(donor))
        elif edit == 2:
            del parent[last]
        elif edit == 3 and isinstance(parent, list):
            parent.insert(last, json.loads(json.dumps(parent[last])))
        elif isinstance(parent, dict):
            parent[rng.choice(["c", "e", "L", "num", "den", "kind", "zz"])] = parent.pop(last)
    return obj


def test_lambda_op_and_witness_survive_mutated_input(tmp_path):
    # valid argv on damaged files: every call ends in a result or a typed
    # error (exit 0 or 1), never a traceback
    L = MultiPoly.var("L")
    ring = PolynomialRing(["L"])
    witt = [
        TruncSeries.from_polynomial(ring, [ring.one(), L, L.mul_int(2)], 5).to_json(),
        TruncSeries.from_ints(Z, [1, 2, 1, 0, 0]).to_json(),
        TruncSeries.from_ints(QQ, [1, 3, 0, 0]).to_json(),
    ]
    group = GroupSeries.from_polynomials(
        [MultiPoly.const(1)] + [MultiPoly.var("L", i, i) for i in range(1, 7)]
    ).to_json()
    ops = [
        ["--op", "lambda", "--k", "2"],
        ["--op", "witt-lambda", "--k", "3"],
        ["--op", "sigma"],
        ["--op", "psi", "--k", "2"],
        ["--op", "witt-mul"],
    ]
    rng = random.Random(2026)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    codes = []
    for i in range(300):
        fmt = ["--format", rng.choice(["json", "text"])]
        if i % 3 == 0:
            a.write_text(json.dumps(_mutated(group, rng)))
            argv = ["witness", str(a), "--max-period", "2", "--max-offset", "3"]
        else:
            op = rng.choice(ops)
            a.write_text(json.dumps(_mutated(rng.choice(witt), rng)))
            files = [str(a)]
            if op[1] == "witt-mul":
                b.write_text(json.dumps(rng.choice(witt)))
                files.append(str(b))
            argv = ["lambda-op"] + op + files
        code, _ = run_cli(argv + fmt)
        assert code in (0, 1), argv
        codes.append(code)
    # the edits leave some inputs valid and break others
    assert set(codes) == {0, 1}
