"""Byte-identity gate for the command-line interface.

Runs a fixed corpus of fast `cli.run` invocations, each in both output
formats, and compares every exit code and every output byte against
tests/data/cli_golden.txt.  Input files are written from the literal JSON
below, and their directory is replaced by "<tmp>" in the transcript.  To
record the expected file again after an intended output change, run this
module as a script: python tests/test_cli_golden.py
It prints the "$ mzeta ..." header of every block that changed, was added
or was removed.
"""

import io
import json
import pathlib
import re
import shutil

from mzeta import cli
from mzeta.oracles import linear_factors

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.txt"

Z = {"kind": "integers"}
QQ = {"kind": "fraction", "of": Z}


def poly(*terms):
    """Polynomial JSON from (coefficient, {var: exp}) pairs or plain ints."""
    out = []
    for t in terms:
        c, e = (t, {}) if isinstance(t, int) else t
        out.append({"c": str(c), "e": e})
    return {"terms": out}


def frac(num, den=1):
    return {"num": poly(num), "den": poly(den)}


def series(ring, coeffs):
    return {"ring": ring, "precision": len(coeffs), "coeffs": coeffs}


def _rational_ints(num, den, n):
    """First n coefficients of num/den for integer coefficient lists with den[0] = 1."""
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


ZL = {"kind": "poly", "vars": ["L"]}
ZAB = {"kind": "poly", "vars": ["a", "b"]}


def L(k):
    return (1, {"L": k}) if k else 1


INPUTS = {
    "z_geom": series(Z, [poly(2 ** k) for k in range(10)]),
    "z_fib": series(Z, [poly(c) for c in _rational_ints([1], [1, -1, -1], 12)]),
    # 1/((1 - t)(1 - L t)): coefficient k is 1 + L + ... + L^k
    "zl_p1": series(ZL, [poly(*[L(i) for i in range(k + 1)]) for k in range(8)]),
    "sq_prefix": series(
        {"kind": "square_zero", "prefix": "x"},
        [poly(1), poly((1, {"x1": 1})), poly((1, {"x1": 1}), (-2, {"x2": 1})),
         poly((3, {"x1": 1, "x2": 1})), poly(0), poly((1, {"x3": 1})), poly(2)],
    ),
    "sq_vars": series(
        {"kind": "square_zero", "vars": ["a", "b"]},
        [poly(1), poly((-1, {"a": 1})), poly((1, {"a": 1, "b": 1})), poly(0),
         poly((1, {"b": 1})), poly(0)],
    ),
    # 1/(1 - t/2), written with unreduced fractions
    "qq_half": series(QQ, [frac(2 ** k, 4 ** k) for k in range(8)]),
    # 1/((1 - t)(1 - 2t)(1 + 3t))
    "qq_cubic": series(
        QQ, [frac(c) for c in _rational_ints([1], [1, 0, -7, 6], 10)]
    ),
    # (1 + t/3)/(1 - t/2 - t^2/25): 30-multiples of the integer recurrence
    "qq_mixed": series(
        QQ, [frac(c, 30 ** k) for k, c in
             enumerate(_rational_ints([1, 10], [1, -15, -36], 8))]
    ),
    # zeta of P(6) at L=3: 1/((1 - t)(1 - 3t)...(1 - 3^6 t)), 20 terms
    "p6": series(
        QQ, [frac(c) for c in _rational_ints([1], linear_factors([3 ** i for i in range(7)]), 20)]
    ),
    "wit_powers": {"coeffs": [frac(L(k)) for k in range(14)]},
    "wit_gaps": {"coeffs": [None if k % 2 else frac(L(k // 2)) for k in range(12)]},
    "w_sq": series(Z, [poly(c) for c in (1, 2, 1, 0, 0, 0, 0, 0)]),
    "w_one_t": series(Z, [poly(c) for c in (1, 1, 0, 0, 0, 0, 0, 0)]),
    "w_cube": series(Z, [poly(c) for c in (1, 3, 3, 1, 0, 0, 0, 0, 0)]),
    "w_a": series(ZAB, [poly(1), poly((1, {"a": 1})), poly(0), poly(0), poly(0)]),
    "w_b": series(ZAB, [poly(1), poly((1, {"b": 1})), poly(0), poly(0), poly(0)]),
    "w_ab": series(ZAB, [poly(1), poly((1, {"a": 1})), poly((1, {"b": 1})),
                         poly(0), poly(0), poly(0), poly(0)]),
    "lam_two": series(Z, [poly(c) for c in (1, 2, 1, 0, 0)]),
    "lam_ab": series(ZAB, [poly(1), poly((1, {"a": 1}), (1, {"b": 1})),
                           poly((1, {"a": 1, "b": 1})), poly(0)]),
    "surf_k3": {"q": 0, "pg": 1, "plurigenera": [1, 1, 1, 1, 1]},
    "bad_json": "{not json",
}

CORPUS = [
    ["zeta", "P(2)", "--terms", "5", "--rational"],
    ["zeta", "Curve(1)", "--terms", "4", "--rational"],
    ["zeta", "Curve(2)", "--terms", "5", "--rational", "--curve-increment", "X"],
    ["zeta", "Prod(P(1),Curve(1))", "--terms", "4", "--rational"],
    ["zeta", "PB(Curve(1),1)", "--terms", "4", "--rational"],
    ["zeta", "VB(Gm(1),2)", "--terms", "4", "--rational"],
    ["zeta", "Disj(Gm(2),A(2))", "--terms", "5", "--rational", "--specialize", "L=3"],
    ["zeta", "Curve(1)", "--terms", "4", "--specialize", "L=2,*=1"],
    ["zeta", "Prod(Curve(1),Curve(1))", "--terms", "3", "--rational"],
    ["zeta", "Prod(Curve(1),Curve(1))", "--terms", "2"],
    ["zeta", "P(", "--terms", "3"],
    ["hankel", "{z_geom}", "--m-max", "2", "--offset-max", "2"],
    ["hankel", "{z_fib}", "--m-max", "3", "--offset-max", "3"],
    ["hankel", "{zl_p1}", "--m-max", "3", "--offset-max", "1"],
    ["hankel", "{qq_half}", "--m-max", "2", "--offset-max", "2"],
    ["hankel", "{qq_cubic}", "--m-max", "4", "--offset-max", "1"],
    ["hankel", "{sq_prefix}", "--m-max", "2", "--offset-max", "2"],
    ["hankel", "{sq_vars}", "--m-max", "2", "--offset-max", "1"],
    ["hankel", "{missing}", "--m-max", "1", "--offset-max", "1"],
    ["pade", "{qq_cubic}", "--den-deg", "1"],
    ["pade", "{qq_cubic}", "--den-deg", "2"],
    ["pade", "{qq_cubic}", "--den-deg", "3"],
    ["pade", "{qq_half}", "--den-deg", "1"],
    ["pade", "{qq_mixed}", "--den-deg", "2"],
    ["pade", "{qq_mixed}", "--den-deg", "3"],
    ["pade", "{z_geom}", "--den-deg", "1"],
    ["pade", "{p6}", "--den-deg", "7"],
    ["witness", "{wit_powers}", "--max-period", "3", "--max-offset", "4"],
    ["witness", "{wit_gaps}", "--max-period", "3", "--max-offset", "3"],
    ["witness", "{bad_json}", "--max-period", "2", "--max-offset", "2"],
    ["lambda-op", "--op", "witt-mul", "{w_sq}", "{w_one_t}"],
    ["lambda-op", "--op", "witt-mul", "{w_a}", "{w_b}"],
    ["lambda-op", "--op", "lambda", "--k", "3", "{w_cube}"],
    ["lambda-op", "--op", "witt-lambda", "--k", "2", "{w_ab}"],
    ["lambda-op", "--op", "sigma", "{lam_two}"],
    ["lambda-op", "--op", "sigma", "--k", "3", "{lam_ab}"],
    ["lambda-op", "--op", "psi", "--k", "2", "{lam_two}"],
    ["lambda-op", "--op", "psi", "--k", "3", "{lam_ab}"],
    ["lambda-op", "--op", "lambda", "{w_cube}"],
    ["universal", "--which", "P", "--n", "3"],
    ["universal", "--which", "Q", "--m", "2", "--n", "2"],
    ["universal", "--which", "newton", "--n", "4"],
    ["universal", "--which", "witt", "--n", "3"],
    ["universal", "--which", "P", "--n", "9"],
    ["universal", "--which", "Q", "--m", "3", "--n", "4"],
    ["measure", "--surface", "q=0,pg=2,P=2,3,4,5,6", "--sym-max", "4"],
    ["measure", "--surface", "q=0,pg=2,P=2,3,4,5,6", "--sym-max", "4", "--witness"],
    ["measure", "--surface", "q=0,pg=2,P=2,3,4,5,6", "--n", "2", "--sym-max", "3"],
    ["measure", "--surface", "q=2,pg=1,P=1,1,1", "--sym-max", "3"],
    ["measure", "--surface-file", "{surf_k3}", "--sym-max", "3"],
    ["suite", "--list"],
]


def _write_inputs(root):
    for name, obj in INPUTS.items():
        text = obj if isinstance(obj, str) else json.dumps(obj)
        (root / (name + ".json")).write_text(text)


def transcript(root):
    _write_inputs(root)
    files = {name: str(root / (name + ".json")) for name in INPUTS}
    files["missing"] = str(root / "missing.json")
    chunks = []
    for argv in CORPUS:
        for fmt in ("json", "text"):
            full = [a.format(**files) for a in argv] + ["--format", fmt]
            buf = io.StringIO()
            code = cli.run(full, out=buf)
            shown = " ".join(a.format(**{k: "<" + k + ">" for k in files}) for a in argv)
            chunks.append("$ mzeta %s --format %s\n[exit %d]\n%s" % (shown, fmt, code, buf.getvalue()))
    return "".join(chunks).replace(str(root), "<tmp>")


def blocks(text):
    """{header line: block text} for a transcript; each block starts with
    its "$ mzeta ..." line."""
    out = {}
    for chunk in re.split(r"(?m)^(?=\$ mzeta )", text):
        if chunk:
            out[chunk.split("\n", 1)[0]] = chunk
    return out


def block_changes(old, new):
    """(status, header) pairs, in transcript order, for every block of the
    new transcript that differs from the old one or is missing there, then
    every block of the old one that is gone."""
    before, after = blocks(old), blocks(new)
    out = []
    for header, chunk in after.items():
        if header not in before:
            out.append(("added", header))
        elif before[header] != chunk:
            out.append(("changed", header))
    out += [("removed", h) for h in before if h not in after]
    return out


def test_cli_output_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


def test_block_changes_names_each_header():
    old = "$ mzeta a\n[exit 0]\n1\n$ mzeta b\n[exit 0]\n2\n$ mzeta c\n[exit 0]\n3\n"
    new = "$ mzeta a\n[exit 0]\n1\n$ mzeta b\n[exit 1]\n2\n$ mzeta d\n[exit 0]\n4\n"
    assert block_changes(old, new) == [
        ("changed", "$ mzeta b"), ("added", "$ mzeta d"), ("removed", "$ mzeta c"),
    ]
    assert block_changes(new, new) == []


if __name__ == "__main__":
    old = GOLDEN.read_text() if GOLDEN.exists() else ""
    # the input files live next to the golden file while it is recorded
    inputs = GOLDEN.parent / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        new = transcript(inputs)
    finally:
        shutil.rmtree(inputs)
    GOLDEN.write_text(new)
    changes = block_changes(old, new)
    for status, header in changes:
        print("%-8s %s" % (status, header))
    print("%d of %d blocks changed, added or removed" % (len(changes), len(blocks(new))))
