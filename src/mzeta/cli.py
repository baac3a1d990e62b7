"""Command-line front end.

One executable, `mzeta`, with a subcommand per module: zeta-series
evaluation, the rationality tests, Witt and lambda operations, universal
polynomial tables, the surface-measure harness, and the self-check suite.
JSON output is byte-stable for identical invocations (sorted keys, no
timestamps); text output is rendered from the same report objects.  Domain
errors exit 1 with a machine-readable JSON body; usage errors exit 2.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DegreeCutoffError, InvalidInputError, ToolkitError
from .lambda_rings import WittElement, adams, opposite_sigma, witt_lambda, witt_mul
from .measures import SurfaceData, irrationality_harness
from .motivic import MotivicModel, parse_variety, specialize
from .rationality import (
    GroupSeries,
    hankel_test,
    pade_reconstruct,
    periodic_ratio_test,
)
from .rings import (
    _EXP_LIMIT,
    _FIELD,
    _FIELD_MASK,
    _VAR_RE,
    MultiPoly,
    _json_int,
    int_str,
    plain,
)
from .series import series_from_json
from .symfunc import (
    newton_polynomial,
    universal_P,
    universal_Q,
    witt_product_coeff,
)

_MAX_N = 8
_MAX_MN = 10


def _term_texts(lay, nl):
    """The memo of _poly_text for layout lay at indent nl: a dict from a
    key's upper part u = key >> 64 (every field but field 0) to its entry,
    and the function that works out, stores and returns a missing entry.

    An entry is (base, shift, text, skey0, text0).  A term whose key has
    upper part u and e0 > 0 in field 0 has sort key base | e0 << shift and
    text text % (c, e0), for its coefficient c; with e0 = 0 they are skey0
    and text0 % c.  The sort key reads the fields in name order, the first
    name most significant: a nonzero exponent as itself, a zero one before
    the last nonzero field as 2^63 and a trailing zero as 0.  That is the
    order _json_terms defines, where a skipped name lets the next (name,
    exponent) pair, with a later name, sort after any pair at the skipped
    name, and a monomial that has ended sorts before any pair.  Variable
    names need no JSON escaping and hold no %."""
    k = len(lay.names)
    i3 = nl + "      "
    i4 = i3 + "  "
    head = "{" + i3 + '"c": "%d",' + i3 + '"e": '
    tail = nl + "    }"
    # field i's slot in the sort key and its pair text at this indent
    slots = [None] * k
    for r, (v, s) in enumerate(lay.decode):
        slots[s // _FIELD] = (_FIELD * (k - 1 - r), i4 + '"%s": ' % v)
    uppers = {}

    def form(pairs):
        # sort key and text of a monomial from its (slot, exponent, pair
        # text) triples: 2^63 in every slot down to the last name's, then
        # each exponent in place of its 2^63
        if not pairs:
            return 0, head + "{}" + tail
        pairs.sort(reverse=True)
        skey = lay.guard >> pairs[-1][0] << pairs[-1][0]
        for s, e, _ in pairs:
            skey ^= (_EXP_LIMIT | e) << s
        return skey, head + "{" + ",".join([t for _, _, t in pairs]) + i3 + "}" + tail

    def entry(u):
        pairs = []
        rest = u
        for s, label in slots[1:]:
            if not rest:
                break
            e = rest & _FIELD_MASK
            if e:
                pairs.append((s, e, label + str(e)))
            rest >>= _FIELD
        skey0, text0 = form(list(pairs))
        base = shift = text = None
        if k:
            shift, label = slots[0]
            # field 0 reads 0 in base, and its exponent goes in the %d
            base, text = form(pairs + [(shift, 0, label + "%d")])
        out = uppers[u] = (base, shift, text, skey0, text0)
        return out

    return uppers, entry


def _poly_text(p, nl, memo):
    """poly_to_json(p) as json.dumps lays it out at indent nl, built from
    p's terms with no term dicts.  memo, made by _dumps for one payload,
    holds one _term_texts per (layout, indent), so a term costs one lookup
    of its upper part.  Terms go out in the order of their sort keys, which
    reproduces the order _json_terms defines; tests/test_json_writer.py
    pins the two together."""
    i1 = nl + "  "
    terms = p.terms
    if not terms:
        return "{" + i1 + '"terms": []' + nl + "}"
    texts = memo.get((p.layout, nl))
    if texts is None:
        texts = memo[p.layout, nl] = _term_texts(p.layout, nl)
    uppers, new = texts
    get = uppers.get
    rows = {}
    try:
        for key, c in terms.items():
            entry = get(key >> _FIELD) or new(key >> _FIELD)
            e0 = key & _FIELD_MASK
            if e0:
                rows[entry[0] | e0 << entry[1]] = entry[2] % (c, e0)
            else:
                rows[entry[3]] = entry[4] % c
    except ValueError:
        # a coefficient past the interpreter's digit limit
        for c in terms.values():
            int_str(c)
        raise
    i2 = i1 + "  "
    body = ("," + i2).join([rows[k] for k in sorted(rows)])
    return "{" + i1 + '"terms": [' + i2 + body + i1 + "]" + nl + "}"


@functools.cache
def _fraction_texts(nl):
    """QQ's fraction form at indent nl as % templates laid out by _poly_text:
    one that takes the denominator and numerator digits, and one for a zero
    numerator."""
    i1 = nl + "  "
    const = _poly_text(MultiPoly.const(1), i1, {}).replace('"1"', '"%s"')
    head = "{" + i1 + '"den": ' + const + "," + i1 + '"num": '
    return head + const + nl + "}", head + _poly_text(MultiPoly.const(0), i1, {}) + nl + "}"


def _write(o, append, nl, memo):
    t = type(o)
    if t is dict:
        if not o:
            append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        # a key that is not a str makes sorted() or the string encoder
        # raise TypeError, as _write does for a value it does not write
        for k in sorted(o):
            head = sep + encode_basestring_ascii(k) + ": "
            v = o[k]
            tv = type(v)
            if tv is str:
                append(head + encode_basestring_ascii(v))
            elif tv is int:
                append(head + int.__repr__(v))
            else:
                append(head)
                _write(v, append, inner, memo)
            sep = "," + inner
        append(nl + "}")
    elif t is str:
        append(encode_basestring_ascii(o))
    elif t is list:
        if not o:
            append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            append(sep)
            _write(v, append, inner, memo)
            sep = "," + inner
        append(nl + "]")
    elif t is MultiPoly:
        append(_poly_text(o, nl, memo))
    elif t is Fraction:
        full, zero = _fraction_texts(nl)
        n = o.numerator
        den = int_str(o.denominator)
        append(full % (den, int_str(n)) if n else zero % den)
    elif t is int:
        append(int.__repr__(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    else:
        raise TypeError


class _LeafEncoder(json.JSONEncoder):
    """json.dumps's encoder, writing a MultiPoly or a Fraction as plain() does."""

    def default(self, o):
        if isinstance(o, (MultiPoly, Fraction)):
            return plain(o)
        return super().default(o)


def _dumps(obj):
    """Return exactly json.dumps(plain(obj), indent=2, sort_keys=True) for a
    payload whose ring elements sit in dicts and lists.

    With an indent, json.dumps always runs the pure-Python encoder.  This
    writer lays out dicts, lists, str, int, bool and None itself, with the C
    string encoder; a str or int value of a dict goes out in one piece with
    its key.  Ring elements reach it as values: a MultiPoly is written from
    its terms by _poly_text, in the order _json_terms defines, through a
    memo of term texts that lives for this one call, and a Fraction from
    one template per indent.  A coefficient past the interpreter's digit
    limit raises DegreeCutoffError as plain() does.
    A payload holding any other value (a float, a tuple, an int or str
    subclass, a key that is not a str) or a circular reference goes whole
    to json.dumps, which writes ring elements through plain(), so neither
    the text nor an error can differ.
    """
    parts = []
    try:
        _write(obj, parts.append, "\n", {})
    except (TypeError, RecursionError):
        return json.dumps(obj, cls=_LeafEncoder, indent=2, sort_keys=True)
    return "".join(parts)


def _emit(args, payload, render):
    """Print payload as JSON, or in text mode what render() returns; the
    text is built only when it is printed."""
    if args.format == "json":
        print(_dumps(payload), file=args.out)
    else:
        print(render(), file=args.out)
    return 0


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InvalidInputError("cannot read %s: %s" % (path, e.strerror))
    except ValueError as e:
        raise InvalidInputError("%s is not valid JSON: %s" % (path, e))


def _load_series(path):
    """The series in a JSON file.  A `zeta --format json` payload gives its
    specialized series when it has one, else its series; any other object
    is read as a series."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "expr" in obj and "series" in obj:
        spec = obj.get("specialized", obj)
        obj = spec.get("series") if isinstance(spec, dict) else None
    return series_from_json(obj)


def _parse_assignment(text):
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep:
            raise InvalidInputError(
                "assignments look like L=3, got %r" % item
            )
        name = name.strip()
        if name != "*" and not _VAR_RE.match(name):
            raise InvalidInputError("assignment name %r is not * or a variable name" % name[:40])
        if name in out:
            raise InvalidInputError("variable %r is assigned twice" % name)
        out[name] = _json_int(value.strip(), "assignment value")
    if not out:
        raise InvalidInputError("empty assignment")
    return out


def _cmd_zeta(args):
    expr = parse_variety(args.expr)
    model = MotivicModel(expr, increment=args.curve_increment)
    form = image = None
    if args.rational:
        # one expansion of the series serves the output and the certificate
        form = model.rational_form(args.terms)
        f = form.series.truncate(args.terms)
    else:
        f = model.zeta_series(args.terms)
    payload = {"expr": str(expr), "terms": args.terms, "series": f.payload()}
    if form is not None:
        payload["rational"] = form.payload()
    if args.specialize:
        assignment = _parse_assignment(args.specialize)
        image = specialize(f, assignment)
        payload["specialized"] = {
            "assignment": {k: v for k, v in sorted(assignment.items())},
            "series": image.payload(),
        }

    def render():
        lines = ["zeta series of %s to %d terms:" % (expr, args.terms), str(f)]
        if form is not None:
            lines.append("closed form: %s" % form)
        if image is not None:
            lines.append(
                "specialized at %s: %s"
                % (
                    ", ".join("%s=%d" % kv for kv in sorted(assignment.items())),
                    image,
                )
            )
        return "\n".join(lines)

    return _emit(args, payload, render)


def _cmd_hankel(args):
    f = _load_series(args.series)
    report = hankel_test(f, args.m_max, args.offset_max)
    return _emit(args, report.payload(), report.__str__)


def _cmd_pade(args):
    f = _load_series(args.series)
    result = pade_reconstruct(f, args.den_deg)
    return _emit(args, result.payload(), result.__str__)


def _cmd_witness(args):
    gs = GroupSeries.from_json(_load_json(args.series))
    verdict = periodic_ratio_test(gs, args.max_period, args.max_offset)
    return _emit(args, verdict.payload(), verdict.__str__)


def _cmd_lambda_op(args):
    op = args.op
    if op in ("lambda", "witt-lambda", "psi") and args.k is None:
        raise InvalidInputError("--op %s needs --k" % op)
    if op == "witt-mul":
        if len(args.inputs) != 2:
            raise InvalidInputError("witt-mul takes exactly two series files")
    elif len(args.inputs) != 1:
        raise InvalidInputError("--op %s takes one input file" % op)
    # every file is a Witt element; sigma and psi read it as lambda_t(x),
    # coefficient i holding lambda^i(x)
    xs = [WittElement(_load_series(path)) for path in args.inputs]
    if op == "psi":
        ring = xs[0].ring
        value = adams(args.k, xs[0])
        payload = {"psi": args.k, "value": value}
        return _emit(args, payload, lambda: ring.elem_str(value))
    if op == "witt-mul":
        result = witt_mul(*xs)
    elif op == "sigma":
        result = opposite_sigma(xs[0], args.k)
    else:
        result = witt_lambda(args.k, xs[0])
    return _emit(args, result.payload(), result.__str__)


def _cmd_universal(args):
    which = args.which
    if which == "Q":
        if args.m is None:
            raise InvalidInputError("--which Q needs --m")
        if args.m < 1 or args.n < 1:
            raise InvalidInputError("indices must be positive")
        if args.m * args.n > _MAX_MN and not args.force:
            raise DegreeCutoffError(
                "m*n = %d exceeds the default cutoff %d; pass --force to "
                "compute anyway" % (args.m * args.n, _MAX_MN)
            )
        poly = universal_Q(args.m, args.n)
    else:
        if args.n < 1:
            raise InvalidInputError("--n must be positive")
        if args.n > _MAX_N and not args.force:
            raise DegreeCutoffError(
                "n = %d exceeds the default cutoff %d; pass --force to "
                "compute anyway" % (args.n, _MAX_N)
            )
        if which == "P":
            poly = universal_P(args.n)
        elif which == "newton":
            poly = newton_polynomial(args.n)
        else:
            poly = witt_product_coeff(args.n)
    text = str(poly)
    payload = {
        "which": which,
        "n": args.n,
        "poly": poly,
        "text": text,
    }
    if which == "Q":
        payload["m"] = args.m
    return _emit(args, payload, lambda: text)


def _cmd_measure(args):
    if args.surface_file:
        surface = SurfaceData.from_json(_load_json(args.surface_file))
    elif args.surface:
        surface = SurfaceData.from_text(args.surface)
    else:
        raise InvalidInputError("give --surface or --surface-file")
    report = irrationality_harness(
        surface, args.n, args.sym_max, args.max_period, args.max_offset
    )
    if not args.witness:
        report.witness = None
    payload = report.payload()
    if report.boundedness is not None:
        payload["boundedness"] = report.boundedness.to_json()
    return _emit(args, payload, report.__str__)


def _cmd_suite(args):
    from . import suite

    if args.list:
        names = suite.check_names()
        if args.format == "json":
            print(_dumps(list(names)), file=args.out)
        else:
            for name in names:
                print(name, file=args.out)
        return 0
    names = args.only if args.only else None
    outcomes = suite.run_checks(names=names, seed=args.seed)
    failed = [o for o in outcomes if not o.ok]
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "passed": len(outcomes) - len(failed),
            "failed": len(failed),
            "checks": [o.to_json() for o in outcomes],
        }
        print(_dumps(payload), file=args.out)
    else:
        for o in outcomes:
            print(str(o), file=args.out)
        print(
            "%d checks: %d passed, %d failed"
            % (len(outcomes), len(outcomes) - len(failed), len(failed)),
            file=args.out,
        )
    return 1 if failed else 0


def build_parser():
    """The mzeta argument parser.  Its commands attribute maps each
    subcommand name to that subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="mzeta",
        description="Zeta series, lambda operations, and rationality tests "
        "over exact coefficient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add_command(name, **kwargs):
        parser.commands[name] = p = sub.add_parser(name, **kwargs)
        return p

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="output encoding (default text)",
        )

    p = add_command(
        "zeta",
        help="zeta series of a variety expression",
        description="Grammar: point | A(n) | P(n) | Gm(d) | Curve(g) | "
        "Prod(e,e) | Disj(e,e) | VB(e,r) | PB(e,r).",
    )
    p.add_argument("expr", help='variety expression, e.g. "P(2)"')
    p.add_argument("--terms", type=int, required=True, help="number of coefficients")
    p.add_argument("--rational", action="store_true", help="also emit the closed form")
    p.add_argument(
        "--specialize", metavar="L=3,...",
        help="substitute integers for symbols ('*' sets a default)",
    )
    p.add_argument(
        "--curve-increment", choices=("J", "X"), default="J",
        help="symbol multiplying L^k in the stable curve recursion",
    )
    add_format(p)
    p.set_defaults(func=_cmd_zeta)

    p = add_command("hankel", help="shifted Hankel determinant grid of a series")
    p.add_argument("series", help="series JSON file, or zeta --format json output")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--offset-max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_hankel)

    p = add_command("pade", help="rational reconstruction over a field")
    p.add_argument(
        "series", help="series JSON file over the rationals, or zeta --format json output"
    )
    p.add_argument("--den-deg", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_pade)

    p = add_command("witness", help="periodic-ratio witness search")
    p.add_argument("series", help="group-series JSON file")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--max-offset", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_witness)

    p = add_command(
        "lambda-op",
        help="Witt-ring and lambda operations on series files",
        description="Every op reads each file as a Witt element (a series with "
        "constant term 1); sigma and psi read it as lambda_t(x), coefficient i "
        "holding lambda^i(x).",
    )
    p.add_argument(
        "--op", required=True,
        choices=("lambda", "sigma", "psi", "witt-mul", "witt-lambda"),
    )
    p.add_argument("--k", type=int, help="operation index")
    p.add_argument("inputs", nargs="+", help="series JSON file(s)")
    add_format(p)
    p.set_defaults(func=_cmd_lambda_op)

    p = add_command("universal", help="universal symmetric-function polynomials")
    p.add_argument("--which", required=True, choices=("P", "Q", "newton", "witt"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="first index of Q")
    p.add_argument(
        "--force", action="store_true",
        help="compute past the default degree cutoffs",
    )
    add_format(p)
    p.set_defaults(func=_cmd_universal)

    p = add_command("measure", help="surface measure sequence and harness")
    p.add_argument("--surface", help='compact form, e.g. "q=2,pg=1,P=1,1,1,1"')
    p.add_argument("--surface-file", help="surface data as a JSON file")
    p.add_argument("--n", type=int, default=1, help="measure index (default 1)")
    p.add_argument("--sym-max", type=int, required=True, help="exhibit bound M")
    p.add_argument(
        "--witness", action="store_true",
        help="include the periodic-ratio search result",
    )
    p.add_argument("--max-period", type=int, default=4)
    p.add_argument("--max-offset", type=int, default=6)
    add_format(p)
    p.set_defaults(func=_cmd_measure)

    p = add_command("suite", help="named self-checks from the documentation")
    p.add_argument("--list", action="store_true", help="list check names")
    p.add_argument("--only", action="append", metavar="NAME", help="run one check")
    p.add_argument("--seed", type=int, default=1729, help="randomized-check seed")
    add_format(p)
    p.set_defaults(func=_cmd_suite)

    return parser


@functools.cache
def _parser():
    # built once per process: parse_args reads the parser and never changes
    # it, and each call gets a fresh Namespace
    return build_parser()


def _parse_args(argv):
    """The namespace of argv.  When argv[0] names a subcommand, the rest is
    parsed by that subcommand's parser alone, as the full parser would hand
    it over; if anything is left, the full parser parses argv again, so
    that its own "unrecognized arguments" error is the one printed."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv=None, out=None):
    """Parse argv, execute, and return the exit code (0 ok, 1 domain, 2 usage)."""
    out = sys.stdout if out is None else out
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.out = out
    try:
        return args.func(args)
    except ToolkitError as e:
        print(_dumps({"error": e.payload()}), file=out)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does): exit quietly.  The
        # interpreter flushes stdout again at exit, so point it at devnull
        # first (the recipe in the Python signal module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
