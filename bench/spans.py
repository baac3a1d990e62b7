"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and methods of each mzeta module and
records one span per call: layer name, start, end, parent span and job
index, kept in flat arrays in memory and written out when the batch ends.
A wrapped module-level function is replaced in every mzeta module
namespace that holds it (cli imports hankel_test, motivic imports
verify_global, ...), since a name imported with "from x import f" is never
seen through x.f.  A layer's self time is its spans' durations minus the
time their child spans cover.
"""

import functools
import json
import sys
import time
from array import array

RING_OPS = ("add", "neg", "sub", "mul", "mul_int", "eq", "is_zero", "pow",
            "invert", "divide_exact", "reduce", "div")

# (module, class or None, attribute names, layer)
WRAPS = [
    ("mzeta.rings", "MultiPoly", ("mul",), "rings.poly_mul"),
    ("mzeta.rings", "MultiPoly", ("add",), "rings.poly_add"),
    ("mzeta.rings", "MultiPoly", ("substitute",), "rings.substitute"),
    ("mzeta.rings", None, ("poly_to_json", "poly_from_json", "frac_to_json",
                           "frac_from_json", "ring_from_json"), "rings.json"),
    ("mzeta.rings", None, ("eval_poly",), "rings.eval_poly"),
    ("mzeta.series", "TruncSeries", ("mul",), "series.mul"),
    ("mzeta.series", "TruncSeries", ("inverse",), "series.inverse"),
    ("mzeta.series", "TruncSeries", ("pow",), "series.pow"),
    ("mzeta.series", "TruncSeries", ("scale_arg",), "series.scale_arg"),
    ("mzeta.series", "TruncSeries", ("to_json",), "series.json"),
    ("mzeta.series", None, ("series_from_json",), "series.json"),
    ("mzeta.series", None, ("power_sums",), "series.power_sums"),
    ("mzeta.series", None, ("from_power_sums",), "series.from_power_sums"),
    ("mzeta.symfunc", None, ("universal_P", "universal_Q", "newton_polynomial",
                             "witt_product_coeff"), "symfunc.universal"),
    ("mzeta.symfunc", None, ("is_symmetric",), "symfunc.is_symmetric"),
    ("mzeta.symfunc", None, ("universal_P_from_roots", "universal_Q_from_roots"),
     "symfunc.roots"),
    ("mzeta.symfunc", None, ("rewrite_in_elementaries",), "symfunc.rewrite"),
    ("mzeta.lambda_rings", None, ("witt_add", "witt_neg", "witt_sub", "witt_mul",
                                  "witt_lambda", "witt_adams", "opposite_sigma"),
     "lambda_rings.witt_op"),
    ("mzeta.lambda_rings", None, ("check_special",), "lambda_rings.check_special"),
    ("mzeta.lambda_rings", None, ("adams",), "lambda_rings.adams"),
    ("mzeta.rationality", None, ("determinant",), "rationality.determinant"),
    ("mzeta.rationality", None, ("hankel_test",), "rationality.hankel"),
    ("mzeta.rationality", None, ("solve_linear",), "rationality.solve_linear"),
    ("mzeta.rationality", None, ("pade_reconstruct",), "rationality.pade"),
    ("mzeta.rationality", None, ("apply_measure",), "rationality.apply_measure"),
    ("mzeta.rationality", None, ("verify_global",), "rationality.verify_global"),
    ("mzeta.motivic", "MotivicModel", ("zeta_series",), "motivic.zeta_series"),
    ("mzeta.motivic", "MotivicModel", ("rational_form",), "motivic.rational_form"),
    ("mzeta.motivic", None, ("zeta_series",), "motivic.zeta_series"),
    ("mzeta.motivic", None, ("zeta_rational",), "motivic.rational_form"),
    ("mzeta.motivic", None, ("parse_variety",), "motivic.parse"),
    ("mzeta.measures", None, ("irrationality_harness",), "measures.harness"),
    ("mzeta.cli", None, ("run",), "cli"),
]


class Tracer:
    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.nid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("H")
        self.stack = [-1]
        self.job_index = 0
        self.max_coeff_bits = 0
        self.max_terms = 0
        self.pade_successes = 0
        self._undo = []

    def _layer(self, name):
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, fn, layer, after=None):
        nid = self._layer(layer)
        nids, starts, ends = self.nid, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_index)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _set(self, owner, attr, value):
        existed = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), existed))
        setattr(owner, attr, value)

    def _poly_stats(self, poly):
        terms = poly.terms
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)
        for c in terms.values():
            bits = c.bit_length()
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _pade_outcome(self, result):
        self.pade_successes += bool(result.success)

    def install(self):
        """Wrap every entry of WRAPS; mzeta must already be imported."""
        from mzeta import rings

        after = {"rings.poly_mul": self._poly_stats, "rationality.pade": self._pade_outcome}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mzeta" or name.startswith("mzeta."))]
        for modname, clsname, attrs, layer in WRAPS:
            module = sys.modules[modname]
            for attr in attrs:
                if clsname is not None:
                    cls = getattr(module, clsname)
                    self._set(cls, attr, self.wrap(getattr(cls, attr), layer, after.get(layer)))
                    continue
                orig = getattr(module, attr)
                wrapped = self.wrap(orig, layer, after.get(layer))
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, name, wrapped)
        # ring arithmetic: one layer for Z and Z[vars] (plus the square-zero
        # quotient), another for the fraction field.  The fraction field
        # inherits sub and pow from Ring, so it gets its own wrapped copies,
        # made before Ring itself is patched.
        attrs = RING_OPS + ("validate", "exact_div", "elem_to_json", "elem_from_json")
        for cls in (rings.FractionField, rings.Ring, rings.IntegerRing,
                    rings.PolynomialRing, rings.SquareZeroRing):
            frac = cls is rings.FractionField
            for a in attrs:
                fn = vars(cls).get(a)
                if fn is None and frac and a in ("sub", "pow"):
                    fn = vars(rings.Ring)[a]
                if fn is None:
                    continue
                if a in RING_OPS:
                    layer = "rings.frac_op" if frac else "rings.ring_op"
                elif a.startswith("elem_"):
                    layer = "rings.json"
                else:
                    layer = "rings." + a
                self._set(cls, a, self.wrap(fn, layer))

    def uninstall(self):
        while self._undo:
            owner, attr, value, existed = self._undo.pop()
            if existed:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def summary(self):
        """{layer: (calls, self seconds)} over every recorded span."""
        n = len(self.nid)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        dur = list(self_s)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
        calls = [0] * len(self.layers)
        total = [0.0] * len(self.layers)
        for i in range(n):
            k = self.nid[i]
            calls[k] += 1
            total[k] += self_s[i]
        return {name: (calls[k], total[k]) for k, name in enumerate(self.layers)}

    def dump(self, path):
        """Spans as one JSON header line followed by the raw columns."""
        header = {"layers": self.layers, "spans": len(self.nid),
                  "columns": [["layer", "H"], ["start", "d"], ["end", "d"],
                              ["parent", "i"], ["job", "H"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.nid, self.start, self.end, self.parent, self.job):
                col.tofile(fh)
