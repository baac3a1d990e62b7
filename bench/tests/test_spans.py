"""Tracer tests: counts on tiny inputs equal hand-computed values, self time
excludes children, and a traced batch gives the same counts in processes
with different hash seeds.

Run with: python3 -m unittest discover -s bench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
from spans import Tracer  # noqa: E402


def _calls(tracer):
    return {k: v[0] for k, v in tracer.summary().items() if v[0]}


class HandCountTest(unittest.TestCase):
    def test_ring_product(self):
        from mzeta.rings import MultiPoly, PolynomialRing

        ring = PolynomialRing(["L"])
        a = MultiPoly.var("L").add(MultiPoly.const(1))
        b = MultiPoly.var("L").sub(MultiPoly.const(1))
        tracer = Tracer()
        tracer.install()
        try:
            ring.mul(a, b)
        finally:
            tracer.uninstall()
        # one ring mul: it validates both operands and does one poly product
        self.assertEqual(_calls(tracer), {"rings.ring_op": 1, "rings.validate": 2,
                                          "rings.poly_mul": 1})
        self.assertEqual(tracer.max_terms, 2)  # L^2 - 1

    def test_series_product(self):
        from mzeta.rings import IntegerRing
        from mzeta.series import TruncSeries

        s = TruncSeries.from_ints(IntegerRing(), [1, 2])
        tracer = Tracer()
        tracer.install()
        try:
            s.mul(s)
        finally:
            tracer.uninstall()
        # coefficient k of a precision-2 product takes k+1 ring muls and as
        # many adds: 3 of each; each validates 2 operands, and the result's
        # constructor validates its 2 coefficients: 6 * 2 + 2 = 14
        self.assertEqual(_calls(tracer), {"series.mul": 1, "rings.ring_op": 6,
                                          "rings.validate": 14, "rings.poly_mul": 3,
                                          "rings.poly_add": 3})

    def test_uninstall_restores_everything(self):
        from mzeta import cli, rationality, rings

        before = (rings.MultiPoly.mul, rings.FractionField.__dict__.get("sub"),
                  cli.hankel_test, rationality.hankel_test)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(cli.hankel_test, before[2])
        self.assertIs(cli.hankel_test, rationality.hankel_test)
        tracer.uninstall()
        after = (rings.MultiPoly.mul, rings.FractionField.__dict__.get("sub"),
                 cli.hankel_test, rationality.hankel_test)
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        tracer = Tracer()

        def inner():
            time.sleep(0.02)

        wrapped_inner = tracer.wrap(inner, "inner")

        def outer():
            wrapped_inner()
            time.sleep(0.01)

        tracer.wrap(outer, "outer")()
        summary = tracer.summary()
        self.assertGreaterEqual(summary["inner"][1], 0.02)
        self.assertLess(summary["outer"][1], 0.02)
        self.assertGreaterEqual(summary["outer"][1], 0.01)


class RepeatTest(unittest.TestCase):
    def test_counts_repeat_across_hash_seeds(self):
        # a small batch touching every workload's layers: whole pipelines
        # of cheap shapes, in batch order
        def cheap(j):
            if j["id"].startswith("z"):
                return j.get("expr", "").startswith("Curve(")
            if j["id"].startswith("s"):
                return j["terms"] <= 8
            return j["kind"] not in ("p_roots", "q_roots", "additivity")

        files, picked = {}, []
        for w in jobs.WORKLOAD_NAMES:
            generated = jobs.generate(w, 2)
            files.update(generated["files"])
            picked += [j for j in generated["jobs"] if cheap(j)]
        batch = {"files": files, "jobs": picked}
        counts = []
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "jobs.json"), "w") as fh:
                json.dump(batch, fh)
            for hs in ("1", "2"):
                rep = os.path.join(tmp, "rep" + hs)
                spec = {"root": ROOT, "jobs": os.path.join(tmp, "jobs.json"), "workdir": rep,
                        "trace": True, "spans_out": None}
                with open(os.path.join(tmp, "spec.json"), "w") as fh:
                    json.dump(spec, fh)
                env = dict(os.environ, PYTHONHASHSEED=hs, MZETA_CACHE_DIR=os.path.join(rep, "c"))
                subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                                os.path.join(tmp, "spec.json"), os.path.join(tmp, "r.json")],
                               env=env, check=True, timeout=300)
                with open(os.path.join(tmp, "r.json")) as fh:
                    r = json.load(fh)
                self.assertTrue(all(j["error"] is None for j in r["jobs"]))
                counts.append(({k: v[0] for k, v in r["layers"].items()},
                               r["max_coeff_bits"], r["max_terms"], r["spans"]))
        self.assertGreater(counts[0][3], 1000)
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
