"""Oracle tests: every check kind accepts the program's real output and
rejects a deliberately corrupted copy of it.

Run with: python3 -m unittest discover -s bench/tests
"""

import copy
import json
import os
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402


def _select(batch, wanted):
    """Ids of the jobs that satisfy wanted(job)."""
    return {j["id"] for j in batch["jobs"] if wanted(j)}


def _run(batch, ids, tmp):
    from mzeta import cli

    paths = {}
    for name, obj in batch["files"].items():
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    out = []
    for job in batch["jobs"]:
        if job["id"] not in ids:
            continue
        _, code, text, error = worker.run_job(job, paths, cli)
        assert error is None, (job["id"], error)
        assert code == job.get("expect_exit", 0), (job["id"], code)
        parsed = json.loads(text if isinstance(text, str) else json.dumps(text))
        if job.get("save"):
            part = parsed
            for key in job["save"]["path"]:
                part = part[key]
            paths[job["save"]["name"]] = os.path.join(tmp, job["save"]["name"])
            with open(paths[job["save"]["name"]], "w") as fh:
                json.dump(part, fh)
        out.append((job, parsed))
    return out


def _bump_all(x):
    """Add 1 to the first coefficient of every polynomial in a JSON value."""
    if isinstance(x, dict):
        terms = x.get("terms")
        if isinstance(terms, list):
            if terms:
                terms[0]["c"] = str(int(terms[0]["c"]) + 1)
            return
        for v in x.values():
            _bump_all(v)
    elif isinstance(x, list):
        for v in x:
            _bump_all(v)


def corrupt(job, out):
    bad = copy.deepcopy(out)
    if job["check"] == "no_closed_form":
        bad["error"]["error"] = "syntax"
    elif job["check"] == "special":
        bad["all_hold"] = False
    elif job["check"] == "pade" and not job["must_succeed"]:
        bad["success"] = True
    else:
        _bump_all(bad)
    return bad


class OracleTest(unittest.TestCase):
    def _check_all(self, results):
        kinds = set()
        for job, out in results:
            kinds.add(job["check"])
            self.assertIsNone(oracles.check(job, out), job["id"])
            self.assertIsNotNone(oracles.check(job, corrupt(job, out)),
                                 "%s accepted a corrupted output" % job["id"])
        return kinds

    def test_zeta_symbolic_oracles(self):
        batch = jobs.generate("zeta_symbolic", 4)
        first_curve = next(j["expr"] for j in batch["jobs"] if j["expr"].startswith("Curve("))
        first_ncf = next(j["id"] for j in batch["jobs"] if j["check"] == "no_closed_form")
        ids = _select(batch, lambda j: j["expr"] == first_curve or j["id"] == first_ncf)
        with tempfile.TemporaryDirectory() as tmp:
            kinds = self._check_all(_run(batch, ids, tmp))
        self.assertEqual(kinds, {"zeta", "hankel_symbolic", "no_closed_form"})

    def test_specialize_rational_oracles(self):
        batch = jobs.generate("specialize_rational", 4)
        expr = next(j["expr"] for j in batch["jobs"]
                    if j["check"] == "pade" and j["den_deg"] == 2 and j["must_succeed"])
        ids = _select(batch, lambda j: j["expr"] == expr and j["q"] == 3)
        with tempfile.TemporaryDirectory() as tmp:
            kinds = self._check_all(_run(batch, ids, tmp))
        self.assertEqual(kinds, {"zeta", "pade", "hankel_q"})

    def test_witt_symfunc_oracles(self):
        batch = jobs.generate("witt_symfunc", 4)
        seen = set()
        ids = set()
        for j in batch["jobs"]:
            key = (j["check"], j["kind"])
            cheap = j["kind"] not in ("p_roots", "q_roots") or j.get("n", 9) * (j.get("m") or 1) <= 3
            if key not in seen and cheap:
                seen.add(key)
                ids.add(j["id"])
        with tempfile.TemporaryDirectory() as tmp:
            kinds = self._check_all(_run(batch, ids, tmp))
        self.assertEqual(kinds, {"additivity", "special", "witt-mul", "lambda", "psi",
                                 "sigma", "universal", "measure"})

    def test_cell_profile_matches_known_forms(self):
        # P(2) = 1/((1-t)(1-Lt)(1-L^2 t)); Gm(1) = (1-t)/(1-Lt)
        self.assertEqual(oracles.cell_profile(oracles.parse("P(2)")), {0: 1, 1: 1, 2: 1})
        self.assertEqual(oracles.cell_profile(oracles.parse("Gm(1)")), {0: -1, 1: 1})
        self.assertIsNone(oracles.cell_profile(oracles.parse("Prod(P(1),Curve(1))")))
        self.assertEqual(oracles.factor_product({0: 1}, 2, 4), [1, 1, 1, 1])
        self.assertEqual(oracles.factor_product({1: -1}, 3, 3), [1, -3, 0])


if __name__ == "__main__":
    unittest.main()
