"""Generator tests: the seed alone fixes the job list.

Run with: python3 -m unittest discover -s bench/tests
"""

import json
import os
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import jobs  # noqa: E402


def _dump(workload, seed):
    return json.dumps(jobs.generate(workload, seed), sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in jobs.WORKLOAD_NAMES:
            self.assertEqual(_dump(w, 7), _dump(w, 7), w)

    def test_different_seed_different_jobs(self):
        for w in jobs.WORKLOAD_NAMES:
            self.assertNotEqual(_dump(w, 7), _dump(w, 8), w)

    def test_jobs_independent_of_hash_seed(self):
        code = ("import sys, json; sys.path.insert(0, %r); import jobs; "
                "print(json.dumps([jobs.generate(w, 3) for w in jobs.WORKLOAD_NAMES], "
                "sort_keys=True))" % BENCH)
        outs = set()
        for hs in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hs)
            outs.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True, timeout=120).stdout)
        self.assertEqual(len(outs), 1)

    def test_job_ids_unique_and_inputs_resolvable(self):
        for w in jobs.WORKLOAD_NAMES:
            batch = jobs.generate(w, 5)
            ids = [j["id"] for j in batch["jobs"]]
            self.assertEqual(len(ids), len(set(ids)))
            produced = set(batch["files"])
            for j in batch["jobs"]:
                for a in j.get("argv", []):
                    if a.startswith("@"):
                        self.assertIn(a[1:], produced, "%s reads %s before it exists" % (j["id"], a))
                if j.get("save"):
                    produced.add(j["save"]["name"])

    def test_pade_degrees_follow_the_fixed_profiles(self):
        batch = jobs.generate("specialize_rational", 9)
        degs = sorted(j["den_deg"] for j in batch["jobs"]
                      if j["check"] == "pade" and j["must_succeed"])
        want = [jobs.pade_degree(jobs.cell_profile(jobs.parse(t)), 2) for t in jobs.PADE_PROFILES]
        self.assertEqual(degs, sorted(d for d in want for _ in range(4)))
        self.assertEqual(sorted(want), [1, 2, 3, 3, 4, 4, 5, 5, 6, 6])


if __name__ == "__main__":
    unittest.main()
