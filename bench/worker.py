"""Run one job batch in a fresh interpreter and report what happened.

    python3 worker.py SPEC.json RESULT.json

SPEC names the checkout root, the job list, a work directory and whether
to trace.  Jobs run back to back in this one thread (a closed loop with
one client).  Before each job the reference kernel runs once, so host
speed is sampled all through the batch, and once more after the last job.  CLI jobs go through
mzeta.cli.run in-process; library jobs call the public functions the CLI
cannot reach.  Every output is checked by the value oracles right after
its job, outside the timed region.
"""

import gc
import io
import json
import os
import resource
import sys
import time

import oracles


# The reference kernel has the two kinds of work the program's hot paths
# do: a sparse product of two fixed three-variable polynomials (tuple
# monomial keys, dict churn, ~190-bit coefficients), and a product of
# fixed 40k- and 56k-bit integers like the unreduced fractions of the
# rational layer.  Contention from other tenants slows the two kinds by
# different factors, so the kernel carries both.  It never touches mzeta,
# and its variables are ints rather than strings so that string-hash
# randomisation cannot change its dict layout: its time only tracks the
# host.
_REF_A = {((0, i), (1, j)): 3 ** 120 + 7 * i + j for i in range(1, 6) for j in range(1, 6)}
_REF_B = {((0, i), (2, j)): 5 ** 80 - 11 * i + j for i in range(1, 6) for j in range(1, 6)}
_REF_X = 3 ** 25000 + 1
_REF_Y = 7 ** 20000 + 3
REF_SAMPLES = 3


def ref_kernel():
    out = {}
    for k1, c1 in _REF_A.items():
        for k2, c2 in _REF_B.items():
            d = dict(k1)
            for v, e in k2:
                d[v] = d.get(v, 0) + e
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return len(out), _REF_X * _REF_Y


def sample_host(out):
    """Append REF_SAMPLES kernel times to out.  Every sample, and the job
    after it, starts from a collected heap, so the garbage of one job is
    not charged to the next."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(REF_SAMPLES):
            t0 = time.perf_counter()
            ref_kernel()
            out.append(time.perf_counter() - t0)
    finally:
        gc.enable()


def _lib_call(job):
    """Library jobs; names are looked up on the modules at call time so a
    tracer installed after import still sees them."""
    from mzeta import lambda_rings as lr
    from mzeta import rings, series, symfunc

    kind = job["kind"]
    if kind == "additivity":
        f = lr.WittElement(series.series_from_json(job["f"]))
        g = lr.WittElement(series.series_from_json(job["g"]))
        total = lr.witt_add(f, g)
        lhs, rhs = [], []
        for n in job["ns"]:
            lhs.append(lr.witt_lambda(n, total).to_json())
            acc = None
            for i in range(n + 1):
                term = lr.witt_mul(lr.witt_lambda(i, f), lr.witt_lambda(n - i, g))
                acc = term if acc is None else lr.witt_add(acc, term)
            rhs.append(acc.to_json())
        return {"lhs": lhs, "rhs": rhs}
    if kind == "special":
        f = lr.WittElement(series.series_from_json(job["f"]))
        g = lr.WittElement(series.series_from_json(job["g"]))
        rule = lr.BigWitt(f.ring, f.precision)
        report = lr.check_special(rule, f, g, job["nmax"], 0)
        return {"all_hold": report.all_hold, "entries": len(report.entries)}
    if kind == "p_roots":
        return rings.poly_to_json(symfunc.universal_P_from_roots(job["n"], extra=job["extra"]))
    if kind == "q_roots":
        return rings.poly_to_json(
            symfunc.universal_Q_from_roots(job["m"], job["n"], extra=job["extra"]))
    raise ValueError("unknown job kind %r" % kind)


def run_job(job, paths, cli):
    """Execute one job; returns (seconds, exit code or None, output, error)."""
    clock = time.perf_counter
    if job["kind"] != "cli":
        t0 = clock()
        try:
            out = _lib_call(job)
        except Exception as e:  # a crash is a counted failure, not an abort
            return clock() - t0, None, None, "%s: %s" % (type(e).__name__, str(e)[:200])
        return clock() - t0, 0, out, None
    argv = []
    for a in job["argv"]:
        if a.startswith("@"):
            if a[1:] not in paths:
                return 0.0, None, None, "input %s was never produced" % a[1:]
            a = paths[a[1:]]
        argv.append(a)
    buf = io.StringIO()
    t0 = clock()
    try:
        code = cli.run(argv, buf)
    except Exception as e:
        return clock() - t0, None, None, "%s: %s" % (type(e).__name__, str(e)[:200])
    return clock() - t0, code, buf.getvalue(), None


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import mzeta.cli as cli

    with open(spec["jobs"]) as fh:
        batch = json.load(fh)
    indir = os.path.join(spec["workdir"], "in")
    os.makedirs(indir, exist_ok=True)
    paths = {}
    for name, obj in batch["files"].items():
        paths[name] = os.path.join(indir, name)
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    ref = []
    for index, job in enumerate(batch["jobs"]):
        sample_host(ref)
        if tracer is not None:
            tracer.job_index = index
        seconds, code, out, error = run_job(job, paths, cli)
        rec = {"id": job["id"], "cli": job["kind"] == "cli", "s": seconds, "code": code,
               "bytes": 0}
        if error is None and code != job.get("expect_exit", 0):
            error = "exit code %s, expected %s" % (code, job.get("expect_exit", 0))
        if error is None:
            text = out if isinstance(out, str) else json.dumps(out)
            rec["bytes"] = len(text)
            parsed = json.loads(text)
            rec["bits"], rec["terms"], rec["series_terms"] = oracles.size_stats(parsed)
            error = oracles.check(job, parsed)
            save = job.get("save")
            if error is None and save:
                part = parsed
                for key in save["path"]:
                    part = part[key]
                paths[save["name"]] = os.path.join(indir, save["name"])
                with open(paths[save["name"]], "w") as fh:
                    json.dump(part, fh)
        rec["error"] = error
        records.append(rec)
    sample_host(ref)

    cache = os.environ.get("MZETA_CACHE_DIR", "")
    result = {
        "jobs": records,
        "ref": ref,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_files": len([n for n in os.listdir(cache) if n.endswith(".json")])
        if os.path.isdir(cache) else 0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["max_coeff_bits"] = tracer.max_coeff_bits
        result["max_terms"] = tracer.max_terms
        result["pade_successes"] = tracer.pade_successes
        result["spans"] = len(tracer.nid)
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
