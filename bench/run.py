"""Benchmark for mzeta: seeded workloads, value-checked, host-normalised.

    python3 bench/run.py --workload zeta_symbolic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The job list comes from the seed alone
(jobs.py).  Each batch repetition runs in a fresh interpreter with a fresh,
empty MZETA_CACHE_DIR (worker.py); repetitions follow one another, never
overlapping, until --seconds is used up.  Times are reported in reference
units: each job's time over the median time of a fixed pure-Python kernel
run just before and just after it, so that host speed drift cancels.  Raw seconds go to the run record
in bench/out/ beside every metric, ungated.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and reports per-layer counts and self times from
the traced one (spans.py), plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A job fails on an uncaught exception, a wrong value or an unexpected exit
code; "correct" is false when any job returned a wrong value or exit code,
or when repetitions of the same batch disagree.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
from worker import sample_host  # noqa: E402

WORKLOADS = {
    "zeta_symbolic": "zeta --rational then Hankel grids over Z[L,J,c...]: many small multivariate "
                     "products, ring validation and JSON output; curve x curve products must "
                     "exit 1",
    "specialize_rational": "zeta at L=q, Pade at the minimal degree and one below, Hankel over "
                           "Q: unreduced big-integer fractions; the Pade int-to-str crash is "
                           "counted here",
    "witt_symfunc": "Witt and lambda operations on random and known-root elements, universal "
                    "polynomials by root expansion and symmetric elimination, measures",
}

END_TO_END = [
    ("batch_ref", "ref", "lower"),
    ("job_p50_ref", "ref", "lower"),
    ("job_p90_ref", "ref", "lower"),
    ("success_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

PER_LAYER = [
    ("rings.poly_mul", ("calls", "self_s")),
    ("rings.poly_add", ("calls", "self_s")),
    ("rings.validate", ("calls", "self_s")),
    ("rings.ring_op", ("calls", "self_s")),
    ("rings.frac_op", ("calls", "self_s")),
    ("rings.exact_div", ("calls", "self_s")),
    ("rings.eval_poly", ("self_s",)),
    ("rings.substitute", ("calls", "self_s")),
    ("rings.json", ("self_s",)),
    ("series.mul", ("calls", "self_s")),
    ("series.inverse", ("calls", "self_s")),
    ("series.pow", ("self_s",)),
    ("series.scale_arg", ("self_s",)),
    ("series.power_sums", ("self_s",)),
    ("series.from_power_sums", ("self_s",)),
    ("series.json", ("self_s",)),
    ("symfunc.universal", ("calls", "self_s")),
    ("symfunc.is_symmetric", ("calls", "self_s")),
    ("symfunc.roots", ("self_s",)),
    ("symfunc.rewrite", ("self_s",)),
    ("lambda_rings.witt_op", ("calls", "self_s")),
    ("lambda_rings.check_special", ("self_s",)),
    ("lambda_rings.adams", ("self_s",)),
    ("rationality.determinant", ("calls", "self_s")),
    ("rationality.hankel", ("self_s",)),
    ("rationality.solve_linear", ("calls", "self_s")),
    ("rationality.pade", ("calls", "self_s")),
    ("rationality.apply_measure", ("self_s",)),
    ("rationality.verify_global", ("self_s",)),
    ("motivic.zeta_series", ("self_s",)),
    ("motivic.rational_form", ("self_s",)),
    ("motivic.parse", ("self_s",)),
    ("measures.harness", ("calls", "self_s")),
]
# per-layer values that are not a layer's calls or self time
PER_LAYER_EXTRA = [
    ("rings.max_coeff_bits", "bits", "lower"),
    ("rings.max_terms", "count", "lower"),
    ("rationality.pade.success_ratio", "ratio", "higher"),
    ("symfunc.cache_files_written", "count", "higher"),
    ("cli.run.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.failed", "count", "lower"),
    ("cli.typed_errors", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

SETUP_SAMPLES = 15
# setup_s is reported in seconds on a host where the reference kernel takes
# this long (its median on the 2-vCPU Intel Xeon VM the bounds were set on)
REF_NOMINAL_S = 0.0025
WORKER_TIMEOUT_S = 170


def per_layer_metrics():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for layer, kinds in PER_LAYER:
        for kind in kinds:
            out.append(("%s.%s" % (layer, kind), "count" if kind == "calls" else "s", "lower"))
    return out + PER_LAYER_EXTRA


def quartile_spread(values):
    """(Q3 - Q1) / median, or 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_child(cmd, **kwargs):
    """Run a child to completion and wait for it without polling: waiting
    with a timeout polls in sleeps of up to 50 ms, which would quantise
    every measured start-up time.  A timer kills a child that hangs."""
    proc = subprocess.Popen(cmd, **kwargs)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def local_ratios(times, ref):
    """Each time over the median of the kernel samples taken just before
    and just after it (ref holds len(times) + 1 equal groups).  The host
    switches between fast and slow states within seconds, and only nearby
    samples see the same state."""
    k = len(ref) // (len(times) + 1)
    return [t / statistics.median(ref[i * k:(i + 2) * k]) for i, t in enumerate(times)]


def measure_setup(root):
    """Time from starting a fresh interpreter to importing mzeta.cli and
    building its parser: (host-normalised median in seconds, raw samples).
    One untimed start first writes bytecode caches, so every timed start
    sees the same files; kernel samples around each start normalise it like
    the jobs, scaled back to seconds by REF_NOMINAL_S."""
    code = "import sys; sys.path.insert(0, 'src'); import mzeta.cli; mzeta.cli.build_parser()"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    run_child([sys.executable, "-c", code], cwd=root, env=env)
    samples, ref = [], []
    sample_host(ref)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", code], cwd=root, env=env)
        samples.append(time.perf_counter() - t0)
        sample_host(ref)
    return statistics.median(local_ratios(samples, ref)) * REF_NOMINAL_S, samples


def run_rep(root, workdir, jobs_path, rep, traced, spans_out):
    """One batch repetition in a fresh worker interpreter."""
    repdir = os.path.join(workdir, "rep%d" % rep)
    os.makedirs(repdir)
    spec = {"root": root, "jobs": jobs_path, "workdir": repdir, "trace": traced,
            "spans_out": spans_out if traced else None}
    spec_path = os.path.join(repdir, "spec.json")
    result_path = os.path.join(repdir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # string hashing changes the program's dict layouts and so its speed;
    # repetition k always uses hash seed k, so runs and commits see the same
    # set of layouts and the median across repetitions averages over them
    env = dict(os.environ, MZETA_CACHE_DIR=os.path.join(repdir, "cache"), PYTHONHASHSEED=str(rep))
    env.pop("PYTHONPATH", None)
    run_child([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
              cwd=root, env=env)
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    ratios = local_ratios([j["s"] for j in result["jobs"]], result["ref"])
    for rec, ratio in zip(result["jobs"], ratios):
        rec["ref"] = ratio
    result["unit_s"] = statistics.median(result["ref"])
    result["batch_s"] = sum(j["s"] for j in result["jobs"])
    result["batch_ref"] = sum(j["ref"] for j in result["jobs"])
    shutil.rmtree(repdir)
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def judge(reps):
    """(attempted, failed, wrong, failure list) over every repetition.  A
    crash is a failure; a wrong value or exit code is also wrong."""
    attempted = failed = wrong = 0
    failures = {}
    for r in reps:
        for rec in r["jobs"]:
            attempted += 1
            if rec["error"]:
                failed += 1
                failures[rec["id"]] = rec["error"]
                if rec["code"] is not None:  # ran to an answer, and it is wrong
                    wrong += 1
    # the same batch must fail the same jobs every time
    patterns = {tuple(rec["id"] for rec in r["jobs"] if rec["error"]) for r in reps}
    if len(patterns) > 1:
        wrong += 1
    return attempted, failed, wrong, failures


def run_workload(args, root, workload):
    workdir = os.path.join(HERE, ".work", "%s-%d-%d" % (workload, args.seed, os.getpid()))
    outdir = os.path.join(HERE, "out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        return _run_workload(args, root, workload, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, root, workload, workdir, outdir):
    batch = jobs.generate(workload, args.seed)
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w") as fh:
        json.dump(batch, fh)
    setup = None
    if not args.trace:
        setup = measure_setup(root)

    spans_out = os.path.join(outdir, "spans-%s.bin" % workload)
    reps = []
    order = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.perf_counter()
        reps.append(run_rep(root, workdir, jobs_path, len(reps), traced, spans_out))
        order.append({"rep": len(reps) - 1, "traced": traced,
                      "wall_s": time.perf_counter() - t0})
        longest = max(o["wall_s"] for o in order)
        need = 2 if args.trace else 1
        if len(reps) >= need and time.perf_counter() + longest > deadline:
            break
    measured_s = time.perf_counter() - start

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    attempted, failed, wrong, failures = judge(reps)
    job_ref = sorted(j["ref"] for r in plain for j in r["jobs"])
    job_s = sorted(j["s"] for r in plain for j in r["jobs"])
    first = plain[0]["jobs"]
    ok = [j for j in first if not j["error"]]

    def p90(values):
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    if not args.trace:
        values = {
            "batch_ref": statistics.median(r["batch_ref"] for r in plain),
            "job_p50_ref": statistics.median(job_ref),
            "job_p90_ref": p90(job_ref),
            "success_frac": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "setup_s": setup[0],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        metrics = layer_metrics(plain, traced_reps)

    refs = [x for r in plain for x in r["ref"]]
    record = {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "metrics": metrics,
        "raw_seconds": {
            "batch_s": [r["batch_s"] for r in plain],
            "batch_s_median": statistics.median(r["batch_s"] for r in plain),
            "job_p50_s": statistics.median(job_s),
            "job_p90_s": p90(job_s),
            "setup_samples_s": setup[1] if setup else None,
            "setup_s_median": statistics.median(setup[1]) if setup else None,
        },
        "job_ref_median": {
            j["id"]: statistics.median(r["jobs"][k]["ref"] for r in plain)
            for k, j in enumerate(first)},
        "samples": {"repetitions": len(plain), "traced_repetitions": len(traced_reps),
                    "job_latencies": len(job_ref)},
        "reference_kernel": {
            "unit_s_per_rep": [r["unit_s"] for r in plain],
            "spread": quartile_spread(refs),
            "samples": len(refs),
        },
        "size": {
            "jobs": len(batch["jobs"]),
            "series_terms": sum(j.get("series_terms", 0) for j in first),
            "max_coeff_bits": max((j.get("bits", 0) for j in ok), default=0),
            "max_terms": max((j.get("terms", 0) for j in ok), default=0),
            "output_bytes": sum(j["bytes"] for j in first),
        },
        "failed_frac": failed / attempted,
        "failures": failures,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "cpu": cpu_model()},
        "run_order": {"reps": order, "jobs": [j["id"] for j in batch["jobs"]]},
    }
    if traced_reps:
        record["spans_file"] = os.path.relpath(spans_out, root)
        record["spans"] = traced_reps[-1]["spans"]
    name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record, attempted, failed, wrong


def layer_metrics(plain, traced):
    """Per-layer metrics from the traced repetitions (medians of times)."""
    last = traced[-1]
    layers = last["layers"]
    values = {}
    for layer, kinds in PER_LAYER:
        calls = layers.get(layer, [0, 0.0])[0]
        if "calls" in kinds:
            values[layer + ".calls"] = calls
        values[layer + ".self_s"] = statistics.median(
            r["layers"].get(layer, [0, 0.0])[1] for r in traced)
    cli_jobs = [j for j in last["jobs"] if j["cli"]]
    pade_calls = layers.get("rationality.pade", [0, 0.0])[0]
    values.update({
        "rings.max_coeff_bits": last["max_coeff_bits"],
        "rings.max_terms": last["max_terms"],
        "rationality.pade.success_ratio": last["pade_successes"] / pade_calls if pade_calls else 0.0,
        "symfunc.cache_files_written": last["cache_files"],
        "cli.run.calls": layers.get("cli", [0, 0.0])[0],
        "cli.self_s": statistics.median(r["layers"].get("cli", [0, 0.0])[1] for r in traced),
        "cli.output_bytes": sum(j["bytes"] for j in last["jobs"]),
        "cli.failed": sum(1 for j in cli_jobs if j["code"] is None),
        "cli.typed_errors": sum(1 for j in cli_jobs if j["code"] == 1),
        "trace.overhead_frac": statistics.median(r["batch_ref"] for r in traced)
        / statistics.median(r["batch_ref"] for r in plain) - 1.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mzeta", "cli.py")):
        print("error: %s has no src/mzeta; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = total_wrong = 0
    combined = {}
    for workload in names:
        record, attempted, failed, wrong = run_workload(args, ROOT, workload)
        total_attempted += attempted
        total_failed += failed
        total_wrong += wrong
        print("== %s (seed %d, %d jobs x %d repetitions, %d failed, %s)"
              % (workload, args.seed, record["size"]["jobs"],
                 record["samples"]["repetitions"] + record["samples"]["traced_repetitions"],
                 failed, "values correct" if not wrong else "WRONG VALUES"))
        for name, m in record["metrics"].items():
            print("   %-36s %16.6g %s" % (name, m["value"], m["unit"]))
        print("   %-36s %16.6g %s" % ("(failed_frac)", record["failed_frac"], "ratio"))
        for name, m in record["metrics"].items():
            combined[name if len(names) == 1 else "%s.%s" % (workload, name)] = m
    print(json.dumps({"correct": total_wrong == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
