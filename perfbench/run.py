"""End-to-end benchmark of wordhom on two closed-loop workloads.

    python3 perfbench/run.py --workload {inj-bar,gp-fill} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; wordhom is imported from its src/.  The
seed makes the job list (workloads.py); the program sees only the generated
inputs.  One client runs the list one job at a time.  Every pass over the
list runs in a fresh worker process (worker.py), and passes repeat while
another whole pass still fits in S seconds (at least one pass).  Set-up is
timed separately: fresh interpreters import the package and construct the
workload's objects, SETUP_SAMPLES times spread over the run.

Every answer is checked outside the timed region against values computed
here (workloads.check); a wrong answer, an exception or a nonzero exit code
counts as a failed job and never aborts the run.

With --trace 0 the result carries the end-to-end metrics: times are the mean
over the run's passes, so each covers the whole run's work; peak memory and
set-up time are medians.  Times are scaled by machine_scale to a machine
that does the reference work in REFERENCE_S seconds; the report also shows
the raw figures.  With --trace 1 untraced and traced passes
alternate; the result carries the per-layer metrics of the traced passes
(tracing.py) and the tracing overhead, and the spans of the last traced pass
are written to perfbench/out/.  A human-readable report precedes the result,
which is the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 whenever a result is printed, and 2 when the package
cannot be run at all (for example, no src/wordhom next to perfbench/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import CALLS, COUNTS, SELF_TIMES  # noqa: E402

SETUP_SAMPLES = 15
# Reported times are scaled to a machine that runs the reference work in
# this many seconds (see machine_scale).
REFERENCE_S = 0.2
# The whole run, set-up and passes, must end well inside three minutes.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "homology_s": "s",
    "peak_rss_mb": "MB",
}
# Reported in the human-readable report only: they exist on some workloads.
REPORTED = {"order_s": "s", "certs_per_s": "1/s"}

PER_LAYER = {name: "s" for name in SELF_TIMES}
PER_LAYER.update({name: "count" for name in CALLS})
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({
    "linalg.snf_max_s": "s",
    "genpos.gp_accept_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
})


class BenchError(Exception):
    """The package could not be run at all; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(workload, deadline):
    """Wall time of one fresh interpreter doing the set-up."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "setup", workload],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return time.perf_counter() - t0


def time_reference(deadline):
    """Seconds a fresh interpreter takes for the reference work."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "reference"], capture_output=True, text=True,
            cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
        )
        return float(proc.stdout)
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise BenchError("the reference work did not finish") from exc


def machine_scale(reference_samples):
    """Factor that turns this run's wall times into reference-machine seconds.

    The host's speed drifts by up to 2x within minutes, and wall times drift
    with it.  The reference work is fixed code that never touches wordhom,
    timed in a fresh interpreter before every pass, so the ratio of a job
    list's time to the reference's time over the same run does not depend
    on how busy the host was, while every change to the program still moves
    it in full.
    """
    return REFERENCE_S / statistics.fmean(reference_samples)


def run_pass(workload, jobs, trace, spans_path, deadline):
    """One pass in a fresh worker; on a crash or timeout every job fails."""
    payload = {
        "workload": workload,
        "jobs": [workloads.worker_view(job) for job in jobs],
        "trace": trace,
        "spans_path": spans_path,
    }
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "pass"], input=json.dumps(payload),
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, "the pass ran out of time"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, wall, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout), wall, None
    except ValueError:
        return None, wall, "the worker printed no result"


def pass_metrics(jobs, result):
    """End-to-end figures and failures of one finished pass."""
    failures = []
    homology_s = order_s = cert_s = 0.0
    certs = 0
    for job, res in zip(jobs, result["jobs"]):
        problems = workloads.check(job, res)
        if problems:
            failures.append((job["id"], problems))
        if job["kind"] == "cli" and job["group"] == "homology":
            homology_s += res["seconds"]
        elif job["kind"] == "cli":
            order_s += res["seconds"]
        else:
            cert_s += res["seconds"]
            certs += not problems
    figures = {
        "solve_s": result["solve_s"],
        "homology_s": homology_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if any(job["kind"] == "cli" and job["group"] == "order" for job in jobs):
        figures["order_s"] = order_s
    if cert_s:
        figures["certs_per_s"] = certs / cert_s
    return figures, failures


def environment():
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_rev": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            info["git_rev"] = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "wordhom")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def summarize(values, how, factor):
    """The run's value of a metric from its samples: the mean or median,
    multiplied by factor; the raw figure and quartiles stay unscaled."""
    raw = statistics.fmean(values) if how == "mean" else statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": raw * factor, "raw": raw, "how": how, "q1": q1, "q3": q3,
            "n": len(values)}


def benchmark(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "wordhom", "__init__.py")):
        raise BenchError(f"no wordhom sources under {ROOT}/src")
    jobs = workloads.make_jobs(workload, seed)
    env = environment()
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")

    start = time.monotonic()
    measure_until = start + seconds
    setup_samples = []
    reference_samples = []
    passes = {False: [], True: []}
    attempted = failed = 0
    failure_notes = []
    traced = False
    while True:
        # Set-up samples are spread evenly over the run.
        if len(setup_samples) < 1 + SETUP_SAMPLES * (time.monotonic() - start) / seconds:
            setup_samples.append(time_setup(workload, deadline))
        reference_samples.append(time_reference(deadline))
        result, wall, error = run_pass(workload, jobs, traced, spans_path if traced else None,
                                       deadline)
        attempted += len(jobs)
        if result is None:
            failed += len(jobs)
            failure_notes.append(error)
            break
        figures, failures = pass_metrics(jobs, result)
        failed += len(failures)
        failure_notes.extend(f"job {i}: {'; '.join(p)}" for i, p in failures)
        passes[traced].append((figures, result.get("layers")))
        if trace:
            traced = not traced
        now = time.monotonic()
        measured_all = passes[False] and (passes[True] or not trace)
        if now + wall > deadline or (measured_all and now + wall > measure_until):
            break
    while len(setup_samples) < SETUP_SAMPLES and time.monotonic() + 5 < deadline:
        setup_samples.append(time_setup(workload, deadline))

    untraced = [fig for fig, _ in passes[False]]
    scale = machine_scale(reference_samples)
    summary = {"setup_s": summarize(setup_samples, "median", scale)}
    for name in list(END_TO_END)[1:] + list(REPORTED):
        values = [fig[name] for fig in untraced if name in fig]
        if not values:
            continue
        if name == "peak_rss_mb":
            summary[name] = summarize(values, "median", 1.0)
        else:
            summary[name] = summarize(values, "mean", 1 / scale if name == "certs_per_s" else scale)
    summary["failed_frac"] = {"value": failed / attempted, "failed": failed,
                              "attempted": attempted}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "jobs_per_pass": len(jobs),
              "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
              "solve_per_pass": [fig["solve_s"] for fig in untraced],
              "reference": summarize(reference_samples, "mean", 1.0), "scale": scale,
              "end_to_end": summary, "failures": failure_notes[:20]}

    metrics = {}
    if trace:
        layers = [layer for _, layer in passes[True]]
        solve_traced = [fig["solve_s"] for fig, _ in passes[True]]
        solve_plain = [fig["solve_s"] for fig in untraced]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = (statistics.fmean(solve_traced) / statistics.fmean(solve_plain) - 1
                         if solve_traced and solve_plain else 0.0)
            elif not layers:
                value = 0
            elif unit == "count":
                value = statistics.median_low(layer[name] for layer in layers)
            else:
                value = statistics.fmean(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["accounting"] = [
            (fig["solve_s"], sum(layer[name] for name in SELF_TIMES))
            for fig, layer in passes[True]
        ]
    else:
        for name, unit in END_TO_END.items():
            if name in summary:
                metrics[name] = {"value": summary[name]["value"], "unit": unit}
    return report, {"correct": failed == 0 and bool(metrics), "attempted": attempted,
                    "failed": failed, "metrics": metrics}


def print_report(report, result):
    env = report["environment"]
    print(f"wordhom benchmark: workload {report['workload']}, seed {report['seed']},"
          f" {report['seconds']} s, trace {report['trace']}")
    print(f"  python {env['python']}, nproc {env['nproc']}, usable cpus {env['usable_cpus']},"
          f" loadavg {env['loadavg']}, git {env['git_rev']}, src sha256 {env['src_sha256']}")
    print(f"  {report['jobs_per_pass']} jobs per pass; passes: {report['passes']}")
    print(f"  untraced solve_s per pass: {[round(x, 3) for x in report['solve_per_pass']]}")
    ref = report["reference"]
    print(f"  reference work: mean {ref['raw']:.4f} s, n={ref['n']};"
          f" times below are scaled by {REFERENCE_S} / {ref['raw']:.4f} = {report['scale']:.4f}")
    units = {**END_TO_END, **REPORTED}
    for name, s in report["end_to_end"].items():
        if name == "failed_frac":
            print(f"  {name:<14} {s['value']:.4f} ratio ({s['failed']} of {s['attempted']} jobs)")
        else:
            print(f"  {name:<14} {s['value']:.4f} {units[name]} (raw {s['how']} {s['raw']:.4f},"
                  f" q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    if report["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
        for solve_s, self_total in report["accounting"]:
            print(f"  traced pass: layer self times sum to {self_total:.4f} s"
                  f" of its solve_s {solve_s:.4f} s")
        print(f"  spans of the last traced pass: {report['spans_file']}")
    for note in report.get("failures", []):
        print(f"  FAILED {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print_report(report, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
