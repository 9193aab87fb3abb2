"""One pass of a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py setup WORKLOAD
        Import wordhom and construct the workload's objects, then exit.  The
        parent times this whole process to measure set-up.

    python3 perfbench/worker.py reference
        Print the seconds this interpreter takes for the reference work, a
        fixed computation that never touches wordhom (see run.py).

    python3 perfbench/worker.py pass < payload.json
        Payload: {"workload", "jobs", "trace", "spans_path"}.  Set up, turn
        the job inputs into package objects, then run the jobs one at a time
        and print one JSON result object on stdout.  With "trace" the calls
        into the package are wrapped by tracing.Tracer for the job loop only.

wordhom is imported from the src/ directory next to this one, never from
anywhere else, so the benchmark measures the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_wordhom():
    if not os.path.isfile(os.path.join(SRC, "wordhom", "__init__.py")):
        raise SystemExit(f"wordhom sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import wordhom
    import wordhom.cli

    if not os.path.abspath(wordhom.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"wordhom was imported from {wordhom.__file__}, not {SRC}")
    return wordhom


def peak_rss_mb():
    """High-water resident memory of this process's own address space.

    ru_maxrss is no good here: Linux carries it across exec, so a worker
    would report its parent's size whenever that is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload):
    """Import the package and construct the objects the workload's jobs use."""
    wordhom = import_wordhom()
    if workload == "inj-bar":
        objects = {("letters", 6): wordhom.Alphabet.letters(6)}
        objects.update({("group", n): wordhom.PermutationGroup.symmetric(n) for n in (2, 3, 4, 5)})
    elif workload == "gp-fill":
        objects = {("vectors", p): wordhom.VectorRelation(p, 2) for p in (5, 7, 11)}
        objects.update({("letters", m): wordhom.Alphabet.letters(m) for m in (7, 8)})
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return wordhom, objects


REFERENCE_REPEATS = 10


def reference():
    """Seconds for REFERENCE_REPEATS boundaries of workloads.reference_words()."""
    import workloads

    words = workloads.reference_words()
    t0 = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        workloads.boundary(words)
    return perf_counter() - t0


def _word(symbols):
    return tuple(tuple(s) if isinstance(s, list) else s for s in symbols)


def prepare(wordhom, objects, job):
    """A zero-argument callable running the job, built before timing starts.

    It returns (ok, exit code, raw answer); the answer is turned into JSON
    only after the job loop.
    """
    cli = wordhom.cli
    filler = wordhom.filler
    if job["kind"] == "cli":
        argv = list(job["argv"])

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(argv)
            return rc == 0, rc, out.getvalue()

        return run_cli
    terms = {_word(w): c for w, c in job["cycle"]}
    if job["kind"] == "fill_inj":
        cycle = wordhom.Chain(objects["letters", job["m"]], job["degree"], terms)
        return lambda: (True, 0, filler.fill_injective(cycle))
    relation = objects["vectors", job["p"]]
    cycle = wordhom.Chain(relation.alphabet, job["degree"], terms)
    base = _word(job["base"])
    order = job["order"]
    return lambda: (True, 0, filler.fill_gp(cycle, relation, base, order_value=order))


def _answer(job, raw):
    if job["kind"] == "cli":
        return json.loads(raw)
    return [[list(map(_json_symbol, w)), c] for w, c in raw.filling.terms()]


def _json_symbol(s):
    return list(s) if isinstance(s, tuple) else s


def run_pass(payload):
    wordhom, objects = setup(payload["workload"])
    jobs = payload["jobs"]
    calls = [prepare(wordhom, objects, job) for job in jobs]
    tracer = None
    if payload.get("trace"):
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    raw = []
    start = perf_counter()
    try:
        for job, call in zip(jobs, calls):
            scope = tracer.job(job["id"]) if tracer else contextlib.nullcontext()
            with scope:
                t0 = perf_counter()
                try:
                    ok, rc, answer = call()
                    error = None
                except Exception as exc:  # a failed job is counted, never fatal
                    ok, rc, answer = False, None, None
                    error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                    traceback.print_exc(file=sys.stderr)
                raw.append((ok, rc, answer, error, perf_counter() - t0))
        solve_s = perf_counter() - start
        peak_mb = peak_rss_mb()
    finally:
        if tracer:
            tracer.remove()

    results = []
    for job, (ok, rc, answer, error, seconds) in zip(jobs, raw):
        entry = {"id": job["id"], "ok": ok, "rc": rc, "seconds": seconds, "error": error}
        if ok:
            try:
                entry["output"] = _answer(job, answer)
            except ValueError as exc:
                entry.update(ok=False, error=f"unreadable answer: {exc}")
        results.append(entry)
    out = {"solve_s": solve_s, "peak_rss_mb": peak_mb, "jobs": results}
    if tracer:
        out["layers"] = layer_metrics(tracer, solve_s)
        if payload.get("spans_path"):
            with open(payload["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job"],
                           "spans": tracer.spans()}, fh, separators=(",", ":"))
    return out


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        setup(argv[1])
        return 0
    if argv == ["reference"]:
        print(repr(reference()))
        return 0
    if argv == ["pass"]:
        result = run_pass(json.load(sys.stdin))
        sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
