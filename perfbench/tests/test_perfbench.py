"""Tests of the benchmark itself: seeded inputs, answer checks and tracing.

    python3 -m pytest -q perfbench/tests

They run short job lists (the cheap jobs of the gp-fill workload) rather than
whole workloads.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [n for n, unit in run.PER_LAYER.items() if unit == "count"]


def traced_pass(workload, jobs):
    """One traced pass in a fresh worker, as run.py makes it."""
    result, _, error = run.run_pass(workload, jobs, True, None, deadline=time.monotonic() + 300)
    assert error is None, error
    return result


def cheap_gp_jobs(seed):
    """Certificates and the homology jobs with a nonempty base."""
    return [
        job for job in workloads.make_jobs("gp-fill", seed)
        if job["kind"] != "cli" or job["check"].get("base_length", 0) > 0
    ]


def test_traced_counts_repeat_at_a_fixed_seed():
    jobs = cheap_gp_jobs(7)
    first = traced_pass("gp-fill", jobs)
    second = traced_pass("gp-fill", jobs)
    for result in (first, second):
        _, failures = run.pass_metrics(jobs, result)
        assert failures == []
    counts = {name: first["layers"][name] for name in COUNT_METRICS}
    assert counts == {name: second["layers"][name] for name in COUNT_METRICS}
    assert first["layers"]["genpos.gp_accept_frac"] == second["layers"]["genpos.gp_accept_frac"]
    assert counts["filler.certs"] == sum(job["kind"] != "cli" for job in jobs)
    assert counts["genpos.gp_calls"] > 0 and counts["complexes.basis_words"] > 0


def test_seed_changes_inputs_but_not_gp_basis_sizes():
    one, two = workloads.make_jobs("gp-fill", 1), workloads.make_jobs("gp-fill", 2)
    assert [j.get("cycle") for j in one] != [j.get("cycle") for j in two]
    assert [j.get("argv") for j in one] != [j.get("argv") for j in two]
    assert [j.get("base") for j in one] != [j.get("base") for j in two]
    assert workloads.make_jobs("gp-fill", 1) == one

    def homology_with_base(jobs):
        return [j for j in jobs if j["kind"] == "cli" and j["check"].get("base_length", 0) > 0]

    words = [traced_pass("gp-fill", homology_with_base(jobs))["layers"]["complexes.basis_words"]
             for jobs in (one, two)]
    assert words[0] == words[1] > 0


def test_generated_inputs_are_cycles_in_the_right_complex():
    for job in workloads.make_jobs("gp-fill", 3):
        if job["kind"] == "fill_gp":
            cycle = workloads.decode(job["cycle"])
            base = tuple(map(tuple, job["base"]))
            assert cycle and workloads.boundary(cycle) == {}
            assert workloads.gp_dim2(base, (), job["p"])
            assert all(workloads.gp_dim2(w, base, job["p"]) for w in cycle)
            assert 2 * job["degree"] + len(base) + 1 <= job["order"]
        elif "base_length" in job.get("check", {}):
            base = tuple(map(tuple, json.loads(job["argv"][job["argv"].index("--base") + 1])))
            assert len(base) == job["check"]["base_length"]
            assert workloads.gp_dim2(base, (), job["check"]["gp_p"])
        elif job["kind"] == "fill_inj":
            cycle = workloads.decode(job["cycle"])
            assert cycle and workloads.boundary(cycle) == {}
            assert job["degree"] < job["m"]


def test_wrong_answers_are_counted_not_raised():
    jobs = [j for j in workloads.make_jobs("gp-fill", 5) if j["kind"] == "fill_gp"][:3]
    jobs.insert(0, workloads.make_jobs("gp-fill", 5)[1])
    cycle = workloads.decode(jobs[1]["cycle"])
    result = {"solve_s": 1.0, "peak_rss_mb": 1.0, "jobs": [
        # H_0 reported as Z although the complex is acyclic there
        {"ok": True, "seconds": 0.5,
         "output": {"groups": [{"degree": 0, "free_rank": 1, "torsion": []}]}},
        # the cycle itself is no filling of the cycle
        {"ok": True, "seconds": 0.1, "output": workloads.encode(cycle)},
        {"ok": False, "seconds": 0.1, "rc": None, "error": "ResourceLimit: budget"},
        {"ok": True, "seconds": 0.1, "output": {"not": "a filling"}},
    ]}
    figures, failures = run.pass_metrics(jobs, result)
    assert [i for i, _ in failures] == [j["id"] for j in jobs]
    assert figures["homology_s"] == 0.5


def test_a_crashed_pass_fails_its_jobs_and_still_reports(monkeypatch):
    monkeypatch.setattr(run, "run_pass", lambda *args: (None, 0.1, "worker exit 1: boom"))
    report, result = run.benchmark("inj-bar", 1, 1.0, False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(workloads.make_jobs("inj-bar", 1))
    assert report["failures"] == ["worker exit 1: boom"]


def test_worker_records_exceptions_and_removes_wrappers():
    originals = {}
    worker.import_wordhom()
    for module_name, class_name, attr, _, _ in tracing.TARGETS:
        module = sys.modules[f"wordhom.{module_name}"]
        owner = getattr(module, class_name) if class_name else module
        originals[(module_name, class_name, attr)] = owner.__dict__[attr]

    good = next(j for j in workloads.make_jobs("gp-fill", 1) if j["kind"] == "fill_inj")
    # A chain in the top degree is outside the filler's range: OutOfRange.
    bad = dict(good, id=0, m=7, degree=7, cycle=[[[1, 2, 3, 4, 5, 6, 7], 1]])
    result = worker.run_pass({"workload": "gp-fill", "jobs": [bad, dict(good, id=1)],
                              "trace": True})
    assert result["jobs"][0]["ok"] is False
    assert "OutOfRange" in result["jobs"][0]["error"]
    assert result["jobs"][1]["ok"] is True
    assert result["layers"]["filler.certs"] == 1

    for (module_name, class_name, attr), original in originals.items():
        module = sys.modules[f"wordhom.{module_name}"]
        owner = getattr(module, class_name) if class_name else module
        assert owner.__dict__[attr] is original, (module_name, class_name, attr)


def test_layer_self_times_account_for_the_traced_pass():
    jobs = cheap_gp_jobs(11)[:40]
    result = traced_pass("gp-fill", jobs)
    total = sum(result["layers"][name] for name in tracing.SELF_TIMES)
    assert total == pytest.approx(result["solve_s"], rel=1e-9, abs=1e-9)


def test_independent_checks_know_the_expected_answers():
    assert [workloads.derangements(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]
    assert workloads.blocks_dim2(tuple(workloads.projective_points(5)), 5)
    assert not workloads.blocks_dim2(tuple(workloads.projective_points(5))[:-1], 5)
    assert not workloads.gp_dim2(((1, 1),), ((2, 2),), 5)
    assert workloads.gp_dim2(((1, 1),), ((0, 0), (1, 0)), 5)


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inj-bar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
