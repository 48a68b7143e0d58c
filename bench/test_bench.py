"""Tests of the benchmark itself, on trimmed job lists.

Run from the root of a source checkout:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import jobs
import run

CHEAP = {
    "sym-presentation": lambda job: job.args[-1].startswith("9"),
    "cross-check": lambda job: job.kind == "oracle" and job.group <= 4 or job.key == "relations 9",
    "wreath-centre": lambda job: job.group == (3, 3) or job.args[-1] in ("5|-", "-|4,1", "4|1"),
}
COUNT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture(scope="module")
def pkg():
    return run.load_package(run.ROOT / "src")


@pytest.fixture(scope="module")
def goldens():
    with open(run.BENCH_DIR / "goldens.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def declared():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture
def trimmed(monkeypatch, tmp_path):
    """Trim every job list to a few cheap jobs; write spans under tmp_path."""
    full = jobs.job_list

    def cheap_list(pkg, workload, seed):
        return [job for job in full(pkg, workload, seed) if CHEAP[workload](job)][:8]

    monkeypatch.setattr(jobs, "job_list", cheap_list)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_the_same_job_list(pkg, workload):
    assert jobs.job_list(pkg, workload, 7) == jobs.job_list(pkg, workload, 7)


def test_seeds_draw_the_same_mix_of_jobs(pkg):
    def mix(seed):
        return Counter(
            (sum(map(int, job.args[-1].split(","))), "--simplified" in job.args, job.args[-3])
            for job in jobs.job_list(pkg, "sym-presentation", seed)
        )

    lists = [jobs.job_list(pkg, "sym-presentation", seed) for seed in (1, 2)]
    assert lists[0] != lists[1]
    assert len(lists[0]) == len(lists[1]) == 410
    assert mix(1) == mix(2)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_job_and_warmup_has_a_golden(pkg, goldens, workload):
    keys = {job.key for job in jobs.pool(pkg, workload)}
    assert {job.key for job in jobs.job_list(pkg, workload, 3)} <= keys
    assert jobs.warmup_job(pkg, workload).key in keys
    assert keys <= set(goldens)


def test_labels_with_an_empty_first_component_are_timed(pkg):
    labels = [job.args[-1] for job in jobs.job_list(pkg, "wreath-centre", 1)]
    assert sum(label.startswith("-|") for label in labels) == 5 + 7
    assert not set(jobs.WREATH_REACH_TARGETS) & set(labels)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(trimmed, capsys, declared, trace):
    assert run.main(["--workload", "wreath-centre", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for name, entry in result["metrics"].items():
        assert f"{name}: " in out and out.split(f"{name}: ")[1].split("\n")[0].endswith(
            " " + entry["unit"]
        )


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_counts_repeat_exactly(trimmed, goldens, declared, workload):
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    counted = [name for name, unit in units.items() if unit in COUNT_UNITS]

    def counts():
        metrics, _attempted, failures, _notes = run.measure(workload, 5, 1, True, goldens)
        assert not failures
        return {name: metrics[name] for name in counted}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_a_wrong_golden_counts_as_a_failed_job(pkg, goldens):
    job_list = [job for job in jobs.job_list(pkg, "cross-check", 1) if CHEAP["cross-check"](job)]
    (victim,) = [job for job in job_list if job.kind == "relations"]
    assert not run.run_pass(pkg, job_list, goldens).failures
    wrong = dict(goldens, **{victim.key: "0" * 64})
    failures = run.run_pass(pkg, job_list, wrong).failures
    assert list(failures) == [victim.key]


def test_a_broken_group_invariant_fails_the_whole_weight(pkg):
    job_list = [job for job in jobs.job_list(pkg, "cross-check", 1) if job.kind == "oracle"]
    dims = {job.key: pkg.hilbert.dimension_hook_formula(job.args[0]) for job in job_list}
    assert not jobs.group_failures(pkg, job_list, dims)
    victim = job_list[0]
    dims[victim.key] += 1
    assert jobs.group_failures(pkg, job_list, dims) == {
        job.key for job in job_list if job.group == victim.group
    }


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sym-presentation", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_slowdown_is_taken_out_of_the_latencies():
    ref = run.CAL_BLOCK_REF_S
    fast = run.Pass(latencies=[0.010, 0.200], block_times=[ref] * 9 + [50 * ref])
    slow = run.Pass(latencies=[0.020, 0.400], block_times=[2 * ref] * 10)
    assert run.slowdown(fast.block_times) == pytest.approx(1.0)
    assert run.normalised_latencies([fast, slow, fast]) == pytest.approx([0.010, 0.200])


def test_a_steady_pass_repeats_short_jobs_and_checks_every_run(pkg, goldens):
    job_list = [job for job in jobs.job_list(pkg, "cross-check", 1) if CHEAP["cross-check"](job)]
    done = run.run_pass(pkg, job_list, goldens, steady=True)
    assert not done.failures and done.block_times
    assert len(job_list) < done.runs <= run.REPEAT_MAX * len(job_list)
    (victim,) = [job for job in job_list if job.kind == "relations"]
    wrong = dict(goldens, **{victim.key: "0" * 64})
    assert list(run.run_pass(pkg, job_list, wrong, steady=True).failures) == [victim.key]
