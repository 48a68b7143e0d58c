"""Seeded benchmark of the cherednik_centre package, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload sym-presentation --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the checkout (never an installed
copy), builds the workload's job list from the seed, and runs it as a closed
loop with one client and no threads.  Every job's output is checked against
its golden and its invariants (see ``jobs.py``).

``--trace 0`` runs passes over the job list until ``--seconds`` would be
exceeded (at least one) and reports the end-to-end metrics: ``setup_s``
(median of several set-ups: import the package, generate the jobs, run one
untimed warm-up job), ``wall_s`` (the time the package spends on the whole
list), ``job_p50_ms`` and ``job_tail_ms`` (percentiles over the jobs) and
``peak_rss_mb``.  Failed jobs are reported as ``failed`` out of
``attempted``.

The host this runs on is shared, and its speed drifts by tens of percent
over seconds and minutes.  So the times are reported at a fixed reference
host speed: after each set-up and each job the loop times a fixed
calibration block of pure-Python work for a small share of that time, and
each measured time is divided by how much slower than the reference
(``CAL_BLOCK_REF_S`` per block) the blocks of the same phase (the set-ups,
or one pass) ran.  A short job runs up to REPEAT_MAX times back to back
in each pass, and a job's latency is the median over the passes of its
median run.  The measured, unscaled times are printed too.

``--trace 1`` runs three passes (untraced, with spans, with the profiler)
and reports the per-layer metrics (see ``layers.py``); the spans are written
to ``bench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import jobs as jobmod
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = "cherednik_centre"
SETUP_REPEATS = 25
TAIL_BEYOND = 10
OUT_DIR = BENCH_DIR / "out"
# Host-speed calibration (see calibration_block): after each timed set-up
# and job the loop spends CAL_SHARE of its time on calibration blocks.  A
# block takes CAL_BLOCK_REF_S at the reference speed, about the median speed
# of a shared 2-vCPU Xeon virtual machine under Python 3.11.
CAL_BLOCK_SIZE = 9
CAL_SHARE = 0.05
CAL_BLOCK_REF_S = 450e-6
# In --trace 0 a job whose run is short runs again, back to back, until it
# has run REPEAT_MAX times or for REPEAT_MIN_S; its latency is the median.
REPEAT_MAX = 3
REPEAT_MIN_S = 0.015

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def load_package(src: Path):
    """Import the package afresh from ``src``; raise ImportError if it is not there."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    package_dir = (src / PACKAGE).resolve()
    if Path(package.__file__).resolve().parent != package_dir:
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not {package_dir}")
    names = layers.MODULES + ("errors",)
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}
    return SimpleNamespace(
        package_dir=package_dir, modules=[package, *modules.values()], **modules
    )


def setup(src: Path, workload: str, seed: int):
    """Import, generate the job list, run the warm-up; return its parts and time."""
    start = time.perf_counter()
    pkg = load_package(src)
    job_list = jobmod.job_list(pkg, workload, seed)
    warmup = jobmod.warmup_job(pkg, workload)
    try:
        result = jobmod.execute(pkg, warmup)
    except Exception:
        result = None
    return time.perf_counter() - start, pkg, job_list, warmup, result


def _calibration_poly(shift: int) -> dict[tuple[int, ...], Fraction]:
    return {
        (i % 3, (i + shift) % 4, i // 4): Fraction((i + 1) ** 9 + shift, (i + shift) ** 2 + 7)
        for i in range(CAL_BLOCK_SIZE)
    }


def calibration_block() -> str:
    """A fixed piece of pure-Python work like the package's own: a sparse
    product of polynomials with exact coefficients (tuple monomials, dict
    updates, Fraction arithmetic), sorted and rendered as text."""
    product: dict[tuple[int, ...], Fraction] = {}
    for ma, ca in CAL_POLYS[0].items():
        for mb, cb in CAL_POLYS[1].items():
            mono = tuple(a + b for a, b in zip(ma, mb))
            product[mono] = product.get(mono, 0) + ca * cb
    return " + ".join(f"{c}*u^{m}" for m, c in sorted(product.items()))


CAL_POLYS = (_calibration_poly(1), _calibration_poly(2))


def calibrate(share_of: float) -> list[float]:
    """Time calibration blocks for about ``CAL_SHARE * share_of`` seconds
    (at least one block); return each block's time."""
    times: list[float] = []
    while not times or sum(times) < CAL_SHARE * share_of:
        start = time.perf_counter()
        calibration_block()
        times.append(time.perf_counter() - start)
    return times


def slowdown(block_times: list[float]) -> float:
    """How much slower than the reference speed the host ran the blocks.

    The host switches between speeds, so this is a mean, trimmed of the
    fastest and slowest tenth of the blocks (the first block after a job
    often runs with cold caches).
    """
    ordered = sorted(block_times)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / CAL_BLOCK_REF_S


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    block_times: list[float] = field(default_factory=list)
    runs: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(
    pkg, job_list, goldens, spans=None, counts=None, profiler=None, steady=False
) -> Pass:
    """One pass over the list; only the package's calls are inside the timers.

    ``steady`` runs a job whose first run is short again, back to back, up
    to REPEAT_MAX runs or REPEAT_MIN_S of latency, and takes the median
    latency; and after each run it runs calibration blocks for a fixed
    share of that latency, so the pass samples the host's speed in
    proportion to the time it spends.
    """
    done = Pass()
    values = {}
    gc.collect()
    for job in job_list:
        if spans is not None:
            spans.start_job(job.key)
        if profiler is not None:
            profiler.enable()
        times, outcomes = [], []
        while not times or steady and len(times) < REPEAT_MAX and sum(times) < REPEAT_MIN_S:
            start = time.perf_counter()
            try:
                outcomes.append((jobmod.execute(pkg, job), None))
            except Exception:
                outcomes.append((None, "raised " + traceback.format_exc(limit=3)))
            times.append(time.perf_counter() - start)
            if steady:
                done.block_times += calibrate(times[-1])
        if profiler is not None:
            profiler.disable()
        if spans is not None:
            spans.end_job()
        done.latencies.append(statistics.median(times))
        done.runs += len(times)
        calls = spans.take_calls() if spans is not None else []
        try:
            for result, raised in outcomes:
                if raised:
                    raise jobmod.CheckFailed(raised)
                jobmod.check(pkg, job, result, goldens)
        except jobmod.CheckFailed as err:
            done.failures[job.key] = str(err)
            continue
        values[job.key] = jobmod.group_value(job, result)
        if counts is not None:
            counts.absorb(spans, calls)
            if job.kind == "cli":
                counts.add_output(result.stdout)
    for key in jobmod.group_failures(pkg, job_list, values):
        done.failures.setdefault(key, "group breaks sum((dim lam)^2) = n!")
    return done


def normalised_latencies(passes: list[Pass]) -> list[float]:
    """Each job's median latency over the passes at the reference host speed.

    The host's speed drifts by tens of percent over seconds and minutes;
    dividing each pass's latencies by the slowdown its calibration blocks
    measured takes that drift out, and the medians over repeats and passes
    take out the remaining bursts.
    """
    factors = [slowdown(p.block_times) for p in passes]
    return [
        statistics.median(t / f for t, f in zip(times, factors))
        for times in zip(*(p.latencies for p in passes))
    ]


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it."""
    if jobs_per_pass <= 2 * TAIL_BEYOND:
        return 50
    return math.floor(100 * (jobs_per_pass - TAIL_BEYOND) / jobs_per_pass)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, traced: bool, goldens):
    """Run one benchmark; return ``(metrics, attempted, failures, notes)``."""
    src = ROOT / "src"
    setups, setup_blocks = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, pkg, job_list, warmup, warm_result = setup(src, workload, seed)
        setups.append(elapsed)
        if not traced:
            setup_blocks += calibrate(elapsed)
    failures: dict[str, str] = {}
    try:
        if warm_result is None:
            raise jobmod.CheckFailed("raised")
        jobmod.check(pkg, warmup, warm_result, goldens)
    except jobmod.CheckFailed as err:
        failures["warm-up " + warmup.key] = str(err)
    attempted = 1
    notes = []
    if not traced:
        passes = []
        began = time.perf_counter()
        loop_walls = []
        while True:
            started = time.perf_counter()
            passes.append(run_pass(pkg, job_list, goldens, steady=True))
            loop_walls.append(time.perf_counter() - started)
            if time.perf_counter() - began + statistics.median(loop_walls) > seconds:
                break
        per_job = normalised_latencies(passes)
        pct = tail_percentile(len(per_job))
        setup_slowdown = slowdown(setup_blocks)
        metrics = {
            "setup_s": statistics.median(setups) / setup_slowdown,
            "wall_s": math.fsum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1e3,
            "job_tail_ms": percentile(per_job, pct) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        slowdowns = ", ".join(f"{slowdown(p.block_times):.3f}" for p in passes)
        notes.append(
            f"times are at the reference host speed: each job's median over {len(passes)} "
            f"passes of its latency divided by its pass's host slowdown ({slowdowns}); "
            f"set-up slowdown {setup_slowdown:.3f}"
        )
        notes.append(
            f"measured, not normalised: set-up {statistics.median(setups):.6g} s, "
            f"median pass {statistics.median(p.wall_s for p in passes):.6g} s"
        )
        notes.append(
            f"job_tail_ms is p{pct} of {len(per_job)} jobs (at least {TAIL_BEYOND} beyond it); "
            f"{sum(p.runs for p in passes)} runs of {len(passes) * len(per_job)} jobs"
        )
    else:
        untraced = run_pass(pkg, job_list, goldens)
        spans = layers.Spans(pkg)
        counts = layers.Counts(pkg)
        with spans:
            traced_pass = run_pass(pkg, job_list, goldens, spans=spans, counts=counts)
        profiler = cProfile.Profile()
        profiled = run_pass(pkg, job_list, goldens, profiler=profiler)
        passes = [untraced, traced_pass, profiled]
        metrics = {name: spans.stage_seconds(names) for name, names in layers.STAGES.items()}
        metrics["hilbert.oracle_calls"] = spans.count("hilbert.graded_dimensions_from_presentation")
        metrics["centre.blocks"] = spans.count("centre.block")
        metrics.update(counts.metrics())
        metrics.update(layers.profile_layers(profiler, pkg.package_dir, profiled.wall_s))
        metrics["trace.untraced_wall_s"] = untraced.wall_s
        metrics["trace.wall_s"] = traced_pass.wall_s
        metrics["trace.overhead_s"] = traced_pass.wall_s - untraced.wall_s
        metrics["trace.profiled_wall_s"] = profiled.wall_s
        metrics["trace.profiler_overhead_s"] = profiled.wall_s - untraced.wall_s
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        spans.write(spans_path)
        notes.append(f"{len(spans.spans)} spans written to {spans_path}")
    for number, done in enumerate(passes):
        attempted += len(done.latencies)
        for key, reason in done.failures.items():
            failures[f"pass {number} {key}"] = reason
    return metrics, attempted, failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobmod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        with open(BENCH_DIR / "goldens.json") as handle:
            goldens = json.load(handle)
        metrics, attempted, failures, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), goldens
        )
    except ImportError as err:
        print(f"bench: cannot import {PACKAGE} from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    for key, reason in list(failures.items())[:10]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    units = END_TO_END_UNITS if not args.trace else {m: layer_unit(m) for m in metrics}
    report = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in report.items():
        value = entry["value"]
        print(f"{name}: {value if isinstance(value, int) else f'{value:.6g}'} {entry['unit']}")
    print(f"failed_ratio: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} jobs)")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
