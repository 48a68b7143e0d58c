"""Job pools, seeded job lists, job execution and output checks.

A job is one public call into the package: ``cli.run(argv)`` with stdout
captured, or a pair of library calls that compute one quantity by two
independent routes.  Every job in every pool has a golden sha256 of its
canonical output in ``goldens.json`` (written by ``make_goldens.py`` at the
commit that defined the benchmark), and each kind of job also checks
invariants that hold whatever the goldens say.

Workloads (closed loop, one client, no threads):

* ``sym-presentation`` -- ``presentation`` for every partition of 9..12,
  once raw in JSON and once ``--simplified`` in JSON or text.  The seed
  picks, within each weight, which half of the partitions gets JSON for the
  simplified variant, and the order of the jobs.
* ``cross-check`` -- Wronskian relations against direct relations for the
  partitions of 9..11, and the rank oracle against the hook formula for the
  partitions of 1..6.  The seed picks the order.
* ``wreath-centre`` -- ``centre n --ell l --simplified --format json`` for
  seven groups with ``n*l <= 16``, and ``hilbert q --ell 2 --format json``
  for the labels ``q`` of ``n = 4`` and ``n = 5`` except the four reach
  targets below.  The ``n = 4`` labels are all small: with them the median
  job falls among many similar jobs instead of on one (``centre 4 --ell
  2``), whose latency alone moved by 29% between two sets of runs.  The
  seed picks the order.

Every positional label follows ``--``: argparse otherwise reads a label
such as ``-|5`` (empty first component) as an option.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("sym-presentation", "cross-check", "wreath-centre")

SYM_WEIGHTS = range(9, 13)
RELATION_WEIGHTS = range(9, 12)
ORACLE_WEIGHTS = range(1, 7)
WREATH_GROUPS = ((4, 2), (3, 3), (4, 3), (3, 4), (3, 5), (2, 7), (2, 8))
WREATH_LABEL_WEIGHTS, WREATH_LABEL_ELL = (4, 5), 2
# Blocks of dimension 20 whose oracle takes 11-14 s each; with them (and
# with ``centre 5 --ell 2``, about 104 s) one pass would take minutes.  They
# stay reach targets, not timed members.
WREATH_REACH_TARGETS = ("2,1|2", "2,1|1,1", "2|2,1", "1,1|2,1")


@dataclass(frozen=True)
class Job:
    """``kind`` is ``cli``, ``relations`` or ``oracle``; ``key`` names the golden."""

    key: str
    kind: str
    args: tuple
    group: Any = None


@dataclass(frozen=True)
class CliOutput:
    status: int
    stdout: str
    stderr: str


def _cli_job(argv: list[str], group=None) -> Job:
    return Job("cli " + " ".join(argv), "cli", tuple(argv), group)


def _library_job(pkg, kind: str, lam) -> Job:
    label = pkg.partitions.format_partition(lam)
    return Job(f"{kind} {label}", kind, (lam,), sum(lam))


def _presentation_argv(label: str, fmt: str, simplified: bool) -> list[str]:
    flags = ["--simplified"] if simplified else []
    return ["presentation", *flags, "--format", fmt, "--", label]


def _wreath_labels(pkg) -> list[str]:
    fmt = pkg.abacus.format_multipartition
    labels = [
        fmt(q)
        for n in WREATH_LABEL_WEIGHTS
        for q in pkg.centre.multipartitions_of(n, WREATH_LABEL_ELL)
    ]
    return [label for label in labels if label not in WREATH_REACH_TARGETS]


def _wreath_jobs(pkg) -> list[Job]:
    jobs = [
        _cli_job(
            ["centre", "--ell", str(ell), "--simplified", "--format", "json", "--", str(n)],
            group=(n, ell),
        )
        for n, ell in WREATH_GROUPS
    ]
    jobs += [
        _cli_job(
            ["hilbert", "--ell", str(WREATH_LABEL_ELL), "--format", "json", "--", label],
            group=WREATH_LABEL_ELL,
        )
        for label in _wreath_labels(pkg)
    ]
    return jobs


def pool(pkg, workload: str) -> list[Job]:
    """Every job the workload can draw, in a fixed order (the golden set)."""
    if workload == "sym-presentation":
        jobs = []
        for n in SYM_WEIGHTS:
            for lam in pkg.partitions.partitions_of(n):
                label = pkg.partitions.format_partition(lam)
                jobs.append(_cli_job(_presentation_argv(label, "json", False)))
                jobs.append(_cli_job(_presentation_argv(label, "json", True)))
                jobs.append(_cli_job(_presentation_argv(label, "text", True)))
        return jobs
    if workload == "cross-check":
        return _cross_jobs(pkg)
    if workload == "wreath-centre":
        return _wreath_jobs(pkg)
    raise ValueError(f"unknown workload {workload!r}")


def _cross_jobs(pkg) -> list[Job]:
    parts = pkg.partitions.partitions_of
    jobs = [_library_job(pkg, "relations", lam) for n in RELATION_WEIGHTS for lam in parts(n)]
    jobs += [_library_job(pkg, "oracle", lam) for n in ORACLE_WEIGHTS for lam in parts(n)]
    return jobs


def job_list(pkg, workload: str, seed: int) -> list[Job]:
    """The seeded job list: same seed, same list.

    Only ``sym-presentation`` samples, and it stratifies: within each weight
    exactly half of the partitions (the odd one by coin) get JSON for the
    simplified variant, so every seed runs the same number of jobs of each
    kind and weight.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sym-presentation":
        jobs = []
        for n in SYM_WEIGHTS:
            lams = list(pkg.partitions.partitions_of(n))
            rng.shuffle(lams)
            n_json = len(lams) // 2 + (len(lams) % 2 and rng.random() < 0.5)
            for idx, lam in enumerate(lams):
                label = pkg.partitions.format_partition(lam)
                simplified_fmt = "json" if idx < n_json else "text"
                jobs.append(_cli_job(_presentation_argv(label, "json", False)))
                jobs.append(_cli_job(_presentation_argv(label, simplified_fmt, True)))
    else:
        jobs = pool(pkg, workload)
    rng.shuffle(jobs)
    return jobs


def warmup_job(pkg, workload: str) -> Job:
    """One fixed, cheap pool member per workload, run untimed in set-up."""
    if workload == "sym-presentation":
        return _cli_job(_presentation_argv("9", "json", False))
    if workload == "cross-check":
        return _library_job(pkg, "relations", (9,))
    if workload == "wreath-centre":
        return _cli_job(["hilbert", "--ell", "2", "--format", "json", "--", "5|-"], group=2)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# execution: only the public calls, nothing the benchmark checks


def execute(pkg, job: Job):
    """Run the job's public calls; module attributes are read at call time."""
    if job.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = pkg.cli.run(list(job.args))
        return CliOutput(status, out.getvalue(), err.getvalue())
    (lam,) = job.args
    if job.kind == "relations":
        return pkg.wronski.wronski_relations(lam), pkg.presentation.direct_presentation(lam)
    if job.kind == "oracle":
        built = pkg.presentation.direct_presentation(lam)
        return (
            pkg.hilbert.graded_dimensions_from_presentation(built),
            pkg.hilbert.hilbert_series_formula(lam),
        )
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# checks


class CheckFailed(Exception):
    """An output that breaks an invariant or misses its golden."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_output(pkg, job: Job, result) -> str:
    """The job's canonical output after its invariants pass.

    For a CLI job that is its stdout.  For a library job it is a text form
    built with the package's public formatters, from the first route, once
    the second route has been found equal to it.
    """
    if job.kind == "cli":
        if result.status != 0 or result.stderr:
            raise CheckFailed(f"exit {result.status}: {result.stderr.strip()}")
        if job.args[0] in ("centre", "hilbert"):
            _check_wreath_document(job, json.loads(result.stdout))
        return result.stdout
    (lam,) = job.args
    if job.kind == "relations":
        oracle, built = result
        if tuple(oracle.relations) != tuple(built.relations):
            raise CheckFailed("Wronskian and direct relations differ")
        if not oracle.leading:
            raise CheckFailed("zero leading coefficient")
        lines = [f"leading: {oracle.leading}"]
        lines += [
            f"r_{s} = {pkg.polyring.format_poly(rel)}"
            for s, rel in enumerate(oracle.relations, start=1)
        ]
        return "\n".join(lines) + "\n"
    series, formula = result
    if series != formula:
        raise CheckFailed("rank oracle and hook formula differ")
    if series.dimension() != pkg.hilbert.dimension_hook_formula(lam):
        raise CheckFailed("series dimension is not the hook dimension")
    return f"series: {pkg.hilbert.format_series(series)}\ndimension: {series.dimension()}\n"


def _check_wreath_document(job: Job, doc: dict) -> None:
    if job.args[0] == "centre":
        n, ell = job.group
        dims = sum(block["dimension"] for block in doc["blocks"])
        if dims != doc["total_dimension"] or dims != ell**n * math.factorial(n):
            raise CheckFailed(f"block dimensions sum to {dims}, not ell^n n!")
        return
    ell = job.group
    coefficients = doc["coefficients"]
    if sum(coefficients) != doc["dimension"]:
        raise CheckFailed("series does not sum to the dimension")
    if any(c and d % ell for d, c in enumerate(coefficients)):
        raise CheckFailed("series has support off the multiples of ell")


def digest(pkg, job: Job, result) -> str:
    return _sha256(canonical_output(pkg, job, result))


def check(pkg, job: Job, result, goldens: dict[str, str]) -> None:
    """Raise :class:`CheckFailed` unless the output passes and matches its golden."""
    got = digest(pkg, job, result)
    want = goldens.get(job.key)
    if want is None:
        raise CheckFailed("no golden for this job")
    if got != want:
        raise CheckFailed(f"sha256 {got[:12]} differs from golden {want[:12]}")


def group_failures(pkg, jobs: list[Job], results: dict[str, Any]) -> set[str]:
    """Keys of jobs whose group breaks an invariant spanning several jobs.

    ``cross-check`` runs the oracle on every partition of each weight n, so
    the oracle dimensions must satisfy sum((dim lam)^2) = n!.  A weight with
    any failed oracle job fails as a whole; a weight the list covers only in
    part (a trimmed list) is not checked.
    """
    by_weight: dict[int, list[Job]] = {}
    for job in jobs:
        if job.kind == "oracle":
            by_weight.setdefault(job.group, []).append(job)
    failed: set[str] = set()
    for n, members in by_weight.items():
        if len(members) != sum(1 for _ in pkg.partitions.partitions_of(n)):
            continue
        dims = [results.get(job.key) for job in members]
        if None in dims or sum(d * d for d in dims) != math.factorial(n):
            failed.update(job.key for job in members)
    return failed


def group_value(job: Job, result) -> Any:
    """What :func:`group_failures` needs from a passed job, else ``None``."""
    if job.kind == "oracle":
        return result[0].dimension()
    return None
