"""Instrumentation for the traced run: spans, computed counts, profiles.

Nothing here edits the package.  ``Spans`` replaces selected public
functions, in every package module that holds a reference to them, with
wrappers that record a span (name, start, end, parent span, job id) and
restores them afterwards.  Spans stay in memory and are written out once at
the end of the run.  ``Counts`` derives the per-layer work counts from the
arguments and results the wrappers saw, after each job's timer has stopped.
``profile_layers`` aggregates a stdlib ``cProfile`` run per module file, for
the layers that are reached only from inside other layers (``polyring``,
``partitions`` and the stdlib ``fractions``) and for every module's self
time.
"""

from __future__ import annotations

import fractions
import json
import pstats
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Layer -> public functions wrapped in spans.  ``cli.parse_args`` is the
# parser's own method, wrapped on each parser ``build_parser`` returns.
SPANNED = {
    "cli": ("build_parser", "render_json"),
    "presentation": (
        "direct_presentation",
        "wreath_presentation",
        "simplify",
        "presentation_document",
        "quotient_ring_text",
    ),
    "wronski": ("wronski_relations",),
    "hilbert": (
        "graded_dimensions_from_presentation",
        "presentation_dimension",
        "hilbert_series_formula",
        "dimension_hook_formula",
    ),
    "polyring": ("determinant",),
    "abacus": ("from_quotient",),
    "centre": ("centre_presentation", "block"),
}

# Stage metric -> spans it sums.  A span nested inside another span of the
# same set is not counted twice.
STAGES = {
    "cli.parse_s": ("cli.build_parser", "cli.parse_args"),
    "cli.render_s": ("cli.render_json",),
    "presentation.direct_s": ("presentation.direct_presentation",),
    "presentation.simplify_s": ("presentation.simplify",),
    "presentation.document_s": (
        "presentation.presentation_document",
        "presentation.quotient_ring_text",
    ),
    "wronski.relations_s": ("wronski.wronski_relations",),
    "hilbert.oracle_s": (
        "hilbert.graded_dimensions_from_presentation",
        "hilbert.presentation_dimension",
    ),
    "hilbert.formula_s": ("hilbert.hilbert_series_formula", "hilbert.dimension_hook_formula"),
    "polyring.determinant_s": ("polyring.determinant",),
    "abacus.from_quotient_s": ("abacus.from_quotient",),
    "centre.assemble_s": ("centre.centre_presentation", "centre.block"),
}

# Package modules with code that runs in a job; ``errors`` only defines
# exception classes and ``__init__`` only re-exports.
MODULES = ("cli", "presentation", "wronski", "hilbert", "polyring", "partitions", "abacus", "centre")
PROFILED_CALLS = {
    "polyring.mul_calls": ("polyring", "mul"),
    "partitions.hook_length_calls": ("partitions", "hook_length"),
}
CALL_TOTALS = ("polyring", "partitions", "fractions")
# Spans whose arguments and result ``Counts`` reads.
COUNTED = (
    "presentation.direct_presentation",
    "presentation.wreath_presentation",
    "presentation.simplify",
    "wronski.wronski_relations",
    "hilbert.graded_dimensions_from_presentation",
)


class Spans:
    """Span recorder; use as a context manager around the traced pass."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, job]
        self.calls: list[tuple] = []  # (span index, name, args, kwargs, result)
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else None, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if name in COUNTED:
                self.calls.append((index, name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        targets = {}
        for layer, names in SPANNED.items():
            module = getattr(self.pkg, layer)
            for fname in names:
                fn = getattr(module, fname)
                targets[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        targets[id(self.pkg.cli.build_parser)] = self._wrap_build_parser(
            targets[id(self.pkg.cli.build_parser)]
        )
        for module in self.pkg.modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def start_job(self, key: str) -> None:
        """Open the job's root span; every span until :meth:`end_job` is in it."""
        self.job = key
        self._stack.append(len(self.spans))
        self.spans.append(["job", time.perf_counter_ns(), 0, None, key])

    def end_job(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()
        self.job = None

    def _wrap_build_parser(self, traced_build):
        def build_parser():
            parser = traced_build()
            parser.parse_args = self._wrap("cli.parse_args", parser.parse_args)
            return parser

        return build_parser

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def take_calls(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls

    def has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def stage_seconds(self, names) -> float:
        total = 0
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            if name in names and not self.has_ancestor(index, names):
                total += end - start
        return total / 1e9

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start,
                          "end_ns": end, "parent": parent, "job": job}
                handle.write(json.dumps(record) + "\n")


class Counts:
    """Work counts computed from the calls one traced pass made.

    Rank-matrix sizes are computed here from generator and relation degrees
    (the oracle's Macaulay matrix in degree d has one column per monomial of
    degree d and one row per relation of degree s times monomial of degree
    d - s); they are computed, not observed.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.values = {
            "presentation.transversals": 0,
            "presentation.relation_terms": 0,
            "presentation.simplified_terms": 0,
            "presentation.simplify_eliminated": 0,
            "presentation.coeff_bits_max": 0,
            "wronski.terms": 0,
            "hilbert.rank_rows_max": 0,
            "hilbert.rank_cols_max": 0,
            "hilbert.rank_cells": 0,
            "cli.out_bytes": 0,
        }
        self.wreath_kept = 0
        self.wreath_enumerated = 0

    def add_output(self, stdout: str) -> None:
        self.values["cli.out_bytes"] += len(stdout.encode())

    def absorb(self, spans: Spans, calls: list[tuple]) -> None:
        v = self.values
        for index, name, args, kwargs, result in calls:
            if name == "presentation.direct_presentation":
                enumerated = sum(
                    1 for m in self.pkg.presentation.transversal_monomials(args[0]) if m.degree
                )
                v["presentation.transversals"] += enumerated
                v["presentation.relation_terms"] += _terms(result)
                self._bits(result)
                if spans.has_ancestor(index, ("presentation.wreath_presentation",)):
                    self.wreath_enumerated += enumerated
            elif name == "presentation.wreath_presentation":
                self.wreath_kept += _terms(result)
            elif name == "presentation.simplify":
                v["presentation.simplified_terms"] += _terms(result)
                v["presentation.simplify_eliminated"] += len(args[0].generators) - len(
                    result.generators
                )
                self._bits(result)
            elif name == "wronski.wronski_relations":
                v["wronski.terms"] += _terms(result)
            elif name == "hilbert.graded_dimensions_from_presentation":
                self._rank_sizes(*args, **kwargs)

    def _bits(self, presentation) -> None:
        v = self.values
        for rel in presentation.relations:
            for c in rel.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                v["presentation.coeff_bits_max"] = max(v["presentation.coeff_bits_max"], bits)

    def _rank_sizes(self, presentation, max_degree=None) -> None:
        degrees = [d for _, d in presentation.generators]
        weighted_degree = self.pkg.polyring.weighted_degree
        relation_degrees = [weighted_degree(r) for r in presentation.relations if r]
        if max_degree is None:
            max_degree = max(0, sum(relation_degrees) - sum(degrees)) + 2
        monomials = [1] + [0] * max_degree  # monomials of each degree
        for step in degrees:
            for d in range(step, max_degree + 1):
                monomials[d] += monomials[d - step]
        v = self.values
        for d in range(max_degree + 1):
            rows = sum(monomials[d - s] for s in relation_degrees if s <= d)
            cols = monomials[d]
            v["hilbert.rank_rows_max"] = max(v["hilbert.rank_rows_max"], rows)
            v["hilbert.rank_cols_max"] = max(v["hilbert.rank_cols_max"], cols)
            v["hilbert.rank_cells"] += rows * cols

    def metrics(self) -> dict[str, float]:
        out = dict(self.values)
        out["presentation.wreath_kept_ratio"] = (
            self.wreath_kept / self.wreath_enumerated if self.wreath_enumerated else 0.0
        )
        return out


def _terms(presentation_like) -> int:
    return sum(len(rel) for rel in presentation_like.relations)


def _layer_of(filename: str, package_dir: Path) -> str:
    path = Path(filename)
    if path.parent == package_dir:
        return path.stem
    if filename == fractions.__file__:
        return "fractions"
    if path.parent == BENCH_DIR:
        return "bench"
    return "stdlib"


def profile_layers(profiler, package_dir: Path, wall_s: float) -> dict[str, float]:
    """Self time and call counts per module file from one profiled pass.

    Self times of the package modules, ``fractions`` and the benchmark's own
    files are summed from the profile; ``stdlib.self_s`` is the rest of the
    profiled wall time, so the self times account for all of it.
    """
    stats = pstats.Stats(profiler).stats
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    named: dict[tuple[str, str], int] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = _layer_of(filename, package_dir)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        calls[layer] = calls.get(layer, 0) + ncalls
        named[(layer, func)] = named.get((layer, func), 0) + ncalls
    out: dict[str, float] = {}
    for layer in MODULES + ("fractions", "bench"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["stdlib.self_s"] = wall_s - sum(out.values())
    for metric, key in PROFILED_CALLS.items():
        out[metric] = named.get(key, 0)
    for layer in CALL_TOTALS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
    return out
