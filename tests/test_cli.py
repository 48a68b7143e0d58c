"""Command-line behaviour: exit codes, pinned outputs, canonical JSON."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_centre import (
    centre_presentation,
    checks,
    cli,
    format_multipartition,
    format_partition,
    make_series,
    multipartitions_of,
    parse_partition,
    partitions_of,
    weight,
)
from cherednik_centre.cli import render_json, run
from cherednik_centre.errors import DomainError
from cherednik_centre.polyring import GenSym, PackedPolys, Radix, format_poly, generator_name
from cherednik_centre.presentation import label_document
from cherednik_centre.wronski import schubert_basis, wronskian

from reference import (
    centre_json_per_part,
    centre_text_per_part,
    reference_document,
    term_sort_key,
)

GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"
WRONSKIAN_PINS = Path(__file__).resolve().parent / "wronskian_pins.json"


def _run(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_partition_info_text(capsys):
    status, out, err = _run(capsys, "partition", "info", "3,2")
    assert status == 0 and err == ""
    assert "partition: 3,2" in out
    assert "weight: 5" in out
    assert "transpose: 2,2,1" in out
    assert "hooks: 4 3 1; 2 1" in out
    assert "beta-set (n=5): 7,5,2,1,0" in out


def test_partition_info_empty(capsys):
    status, out, _ = _run(capsys, "partition", "info", "-")
    assert status == 0
    assert "partition: -" in out
    assert "weight: 0" in out


def test_abacus_quotient_pin(capsys):
    status, out, _ = _run(capsys, "abacus", "quotient", "4,2,2", "--ell", "3")
    assert status == 0
    assert out == "quotient: 1,1|-|-\ncore: 1,1\n"


def test_abacus_core_pin(capsys):
    status, out, _ = _run(capsys, "abacus", "core", "4,2,2", "--ell", "3")
    assert status == 0
    assert out == "core: 1,1\n"


def test_abacus_compose_pin(capsys):
    status, out, _ = _run(capsys, "abacus", "compose", "3,2|1,1|2", "--ell", "3")
    assert status == 0
    assert out == "partition: 8,5,5,5,4\n"


def test_presentation_simplified_pin(capsys):
    status, out, _ = _run(capsys, "presentation", "3,2", "--simplified")
    assert status == 0
    assert out == "C[f1,1] / (f1,1^5)\n"


def test_presentation_raw_lists_generators_and_relations(capsys):
    status, out, _ = _run(capsys, "presentation", "2,2", "--raw")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].startswith("generators: ")
    assert any(line.startswith("r_1 = ") for line in lines)
    assert any(line.startswith("r_4 = ") for line in lines)


def test_presentation_wreath_label(capsys):
    status, out, _ = _run(
        capsys, "presentation", "1|1", "--ell", "2", "--simplified"
    )
    assert status == 0
    assert out == "C[f1,2] / (f1,2^2)\n"


def test_wronskian_of_single_box(capsys):
    status, out, _ = _run(capsys, "wronskian", "1")
    assert status == 0
    assert out == "u + f1,1\n"


def test_wronskian_outputs_are_pinned(capsys):
    """``wronskian`` stdout, as text and as JSON, for every partition of
    n <= 6 hashes to its pin (taken while the Wronskian's coefficients were
    ``Fraction`` values)."""
    pins = json.loads(WRONSKIAN_PINS.read_text())
    argvs = [
        f"wronskian --format {fmt} -- {format_partition(lam)}"
        for n in range(1, 7)
        for lam in partitions_of(n)
        for fmt in ("text", "json")
    ]
    assert sorted(argvs) == sorted(pins)
    for argv in argvs:
        status, out, err = _run(capsys, *argv.split(" "))
        assert (status, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == pins[argv], argv


def test_wronskian_outputs_equal_the_generic_route(capsys):
    """``wronskian`` stdout, read off the packed determinant of
    ``wronski_relations``, against the generic route for every partition of
    n <= 8: ``wronskian`` on the basis's polynomials, printed by
    ``format_poly`` as text and as ``json.dumps`` of its terms in
    ``term_sort_key`` order."""
    for n in range(1, 9):
        for lam in partitions_of(n):
            label = format_partition(lam)
            wr = wronskian(schubert_basis(lam))
            terms = [
                {
                    "coefficient": str(wr[mono]),
                    "monomial": [generator_name(s) for s, e in mono[1] for _ in range(e)],
                    "u_power": mono[0],
                }
                for mono in sorted(wr, key=term_sort_key)
            ]
            document = {"partition": list(lam), "wronskian": terms}
            assert _run(capsys, "wronskian", label) == (0, format_poly(wr) + "\n", ""), lam
            assert _run(capsys, "wronskian", "--format", "json", label) == (
                0, json.dumps(document, indent=2, sort_keys=True) + "\n", ""
            ), lam


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wronskian_of_the_empty_partition_is_a_domain_error(capsys, fmt):
    assert _run(capsys, "wronskian", "--format", fmt, "-") == (1, "", "EmptyPartition\n")


def test_hilbert_pin(capsys):
    status, out, _ = _run(capsys, "hilbert", "3,1")
    assert status == 0
    assert out == "series: 1 + q + q^2\ndimension: 3\n"


def test_hilbert_wreath(capsys):
    status, out, _ = _run(capsys, "hilbert", "1|1", "--ell", "2")
    assert status == 0
    assert out == "series: 1 + q^2\ndimension: 2\n"


def test_centre_text_output(capsys):
    status, out, _ = _run(capsys, "centre", "2", "--ell", "2", "--simplified")
    assert status == 0
    assert "total dimension: 8" in out
    assert "block 1|1: dimension 4" in out
    assert "plus:  C[f1,2] / (f1,2^2)" in out
    assert "minus: C[g1,2] / (g1,2^2)" in out


def test_centre_json_total_dimension(capsys):
    status, out, _ = _run(capsys, "centre", "2", "--ell", "2", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["total_dimension"] == 8
    assert doc["group"] == {"ell": 2, "n": 2}
    assert len(doc["blocks"]) == 5
    fat = [b for b in doc["blocks"] if b["dimension"] == 4]
    assert len(fat) == 1
    assert fat[0]["label"] == [[1], [1]]
    assert fat[0]["star_label"] == [[1], [1]]
    assert "assumption" in doc


def test_json_is_canonical_and_roundtrips(capsys):
    for argv in (
        ["partition", "info", "3,2", "--format", "json"],
        ["presentation", "3,2", "--format", "json"],
        ["hilbert", "2,2", "--format", "json"],
        ["centre", "2", "--ell", "2", "--format", "json"],
        ["centre", "--ell", "3", "--simplified", "--format", "json", "--", "4"],
        ["centre", "--ell", "2", "--format", "json", "--", "6"],
        ["presentation", "--simplified", "--format", "json", "--", "5,4,3,2,1"],
        ["presentation", "--ell", "2", "--format", "json", "--", "3,1|2,1"],
    ):
        status, out, _ = _run(capsys, *argv)
        assert status == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_coefficients_are_strings_in_json(capsys):
    status, out, _ = _run(capsys, "presentation", "3,2", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    coefficients = [
        term["coefficient"] for rel in doc["relations"] for term in rel
    ]
    assert coefficients and all(isinstance(c, str) for c in coefficients)
    assert "14400" in coefficients


# --- the canonical JSON writer -----------------------------------------------

_json_strings = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "\u2028", "\U0001f600", "\ud800"]
)
_json_ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(_json_strings, _json_values, max_size=5))
def test_render_json_equals_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    ("n", "ell", "simplified"), [(2, 2, False), (3, 1, True), (3, 2, True), (2, 3, True)]
)
def test_centre_document_with_fragments_equals_json_dumps_of_dicts(capsys, n, ell, simplified):
    """The centre's JSON, each part written at its depth, against
    ``json.dumps`` of the document built as dicts, each part by
    ``reference.reference_document``."""
    flags = ["--simplified"] if simplified else []
    status, out, _ = _run(capsys, "centre", str(n), "--ell", str(ell), *flags, "--format", "json")
    assert status == 0
    result = centre_presentation(n, ell, simplified)
    blocks = []
    for blk in result.blocks:
        entry = {
            "label": label_document(blk.label),
            "plus": reference_document(blk.plus_part),
            "minus": reference_document(blk.minus_part),
            "dimension": blk.dimension,
        }
        if blk.star_label is not None:
            entry["star_label"] = label_document(blk.star_label)
        blocks.append(entry)
    dicts = {
        "group": {"n": n, "ell": ell},
        "assumption": cli.ASSUMPTION,
        "blocks": blocks,
        "total_dimension": result.total_dimension,
    }
    assert out == json.dumps(dicts, indent=2, sort_keys=True) + "\n"


_CENTRE_GROUPS = [(n, 1) for n in range(8)] + [
    (n, ell) for ell in range(2, 13) for n in range(12 // ell + 1)
]


@pytest.mark.parametrize(
    ("n", "ell"), _CENTRE_GROUPS, ids=[f"n{n}-ell{ell}" for n, ell in _CENTRE_GROUPS]
)
def test_centre_writes_what_the_per_part_writers_write(capsys, n, ell):
    """Each label's part, written once and renamed for the minus side, gives
    the bytes of writing every part in full (``reference.centre_json_per_part``
    and ``centre_text_per_part``): JSON and text, raw and simplified, on
    every group with ell = 1 and n <= 7, and with 2 <= ell and n * ell <= 12."""
    for simplified in (False, True):
        result = centre_presentation(n, ell, simplified)
        flags = ["--simplified"] if simplified else []
        argv = ["centre", "--ell", str(ell), *flags]
        json_out = _run(capsys, *argv, "--format", "json", "--", str(n))
        assert json_out == (0, centre_json_per_part(result), "")
        text = centre_text_per_part(result, simplified) + "\n"
        assert _run(capsys, *argv, "--", str(n)) == (0, text, "")


@pytest.mark.parametrize(
    ("flags", "writer"),
    [((), None), (("--simplified",), "quotient_ring_text"),
     (("--format", "json"), "_relations_json"),
     (("--simplified", "--format", "json"), "_relations_json")],
    ids=["text", "simplified", "json", "simplified-json"],
)
@pytest.mark.parametrize(("n", "ell"), [(4, 1), (3, 2), (2, 3)])
def test_centre_builds_and_writes_each_part_once(capsys, monkeypatch, n, ell, flags, writer):
    """Plain text reads the labels only and builds no presentation; JSON and
    ``--simplified`` build each label's part once, and write its relations
    list (JSON) or its quotient ring (text) once."""
    import cherednik_centre
    from cherednik_centre import presentation

    calls: dict[str, list] = {"_block_part": [], "_relations_json": [], "quotient_ring_text": []}
    for name, seen in calls.items():
        original = getattr(presentation, name)

        def counting(*args, _original=original, _seen=seen):
            _seen.append(args[0])
            return _original(*args)

        for module in vars(cherednik_centre).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    status, out, _ = _run(capsys, "centre", "--ell", str(ell), *flags, "--", str(n))
    assert status == 0 and out
    labels = [q[0] if ell == 1 else q for q in multipartitions_of(n, ell)]
    assert sorted(calls.pop("_block_part")) == (sorted(labels) if writer else [])
    for name, seen in calls.items():
        assert len(seen) == (len(labels) if name == writer else 0), name


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1.5},
        {"a": [Fraction(1, 2)]},
        {"a": {"b": (1, 2)}},
        {1: "x"},
        {"a": [{None: 0}]},
    ],
    ids=["float", "fraction", "tuple", "int-key", "nested-none-key"],
)
def test_render_json_rejects_values_outside_canonical_json(doc):
    with pytest.raises(TypeError):
        render_json(doc)


def test_out_writes_atomically(tmp_path, capsys):
    target = tmp_path / "result.json"
    status, out, _ = _run(
        capsys,
        "hilbert",
        "3,1",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert status == 0
    assert out == ""  # file output suppresses stdout
    doc = json.loads(target.read_text())
    assert doc["dimension"] == 3
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".out-")]
    assert leftovers == []


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


def test_out_gives_a_new_file_the_umask_mode(tmp_path, capsys, umask_022):
    """``0o666`` under the umask, as a plain ``open`` gives, not the temp
    file's ``0o600``."""
    target = tmp_path / "series.txt"
    status, _, _ = _run(capsys, "hilbert", "3,1", "--out", str(target))
    assert status == 0
    assert target.stat().st_mode & 0o777 == 0o644


def test_out_keeps_the_mode_of_the_target_it_replaces(tmp_path, capsys, umask_022):
    target = tmp_path / "series.txt"
    target.write_text("old\n")
    target.chmod(0o604)
    status, _, _ = _run(capsys, "hilbert", "3,1", "--out", str(target))
    assert status == 0
    assert target.read_text().startswith("series: ")
    assert target.stat().st_mode & 0o777 == 0o604


def test_domain_error_exit_code(capsys):
    status, out, err = _run(capsys, "partition", "info", "2,3")
    assert status == 1
    assert out == ""
    assert err.strip() == "NotWeaklyDecreasing"


def test_label_length_mismatch_is_a_domain_error(capsys):
    status, _, err = _run(capsys, "presentation", "1|1", "--ell", "3")
    assert status == 1
    assert err.strip() == "LengthMismatch"


def test_unparsable_label_is_a_domain_error(capsys):
    status, out, err = _run(capsys, "partition", "info", "3..2")
    assert status == 1
    assert out == ""
    assert err.strip() == "UnparsableLabel"
    # multipartition syntax is not valid while ell defaults to 1
    status, _, err = _run(capsys, "hilbert", "1|1")
    assert status == 1
    assert err.strip() == "UnparsableLabel"


def test_a_label_past_a_tuple_index_is_too_large(capsys):
    """A weight above ``sys.maxsize`` cannot pad a beta-set: both routes
    that pad one exit 1 with the class name and no traceback, while the
    abacus, which pads to the number of parts, still reads the label."""
    huge = "99999999999999999999"
    for argv in (
        ("presentation", huge),
        ("wronskian", huge),
        ("presentation", "--ell", "2", "--", huge + "|-"),
    ):
        assert _run(capsys, *argv) == (1, "", "TooLarge\n"), argv
    assert _run(capsys, "abacus", "core", huge, "--ell", "3") == (0, "core: -\n", "")
    assert _run(capsys, "abacus", "core", "3", "--ell", huge) == (0, "core: 3\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--", "99999999999999999999"),
        ("hilbert", "--ell", "2", "--", "99999999999999999999|-"),
        ("partition", "info", "--", "99999999999999999999"),
        ("centre", "--", "99999999999999999999"),
        ("centre", "--ell", "2", "--", "99999999999999999999"),
    ],
    ids=["hilbert", "hilbert-ell", "partition-info", "centre", "centre-ell"],
)
def test_a_weight_past_a_tuple_index_fails_fast(capsys, argv):
    """Each command checks the weight once, on entry: past ``sys.maxsize``
    it exits 1 with the class name alone, before any series, hook table or
    block is begun: unchecked, each of them would run until memory ran out."""
    start = time.perf_counter()
    assert _run(capsys, *argv) == (1, "", "TooLarge\n")
    assert time.perf_counter() - start < 1.0


_HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    ("argv", "error"),
    [
        (("partition", "info", "--", _HUGE), "TooLarge"),
        (("presentation", "--", _HUGE), "TooLarge"),
        (("wronskian", "--", _HUGE), "TooLarge"),
        (("hilbert", "--", _HUGE), "TooLarge"),
        (("centre", "--", _HUGE), "TooLarge"),
        (("abacus", "quotient", "--ell", _HUGE, "--", "3"), "TooLarge"),
        (("abacus", "compose", "--ell", _HUGE, "--", "3"), "LengthMismatch"),
        (("presentation", "--ell", _HUGE, "--", "3"), "LengthMismatch"),
        (("hilbert", "--ell", _HUGE, "--", "3"), "LengthMismatch"),
        (("centre", "--ell", _HUGE, "--", "3"), "TooLarge"),
        (("abacus", "core", "--ell", "0", "--", "3"), "EllOutOfRange"),
        (("abacus", "compose", "--ell", "0", "--", "3"), "EllOutOfRange"),
        (("hilbert", "--ell", "0", "--", "3"), "EllOutOfRange"),
        (("centre", "--ell", "0", "--", "3"), "EllOutOfRange"),
        (("presentation", "--", "3..2"), "UnparsableLabel"),
        (("wronskian", "--", "2,3"), "NotWeaklyDecreasing"),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(w for w in v if w != "--"),
)
def test_no_command_prints_a_traceback(capsys, argv, error):
    """An input that cannot be computed with exits 1 at once, with the name
    of one ``DomainError`` subclass on stderr and nothing else: a weight or
    an ell past ``sys.maxsize``, ell 0, an unparsable or a non-decreasing
    label.  Unchecked, a huge ell overflowed a list of ell column counts."""
    assert error in {cls.__name__ for cls in DomainError.__subclasses__()}
    start = time.perf_counter()
    assert _run(capsys, *argv) == (1, "", error + "\n")
    assert time.perf_counter() - start < 1.0


def test_nonpositive_column_count_is_a_domain_error(capsys):
    for ell in ("0", "-2"):
        status, _, err = _run(capsys, "abacus", "quotient", "3,2", "--ell", ell)
        assert status == 1
        assert err.strip() == "EllOutOfRange"
    status, _, err = _run(capsys, "presentation", "3,2", "--ell", "0")
    assert status == 1
    assert err.strip() == "EllOutOfRange"


def test_negative_weight_is_a_domain_error(capsys):
    status, _, err = _run(capsys, "centre", "-1", "--ell", "2")
    assert status == 1
    assert err.strip() == "NegativeWeight"


def test_unwritable_out_path_fails_cleanly(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "series.json"
    status, out, err = _run(capsys, "hilbert", "2,1", "--out", str(missing))
    assert status == 1
    assert out == ""
    assert err.startswith("error:")


def test_usage_error_exit_code(capsys):
    status, _, err = _run(capsys, "abacus", "core", "3,2")  # missing --ell
    assert status == 2
    assert "usage" in err.lower()
    status, _, _ = _run(capsys, "no-such-command")
    assert status == 2


def test_determinism_across_runs(capsys):
    first = _run(capsys, "centre", "3", "--format", "json")
    second = _run(capsys, "centre", "3", "--format", "json")
    assert first == second


def test_selftest_default_passes(capsys):
    status, out, _ = _run(capsys, "selftest", "4")
    assert status == 0
    lines = out.splitlines()
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert lines[-1] == "selftest: all suites passed"


def test_selftest_json_document(capsys):
    status, out, _ = _run(capsys, "selftest", "3", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(suite["ok"] for suite in doc["suites"])


_SUITES = (
    "direct/wronskian relation agreement (n <= 3)",
    "abacus roundtrip and quotient bijection (n <= 5, ell <= 4)",
    "hilbert formula/oracle/hook-dimension agreement (n <= 3)",
)
_DEEP_SUITES = (
    "direct/wronskian relation agreement (n <= 11)",
    "abacus roundtrip and quotient bijection (n <= 5, ell <= 4)",
    "hilbert formula/oracle/hook-dimension agreement (n <= 7)",
    "recursive-wronskian determinant cross-check (n <= 9)",
    "wreath degrees, series formula/oracle agreement, support and simplify "
    "invariance (n*ell <= 10)",
)


def test_selftest_deep_passes(capsys):
    status, out, _ = _run(capsys, "selftest", "3", "--deep")
    assert status == 0
    assert out.splitlines() == [f"ok   {name}" for name in _DEEP_SUITES] + [
        "selftest: all suites passed"
    ]
    status, out, _ = _run(capsys, "selftest", "3", "--deep", "--format", "json")
    assert status == 0
    assert json.loads(out) == {
        "passed": True,
        "suites": [{"name": name, "ok": True, "detail": ""} for name in _DEEP_SUITES],
    }


def _drop_last_relation(real):
    """One relation fewer, on the same codec."""
    def broken(*label):
        result = real(*label)
        packed = result.relations
        relations = PackedPolys(packed.radix, packed.polys[:-1], packed.leads[:-1])
        return dataclasses.replace(result, relations=relations)

    return broken


def _bump_first_coefficient(real):
    """One coefficient one larger, on the same codec and leads: compared
    code for code."""
    def broken(lam):
        result = real(lam)
        packed = result.relations
        polys = list(packed.polys)
        if polys:
            code = next(iter(polys[0]))
            polys[0] = {**polys[0], code: polys[0][code] + 1}
        relations = PackedPolys(packed.radix, polys, packed.leads)
        return dataclasses.replace(result, relations=relations)

    return broken


def _repack_with_one_more_symbol(real):
    """The same relations, each term on the same monomial, packed on a
    codec with one more symbol: equal once decoded, but not code for code."""
    def broken(lam):
        result = real(lam)
        packed = result.relations
        old = packed.radix
        radix = Radix.by_degree((GenSym(0, 1),) + old.symbols, old.bases[0] - 1)
        polys = [
            radix.encode_poly({old.decode(code): c for code, c in p.items()})
            for p in packed.polys
        ]
        return dataclasses.replace(result, relations=PackedPolys(radix, polys, packed.leads))

    return broken


def _drop_last_generator(real):
    """One generator fewer; the relations still hold it."""
    def broken(q, ell):
        built = real(q, ell)
        return dataclasses.replace(built, generators=built.generators[:-1])

    return broken


def _double_degrees(real):
    """Each generator listed at twice its symbol's degree: still a multiple
    of ell, but not a degree the oracle can read."""
    def broken(q, ell):
        built = real(q, ell)
        doubled = tuple((g, 2 * d) for g, d in built.generators)
        return dataclasses.replace(built, generators=doubled)

    return broken


def _reverse_components(real):
    return lambda lam, ell: real(lam, ell)[::-1]


def _append_coefficient(real):
    return lambda *args, **kw: make_series(real(*args, **kw).coefficients + (1,))


def _double(real):
    return lambda polys: {mono: 2 * c for mono, c in real(polys).items()}


def _drop_relations(real):
    return lambda p: dataclasses.replace(real(p), relations=())


@pytest.mark.parametrize(
    "suite, route, breaker, detail",
    [
        (0, "wronski_relations", _drop_last_relation, "relation mismatch at (1,)"),
        (0, "wronski_relations", _bump_first_coefficient, "relation mismatch at (1,)"),
        (0, "wronski_relations", _repack_with_one_more_symbol,
         "relation mismatch at (): the codecs differ"),
        (1, "ell_quotient", _reverse_components,
         "quotient inverse broken at ((1,), ()), ell=2"),
        (2, "graded_dimensions_from_presentation", _append_coefficient,
         "series mismatch at ()"),
        (3, "wronskian_recursive", _double, "recursive oracle mismatch at (1,)"),
        (4, "simplify", _drop_relations, "simplify changed dimensions at "),
        (4, "hilbert_series_formula", _append_coefficient,
         "series formula mismatch at ((), ())"),
        (4, "wreath_presentation", _drop_last_relation, "0 relations, not 1, at ((1,), ())"),
        (4, "wreath_presentation", _drop_last_generator,
         "relation 1 holds a non-generator at ((1,), ())"),
        (4, "wreath_presentation", _double_degrees,
         "generator listed at degree 4, not 2, at ((1,), ())"),
        # no relations leave an infinite quotient, which the oracle raises on
        (2, "direct_presentation", _drop_relations, "series mismatch at (1,)"),
    ],
    ids=["direct", "direct-code", "direct-codec", "abacus", "hilbert", "recursive", "wreath",
         "wreath-formula", "wreath-relations", "wreath-generators", "wreath-degrees",
         "infinite-quotient"],
)
def test_selftest_reports_a_broken_second_route(
    capsys, monkeypatch, suite, route, breaker, detail
):
    """Break the route each suite checks against: the suite must fail, so
    none of them passes vacuously, and every suite still reports.  A suite
    that also runs without ``--deep`` is broken under plain ``selftest 3``."""
    monkeypatch.setattr(checks, route, breaker(getattr(checks, route)))
    if suite < len(_SUITES):
        names, command = _SUITES, ("selftest", "3")
    else:
        names, command = _DEEP_SUITES, ("selftest", "3", "--deep")
    name = names[suite]
    status, out, _ = _run(capsys, *command)
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == len(names) + 1
    assert lines[suite].startswith(f"FAIL {name}: {detail}")
    assert lines[-1] == "selftest: FAILURES"
    status, out, _ = _run(capsys, *command, "--format", "json")
    assert status == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    entry = doc["suites"][suite]
    assert entry["name"] == name and entry["ok"] is False
    assert entry["detail"].startswith(detail)


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_selftest_rejects_bounds_below_one(capsys, n_max):
    """A bound below 1 would check nothing and still report success."""
    status, out, err = _run(capsys, "selftest", n_max)
    assert status == 2
    assert out == ""
    assert "n_max" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "-|5", "--ell", "2"),
        ("hilbert", "--ell", "2", "-|5"),
        ("presentation", "-|2", "--ell", "2", "--format", "json"),
        ("hilbert", "-|-|2", "--ell", "3"),
    ],
)
def test_label_with_an_empty_first_component_is_positional(capsys, argv):
    label = next(arg for arg in argv if arg.startswith("-|"))
    options = [arg for arg in argv[1:] if arg != label]
    expected = _run(capsys, argv[0], *options, "--", label)
    assert expected[0] == 0
    assert _run(capsys, *argv) == expected


@pytest.mark.parametrize("module", ["cherednik_centre", "cherednik_centre.cli"])
def test_module_entry_points(capsys, module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", module, "centre", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    status, out, _ = _run(capsys, "centre", "3", "--format", "json")
    assert (completed.returncode, completed.stdout, completed.stderr) == (status, out, "")


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        # argparse version action exits from inside parse_args; run() converts
        # it, so call the parser directly to pin the behaviour
        from cherednik_centre.cli import build_parser

        build_parser().parse_args(["--version"])
    status = run(["--version"])
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out.strip()


# --- outputs pinned by the benchmark goldens ----------------------------------


def _golden_weight(key: str) -> int:
    return weight(parse_partition(key.rsplit(" ", 1)[1]))


def _assert_goldens(capsys, subset: dict[str, str]) -> None:
    for key, digest in subset.items():
        status, out, err = _run(capsys, *key.split(" ")[1:])
        assert (status, err) == (0, ""), key
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_presentation_outputs_match_the_benchmark_goldens(capsys):
    """Every ``presentation`` job of weight 9, every ``presentation
    --simplified`` job of weight 12 (the widest digits and deepest
    eliminations of ``simplify``) and one wreath centre, run in one process,
    hash to the sha256 goldens the benchmark checks its jobs with."""
    goldens = json.loads(GOLDENS.read_text())
    centre = "cli centre --ell 2 --simplified --format json -- 4"
    subset = {
        key: digest
        for key, digest in goldens.items()
        if key.startswith("cli presentation ")
        and (
            _golden_weight(key) == 9
            or (key.startswith("cli presentation --simplified ") and _golden_weight(key) == 12)
        )
    }
    subset[centre] = goldens[centre]
    assert len(subset) == 3 * 30 + 2 * 77 + 1
    _assert_goldens(capsys, subset)


def test_centre_and_hilbert_outputs_match_the_benchmark_goldens(capsys):
    """Every ``centre`` job (nested block documents with ``star_label``) and
    every wreath ``hilbert`` job of the benchmark hashes to its golden."""
    goldens = json.loads(GOLDENS.read_text())
    subset = {
        key: digest
        for key, digest in goldens.items()
        if key.startswith(("cli centre ", "cli hilbert "))
    }
    assert sum(key.startswith("cli centre ") for key in subset) == 7
    assert len(subset) == 7 + 52
    _assert_goldens(capsys, subset)


# Outputs larger than any benchmark job: deep eliminations with long
# coefficients, the widest raw relations, wreath labels with ell 2 and 3, and
# the full Wronskian of the weight-21 staircase.
_LARGE_OUTPUT_PINS = {
    "presentation --simplified --format text -- 5,4,3,2,1":
        "ce23ce72151e27ece0646889cc65fc1ba02971fa7f9979ccbae7cf07e2ac6d41",
    "presentation --simplified --format json -- 5,4,3,2,1":
        "baf92dcdd1a55c618ac9e2136f83dc500da0ef0577812b391cd1d0ae70621499",
    "presentation --format text -- 7,6,5,4,3,2,1":
        "b1038ff920d4033cf95dffb63384cf5b7532d07f708b196ca703079945448312",
    "presentation --format json -- 7,6,5,4,3,2,1":
        "98c91c6c7c0f75856af867f3b31278f313d9c02771fefd07408ec4e3ccf5a0de",
    "presentation --ell 2 --simplified --format json -- 2,1|2,1":
        "98abe7daf7842860896e0e6b9bf164c3970546c7502a1bdedc4ae8e466d531bc",
    "presentation --ell 3 --simplified --format text -- 2|1|1":
        "ced827870252df0f0cae7a46987d2a03746260f6e39badde0b2dab892475f0f2",
    "centre --ell 2 --simplified --format json -- 5":
        "ff839e02d13d443a2c24bfba7bec6b9e4e444b625c269d80cdf5e0191cdad2df",
    # minus parts from the star partner, a different label at ell = 3
    "centre --ell 3 --simplified --format text -- 5":
        "4181381d11f93028fe59e10b10a1abf0d7e5a2494cc833d5fcf71ffba138b564",
    # raw relations, rendered from the codes they are built on
    "centre --format json -- 5":
        "054a4738d0b459bc0b42d605315c5bbb1dce14040ce6e497958f2fd8a58663f2",
    "centre --ell 2 --format json -- 6":
        "3d45bd8e489d0300c23063ed93ec46c0b03911f7caf63057f7ac0a495831281d",
    "presentation --ell 2 --format json -- 2,1|2,1":
        "83c8abee82e04e8d550701a080c68461ed8156f1b6bac27a78eec9ca54d3a60b",
    "presentation --ell 3 --format text -- 2|1|1":
        "e06b1f5fb890f60df29da61eca963a3a4311e149e5ae9fd5a031c589a9a811a4",
    "wronskian --format text -- 6,5,4,3,2,1":
        "3bcdd7dec706d820b4ced0945ebd1cab0da78f62485085b927bdc3eaee67c2da",
    "wronskian --format json -- 6,5,4,3,2,1":
        "bb0a0f8d1c53db232752c837e4fea79d8aec54c35b845bcb4eac0a0278664154",
    # coefficients past CPython's default cap of 4300 digits on int to str
    "presentation --format text -- 82":
        "189661d3c01e8671ffb527b1099d094c30c9e1b1c247d9148d341d8a666bcc1a",
    "presentation --format json -- 82":
        "e02c83f0b562c979c7ef59f81774159b28d2c3ef07bc40a60827834313774b26",
    "wronskian --format text -- 82":
        "87b6da5a069c044ab0cb9cb211016baa310038bb063bf37c1cbcca44743f5161",
    "wronskian --format json -- 82":
        "fc602b9562315a3ed00ecbd5abeb5a954056076202eb7946eb8115d9d9a08a9d",
}


@pytest.mark.parametrize("argv", sorted(_LARGE_OUTPUT_PINS))
def test_large_outputs_are_pinned(capsys, argv):
    status, out, err = _run(capsys, *argv.split(" "))
    assert (status, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _LARGE_OUTPUT_PINS[argv]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit cap before 3.10.7"
)
def test_run_leaves_the_int_digit_cap_as_it_found_it(capsys):
    """``run`` lifts the cap only while it renders: ``presentation 82``
    prints a coefficient past the cap, a label of 5000 digits still fails to
    parse, and the cap, the default or another, is the same after either."""
    found = sys.get_int_max_str_digits()
    try:
        for cap in (4300, 640):
            sys.set_int_max_str_digits(cap)
            status, out, err = _run(capsys, "presentation", "--", "82")
            assert (status, err) == (0, "") and len(out) > 4300
            assert sys.get_int_max_str_digits() == cap
            assert _run(capsys, "presentation", "--", "9" * 5000) == (1, "", "UnparsableLabel\n")
            assert sys.get_int_max_str_digits() == cap
    finally:
        sys.set_int_max_str_digits(found)


# --- one parser per process ---------------------------------------------------


def _captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(list(argv))
    return status, out.getvalue(), err.getvalue()


def _mixed_argvs(tmp_path) -> list[list[str]]:
    return [
        ["presentation", "3,2", "--simplified"],
        ["presentation", "3,2", "--raw", "--simplified"],
        ["presentation", "-|2", "--ell", "2", "--format", "json"],
        ["--version"],
        ["hilbert", "-|5", "--ell", "2"],
        ["selftest", "0"],
        ["abacus", "core", "4,2,2"],
        ["centre", "2", "--ell", "2", "--simplified"],
        ["partition", "info", "3,2", "--format", "json", "--out", str(tmp_path / "a.json")],
        ["no-such-command"],
        ["presentation", "3,x"],
        ["wronskian", "2,1", "--out", str(tmp_path / "b.txt")],
        ["abacus", "quotient", "4,2,2", "--ell", "3", "--format", "json"],
        [],
        ["hilbert", "3,1", "--format", "json"],
    ]


def _run_recording_files(argv, tmp_path):
    status, out, err = _captured(argv)
    written = {}
    for path in sorted(tmp_path.iterdir()):
        written[path.name] = path.read_text()
        path.unlink()
    return status, out, err, written


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    argvs = _mixed_argvs(tmp_path)
    cli._parser.cache_clear()
    shared = {}
    for order in (argvs, argvs[::-1]):
        for argv in order:
            shared.setdefault(" ".join(argv), []).append(_run_recording_files(argv, tmp_path))
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    statuses = set()
    for argv in argvs:
        fresh = _run_recording_files(argv, tmp_path)
        assert shared[" ".join(argv)] == [fresh, fresh], argv
        statuses.add(fresh[0])
    assert statuses == {0, 1, 2}


# --- robustness on random labels ----------------------------------------------


def _small_digits(text: str) -> bool:
    return sum(int(digits) for digits in re.findall(r"[0-9]+", text)) <= 4


_VALID_LABELS = [format_partition(lam) for n in range(5) for lam in partitions_of(n)] + [
    format_multipartition(q) for ell in (2, 3) for n in range(4) for q in multipartitions_of(n, ell)
]
# valid labels of weight <= 4, and any short text whose numbers sum to at most
# 4 (so no call enumerates a large diagram)
_LABELS = st.one_of(
    st.sampled_from(_VALID_LABELS),
    st.text(alphabet="0123,|- x", max_size=7).filter(_small_digits),
)
_INTEGERS = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand with its options, then its one positional (``--`` first,
    or not)."""
    label, ell = draw(_LABELS), draw(_INTEGERS)
    command = draw(st.sampled_from(
        ["partition", "abacus", "presentation", "wronskian", "hilbert", "centre", "selftest"]
    ))
    if command == "partition":
        head = ["partition", "info"]
    elif command == "abacus":
        head = ["abacus", draw(st.sampled_from(["core", "quotient", "compose"])), "--ell", ell]
    elif command in ("presentation", "hilbert", "centre"):
        head = [command, "--ell", ell]
    else:
        head = [command]
    if command == "centre":
        label = draw(st.one_of(_INTEGERS, _LABELS))
    elif command == "selftest":
        label = draw(st.sampled_from(["-1", "0", "1", "2", "x"]))
    if command in ("presentation", "centre") and draw(st.booleans()):
        head.append("--simplified")
    head += ["--format", draw(st.sampled_from(["text", "json"]))]
    return head + (["--"] if draw(st.booleans()) else []) + [label]


@settings(max_examples=150)
@given(_argvs())
def test_every_subcommand_exits_cleanly_on_random_labels(argv):
    status, _out, err = _captured(argv)
    assert status in (0, 1, 2), argv
    assert "Traceback" not in err, argv
