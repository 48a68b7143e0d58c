"""Command-line front end.

Exit codes: 0 success, 1 domain error (the error class name goes to stderr)
or I/O failure (``error: ...`` on stderr), 2 usage/parse error (argparse
prints usage).  Output goes to stdout, or atomically to ``--out`` (write to
a temp file, then rename).  ``--format
json`` emits canonical JSON: sorted keys, two-space indent, coefficients as
exact-rational strings — parsing and re-serializing is byte-identical.

Every JSON output equals ``json.dumps(doc, indent=2, sort_keys=True) +
"\n"`` of its document, byte for byte.  :func:`render_json` writes the small
documents from dicts, escaping strings with ``json.dumps``'s C escaper.  The
``presentation`` and ``centre`` documents, nearly all of whose bytes are
relations, are written straight to text with no document tree: each
presentation by ``presentation._presentation_json`` at its depth, its
relations from packed codes.  ``wronskian`` renders, whole, the packed
determinant that ``wronski_relations`` splits into relations.  Renderers run
with CPython's cap on the digits of an int written as ``str`` lifted.

Partition arguments are comma-separated parts (``3,2``), the empty partition
is ``-``, and multipartitions join components with ``|`` (``3,2|1,1|2``).  A
label whose first component is empty (``-|5``) is read as a label, not as an
option.
Commands taking ``--ell`` greater than 1 read their positional label as an
ell-component multipartition (the quotient label of the block).
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from . import __version__
from .abacus import (
    ell_core,
    ell_quotient,
    format_multipartition,
    from_quotient,
    parse_multipartition,
)
from .centre import CentrePresentation, centre_presentation
from .errors import DomainError, EllOutOfRange, EmptyPartition, LengthMismatch
from .hilbert import format_series, hilbert_series_formula
from .partitions import (
    _row_hooks,
    beta_set,
    first_column_hooks,
    format_partition,
    parse_partition,
    transpose,
)
from .polyring import PackedPolys, generator_name
from .presentation import (
    _block_part,
    _json_list,
    _label_json,
    _presentation_json,
    format_label,
    label_document,
    presentation_text,
    quotient_ring_text,
)
from .wronski import _packed_wronskian

ASSUMPTION = "generic c / smooth Calogero-Moser"


# ---------------------------------------------------------------------------
# helpers


def _write_atomic(path: str, content: str) -> None:
    """``content`` to a temp file renamed onto ``path``, with the mode of the
    target it replaces, or ``0o666`` under the umask, not ``mkstemp``'s 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".out-")
    try:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
        os.chmod(tmp, mode)
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_json(doc: dict) -> str:
    """``doc`` as canonical JSON: equal to ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"``, byte for byte."""
    return _json_value(doc, "\n") + "\n"


def _json_value(value, pad: str) -> str:
    """One JSON value whose closing bracket follows ``pad`` (a newline and
    the indent of the line the value starts on).  Strings and keys go
    through the C escaper that ``json.dumps`` uses; anything but ``str``,
    ``int``, ``bool``, ``None``, ``list`` and ``dict`` with ``str`` keys
    raises ``TypeError``."""
    if isinstance(value, str):
        return _quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            items.append(f"{_quote(key)}: {_json_value(value[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list):
        return _json_list([_json_value(v, inner) for v in value], pad)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not a canonical JSON value")


def _parse_label(text: str, ell: int):
    """The label in ``text``, validated: a partition for ``ell = 1``,
    otherwise an ``ell``-multipartition.  ``ell`` is checked first, the
    number of components last, as the library checks them."""
    if ell < 1:
        raise EllOutOfRange(ell)
    if ell == 1:
        return parse_partition(text)
    label = parse_multipartition(text)
    if len(label) != ell:
        raise LengthMismatch((label, ell))
    return label


# ---------------------------------------------------------------------------
# subcommand handlers: each computes its result and returns an ``_Output``
# whose renderers run only when ``run`` picks one for ``--format``


@dataclass(frozen=True)
class _Output:
    text: Callable[[], str]
    json: Callable[[], str]
    status: int = 0


def _cmd_partition_info(args) -> _Output:
    lam = parse_partition(args.partition)
    n = sum(lam)
    # first: TooLarge, before a hook table that would never finish
    beta = list(beta_set(lam, n))
    hooks = _row_hooks(lam)

    def text() -> str:
        return "\n".join([
            f"partition: {format_partition(lam)}",
            f"weight: {n}",
            f"length: {len(lam)}",
            f"transpose: {format_partition(transpose(lam))}",
            "hooks: " + ("; ".join(" ".join(map(str, row)) for row in hooks) or "-"),
            f"first column hooks: {','.join(str(d) for d in first_column_hooks(lam)) or '-'}",
            f"beta-set (n={n}): {','.join(str(d) for d in beta) or '-'}",
        ])

    def document() -> dict:
        return {
            "partition": list(lam),
            "weight": n,
            "length": len(lam),
            "transpose": list(transpose(lam)),
            "hooks": hooks,
            "first_column_hooks": list(first_column_hooks(lam)),
            "beta_set": beta,
        }

    return _Output(text, lambda: render_json(document()))


def _cmd_abacus(args) -> _Output:
    ell = args.ell
    if args.action == "compose":
        quotient = parse_multipartition(args.argument)
        lam = from_quotient(quotient, ell)
        return _Output(
            lambda: f"partition: {format_partition(lam)}",
            lambda: render_json(
                {"quotient": label_document(quotient), "ell": ell, "partition": list(lam)}
            ),
        )
    lam = parse_partition(args.argument)
    core = ell_core(lam, ell)
    if args.action == "core":
        return _Output(
            lambda: f"core: {format_partition(core)}",
            lambda: render_json({"partition": list(lam), "ell": ell, "core": list(core)}),
        )
    quotient = ell_quotient(lam, ell)
    return _Output(
        lambda: f"quotient: {format_multipartition(quotient)}\ncore: {format_partition(core)}",
        lambda: render_json({
            "partition": list(lam),
            "ell": ell,
            "quotient": label_document(quotient),
            "core": list(core),
        }),
    )


def _cmd_presentation(args) -> _Output:
    built = _block_part(_parse_label(args.label, args.ell), args.ell, args.simplified)
    return _Output(
        lambda: presentation_text(built),
        lambda: _presentation_json(built) + "\n",
    )


def _cmd_wronskian(args) -> _Output:
    lam = parse_partition(args.partition)
    if not lam:
        raise EmptyPartition("the Wronskian needs at least one polynomial")
    codec, det = _packed_wronskian(lam)

    def document() -> dict:
        terms = []
        for _key, code, ue, _names in codec.ordered(det, codec.table("f", True)):
            names = [generator_name(s) for s, e in codec.decode(code)[1] for _ in range(e)]
            terms.append({"coefficient": str(det[code]), "monomial": names, "u_power": ue})
        return {"partition": list(lam), "wronskian": terms}

    return _Output(
        lambda: PackedPolys(codec, [det], (1,)).text(0),
        lambda: render_json(document()),
    )


def _cmd_hilbert(args) -> _Output:
    label = _parse_label(args.label, args.ell)
    series = hilbert_series_formula(label, args.ell)
    return _Output(
        lambda: f"series: {format_series(series)}\ndimension: {series.dimension()}",
        lambda: render_json({
            "label": label_document(label),
            "ell": args.ell,
            "coefficients": list(series.coefficients),
            "series": format_series(series),
            "dimension": series.dimension(),
        }),
    )


def _centre_text(result: CentrePresentation, simplified: bool) -> str:
    lines = [
        f"centre for n={result.n}, ell={result.ell} (assumption: {ASSUMPTION})"
    ]
    for blk in result.blocks:
        lines.append(f"block {format_label(blk.label)}: dimension {blk.dimension}")
        if simplified:
            lines.append(f"  plus:  {quotient_ring_text(blk.plus_part)}")
            lines.append(f"  minus: {quotient_ring_text(blk.minus_part)}")
    lines.append(f"total dimension: {result.total_dimension}")
    return "\n".join(lines)


def _centre_json(result: CentrePresentation) -> str:
    """The centre's document as canonical JSON, in one loop over the blocks;
    each block's plus and minus parts are written by ``_presentation_json``
    at their depth.  Each label's JSON is written once: it is also its star
    partner's ``star_label``."""
    field = "\n      "
    labels = {blk.label: _label_json(blk.label, field) for blk in result.blocks}
    blocks = []
    for blk in result.blocks:
        fields = [
            f'"dimension": {blk.dimension}',
            '"label": ' + labels[blk.label],
            '"minus": ' + _presentation_json(blk.minus_part, field),
            '"plus": ' + _presentation_json(blk.plus_part, field),
        ]
        if blk.star_label is not None:
            fields.append('"star_label": ' + labels[blk.star_label])
        blocks.append("{" + field + ("," + field).join(fields) + "\n    }")
    return (
        '{\n  "assumption": ' + _json_value(ASSUMPTION, "")
        + ',\n  "blocks": ' + _json_list(blocks, "\n  ")
        + ',\n  "group": ' + _json_value({"ell": result.ell, "n": result.n}, "\n  ")
        + f',\n  "total_dimension": {result.total_dimension}\n}}\n'
    )


def _cmd_centre(args) -> _Output:
    result = centre_presentation(args.n, args.ell, args.simplified)
    return _Output(
        lambda: _centre_text(result, args.simplified),
        lambda: _centre_json(result),
    )


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> _Output:
    # imported here, so that loading the CLI does not load the checks
    from . import checks

    n_max = args.n_max
    relation_max = max(n_max, 11) if args.deep else n_max
    oracle_max = max(n_max, 7) if args.deep else n_max
    suites = [
        (f"direct/wronskian relation agreement (n <= {relation_max})",
         checks.direct_equals_wronskian, relation_max),
        ("abacus roundtrip and quotient bijection (n <= 5, ell <= 4)",
         checks.abacus_bijection, 5),
        (f"hilbert formula/oracle/hook-dimension agreement (n <= {oracle_max})",
         checks.hilbert_formula_equals_oracle, oracle_max),
    ]
    if args.deep:
        suites += [
            ("recursive-wronskian determinant cross-check (n <= 9)",
             checks.recursive_wronskian, 9),
            ("wreath degrees, series formula/oracle agreement, support and "
             "simplify invariance (n*ell <= 10)",
             checks.wreath_support, 10),
        ]
    # (name, failure detail or None) per suite
    results = [(name, suite(bound)) for name, suite, bound in suites]
    passed = all(detail is None for _, detail in results)

    def text() -> str:
        lines = [
            f"ok   {name}" if detail is None else f"FAIL {name}: {detail}"
            for name, detail in results
        ]
        lines.append("selftest: " + ("all suites passed" if passed else "FAILURES"))
        return "\n".join(lines)

    def document() -> dict:
        entries = [
            {"name": name, "ok": detail is None, "detail": detail or ""}
            for name, detail in results
        ]
        return {"passed": passed, "suites": entries}

    return _Output(text, lambda: render_json(document()), 0 if passed else 1)


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """Reads ``-|...`` (a multipartition with an empty first component) as a
    positional; no option starts with ``-|``.  Subparsers inherit the class."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-|"):
            return None
        return super()._parse_optional(arg_string)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--out", help="write output atomically to this file")

    parser = _Parser(
        prog="cherednik-centre",
        description=(
            "Exact presentations (generators, graded relations, Hilbert series) "
            "of the centre of the restricted rational Cherednik algebra at t=0 "
            "for symmetric groups and their cyclic wreath products; the "
            "deformation parameter is assumed generic."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_partition = sub.add_parser("partition", help="partition utilities")
    p_sub = p_partition.add_subparsers(dest="action", required=True)
    p_info = p_sub.add_parser("info", parents=[common], help="hooks, beta-set, transpose")
    p_info.add_argument("partition", help='e.g. "3,2" ("-" for empty)')

    p_abacus = sub.add_parser("abacus", help="bead diagrams: core, quotient, compose")
    a_sub = p_abacus.add_subparsers(dest="action", required=True)
    for action, description in (
        ("core", "the ell-core of a partition"),
        ("quotient", "the ell-quotient (and core) of a partition"),
        ("compose", "rebuild the trivial-core partition from a quotient"),
    ):
        leaf = a_sub.add_parser(action, parents=[common], help=description)
        leaf.add_argument(
            "argument",
            help="partition, or multipartition for compose (components joined by |)",
        )
        leaf.add_argument("--ell", type=int, required=True, help="number of columns")

    p_pres = sub.add_parser(
        "presentation", parents=[common], help="graded presentation of a block"
    )
    p_pres.add_argument("label", help="partition, or multipartition when --ell > 1")
    p_pres.add_argument("--ell", type=int, default=1)
    group = p_pres.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true", help="raw relations (default)")
    group.add_argument("--simplified", action="store_true", help="eliminate linear generators")

    p_wr = sub.add_parser(
        "wronskian", parents=[common], help="full symbolic Wronskian of the cell basis"
    )
    p_wr.add_argument("partition")

    p_hil = sub.add_parser("hilbert", parents=[common], help="Hilbert series of a block")
    p_hil.add_argument("label", help="partition, or multipartition when --ell > 1")
    p_hil.add_argument("--ell", type=int, default=1)

    p_centre = sub.add_parser(
        "centre", parents=[common], help="all blocks of the centre for a group"
    )
    p_centre.add_argument("n", type=int)
    p_centre.add_argument("--ell", type=int, default=1)
    p_centre.add_argument("--simplified", action="store_true")

    p_self = sub.add_parser(
        "selftest", parents=[common], help="run the oracle-equivalence suites"
    )
    p_self.add_argument("n_max", type=_positive_int, nargs="?", default=5)
    p_self.add_argument(
        "--deep",
        action="store_true",
        help="larger bounds, plus the recursive-Wronskian and wreath suites (under a second)",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built once per process: parsing leaves no
    state in it."""
    return build_parser()


_HANDLERS = {
    "partition": _cmd_partition_info,
    "abacus": _cmd_abacus,
    "presentation": _cmd_presentation,
    "wronskian": _cmd_wronskian,
    "hilbert": _cmd_hilbert,
    "centre": _cmd_centre,
    "selftest": _cmd_selftest,
}


def _render(result: _Output, fmt: str) -> str:
    """``result`` in ``fmt``, with CPython's cap on the digits of an int
    written as ``str`` lifted while it renders, and put back after: raw
    coefficients pass it (one in ``presentation 82`` has 4,324 digits).  The
    handlers parse their labels under the cap, so a label of thousands of
    digits still fails fast.  Python 3.10.6 and older have no cap."""
    render = result.json if fmt == "json" else lambda: result.text() + "\n"
    if not hasattr(sys, "set_int_max_str_digits"):
        return render()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render()
    finally:
        sys.set_int_max_str_digits(limit)


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return int(code) if code else 0
    try:
        result = _HANDLERS[args.command](args)
        output = _render(result, args.format)
    except DomainError as err:
        print(type(err).__name__, file=sys.stderr)
        return 1
    try:
        if args.out:
            _write_atomic(args.out, output)
        else:
            sys.stdout.write(output)
    except OSError as err:
        target = args.out or "<stdout>"
        print(f"error: cannot write {target}: {err.strerror or err}", file=sys.stderr)
        return 1
    return result.status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
