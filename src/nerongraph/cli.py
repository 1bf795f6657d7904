"""Command line front end: file ingestion, reports, the built-in example
table and the exhaustive lemma verifier.

Input documents are JSON::

    {
      "name": "banana",
      "r": 2,
      "m1": 1,
      "vertices": [{"id": "v0"}, {"id": "v1", "genus": 1}],
      "edges": [
        {"id": "e0", "tail": "v0", "tip": "v1"},
        {"id": "e1", "tail": "v0", "tip": "v1", "thickness": 1, "stabilizer": 1}
      ],
      "multidegree": {"v0": 1, "v1": -1}
    }

with ``m1`` defaulting to 1, ``genus`` to 0, ``thickness`` and
``stabilizer`` to 1 and ``multidegree`` optional.  Machine-readable
reports echo the normalised input, so analyse -> serialise -> re-analyse
is idempotent.

The machine report is the text of ``json.dumps(report, indent=2)``, but
not written by it: at an indent, ``json.dumps`` leaves its C encoder for
the pure-Python one, which cost more than the parsing.  One template
writes the whole report, escaping strings with
``json.encoder.encode_basestring_ascii`` as ``json.dumps`` does; the
tests hold it to ``json.dumps``.  In the same way the parser tests each
well-formed record in one expression and names the field only for a
record that fails, and :func:`main` hands what follows a subcommand's
name straight to that subcommand's parser.

``analyze --r`` writes its r into the document before it is checked.
Every refusal, of the input or by stdout, is a :class:`NeronGraphError`
that :func:`main` alone reports, as one ``error:`` line.

Exit codes: 0 success, 1 counterexample found by verify-lemma, 2 input
or validation error, or a stdout that refuses the output (a closed pipe,
a full disk, a character its encoding lacks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import islice
from typing import Any, Iterable

from . import __version__
from .errors import BadModulus, BoundsTooLarge, NeronGraphError, ParseError, shown
from .graph import MultiGraph, total_genus
from .invariants import AnalysisReport, ReductionData, analyze
from .fixtures import paper_fixtures
from .enumeration import verify_equivalence


# -- input documents --------------------------------------------------------


# JSON type names by decoded Python type; bool before int, its base class.
_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"),
               (str, "string"), (list, "array"), (dict, "object"))


def _json_type(value: Any) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), "null")


def _expect(value: Any, kind: type, path: str) -> Any:
    """The value, or a :class:`ParseError` that names the field and the
    JSON type received; the value itself is never echoed."""
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = next(name for k, name in _JSON_TYPES if k is kind)
        raise ParseError(f"{path}: expected {expected}, got {_json_type(value)}")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``object_pairs_hook`` for :func:`json.loads` that refuses a key
    given twice in one object instead of keeping the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"{shown(key)}: duplicate key")
        obj[key] = value
    return obj


def _known_keys(obj: dict, allowed: frozenset[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{path}.{shown(key)}: unknown field")


# The fields a document, a vertex record and an edge record may have.
_DOCUMENT_FIELDS = frozenset({"name", "r", "m1", "vertices", "edges", "multidegree"})
_VERTEX_FIELDS = frozenset({"id", "genus"})
_EDGE_FIELDS = frozenset({"id", "tail", "tip", "thickness", "stabilizer"})

# The most characters ``analyze`` reads of a document.  The 300 000-vertex
# path at thickness 7, 26.9 million characters, analysed in 4.6 s at a
# peak RSS of 535 MiB on a 2-core x86-64 host.  They are read 2**13 at a
# time, since one ``read(n)`` allocates n bytes before it reads: at
# n = 2**25 that added 30-50 us to each small document, and at n = 65536
# about 100 KiB to the peak RSS.  A document shorter than a chunk takes
# one read.
_MAX_DOCUMENT_CHARS = 2**25


def _vertex_record(rec: Any, path: str) -> tuple[str, int]:
    """The id and genus of a vertex record, checked field by field."""
    _expect(rec, dict, path)
    _known_keys(rec, _VERTEX_FIELDS, path)
    if "id" not in rec:
        raise ParseError(f"{path}.id: required field is missing")
    vid = _expect(rec["id"], str, f"{path}.id")
    g = _expect(rec.get("genus", 0), int, f"{path}.genus")
    if g < 0:
        raise ParseError(f"{path}.genus: must be nonnegative")
    return vid, g


def _edge_record(rec: Any, path: str) -> tuple[str, str, str, int, int]:
    """The id, tail, tip, thickness and stabilizer of an edge record,
    checked field by field."""
    _expect(rec, dict, path)
    _known_keys(rec, _EDGE_FIELDS, path)
    for field in ("id", "tail", "tip"):
        if field not in rec:
            raise ParseError(f"{path}.{field}: required field is missing")
    eid = _expect(rec["id"], str, f"{path}.id")
    tail = _expect(rec["tail"], str, f"{path}.tail")
    tip = _expect(rec["tip"], str, f"{path}.tip")
    decorations = []
    for field in ("thickness", "stabilizer"):
        value = _expect(rec.get(field, 1), int, f"{path}.{field}")
        if value < 1:
            raise ParseError(f"{path}.{field}: must be >= 1")
        decorations.append(value)
    return eid, tail, tip, *decorations


def parse_input_document(obj: Any) -> tuple[str, ReductionData]:
    """Turn a decoded JSON document into named reduction data, raising
    :class:`ParseError` with a field-precise path on any malformation.

    A well-formed record passes one expression of exact type tests and
    builds no path; only a record that fails it goes through the checks
    field by field (:func:`_vertex_record`, :func:`_edge_record`), which
    name the fault, or accept a subclass of a JSON type from a Python
    caller."""
    _expect(obj, dict, "document")
    _known_keys(obj, _DOCUMENT_FIELDS, "document")
    name = _expect(obj.get("name", "input"), str, "name")
    if "r" not in obj:
        raise ParseError("r: required field is missing")
    r = _expect(obj["r"], int, "r")
    m1 = _expect(obj.get("m1", 1), int, "m1")

    vertices: list[str] = []
    genus: dict[str, int] = {}
    for i, rec in enumerate(_expect(obj.get("vertices", []), list, "vertices")):
        if not (type(rec) is dict and rec.keys() <= _VERTEX_FIELDS
                and type(vid := rec.get("id")) is str
                and type(g := rec.get("genus", 0)) is int and g >= 0):
            vid, g = _vertex_record(rec, f"vertices[{i}]")
        vertices.append(vid)
        genus[vid] = g

    edges: list[tuple[str, str, str]] = []
    thickness: dict[str, int] = {}
    stabilizer: dict[str, int] = {}
    for i, rec in enumerate(_expect(obj.get("edges", []), list, "edges")):
        if not (type(rec) is dict and rec.keys() <= _EDGE_FIELDS
                and type(eid := rec.get("id")) is str
                and type(tail := rec.get("tail")) is str
                and type(tip := rec.get("tip")) is str
                and type(eta := rec.get("thickness", 1)) is int and eta >= 1
                and type(stab := rec.get("stabilizer", 1)) is int and stab >= 1):
            eid, tail, tip, eta, stab = _edge_record(rec, f"edges[{i}]")
        edges.append((eid, tail, tip))
        thickness[eid] = eta
        stabilizer[eid] = stab

    multidegree = None
    if obj.get("multidegree") is not None:
        md = _expect(obj["multidegree"], dict, "multidegree")
        multidegree = dict(md)
        if not all(type(k) is str and type(v) is int for k, v in md.items()):
            for key, value in md.items():
                _expect(key, str, "multidegree key")
                _expect(value, int, f"multidegree.{shown(key)}")

    graph = MultiGraph(vertices, edges, genus, thickness, stabilizer)
    return name, ReductionData(graph=graph, r=r, m1=m1, multidegree=multidegree)


def normalized_document(name: str, data: ReductionData) -> dict:
    """The input document with all defaults made explicit."""
    g = data.graph
    doc: dict[str, Any] = {
        "name": name,
        "r": data.r,
        "m1": data.m1,
        "vertices": [{"id": v, "genus": x} for v, x in zip(g.vertices, g.genera)],
        "edges": [
            {"id": e.id, "tail": e.tail, "tip": e.tip, "thickness": eta,
             "stabilizer": stabilizer}
            for e, eta, stabilizer in zip(g.edges, g.thicknesses, g.stabilizers)
        ],
    }
    if data.multidegree is not None:
        doc["multidegree"] = dict(data.multidegree)  # in vertex order
    return doc


def _digit_limit() -> int:
    """The interpreter's limit on printed digits,
    ``sys.get_int_max_str_digits()``, or its default when the limit is
    off (0): the limit that bounds every number a report prints, and so
    the work of computing it."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _too_long_to_print(n: int) -> bool:
    """Whether ``n`` has more digits than :func:`_digit_limit`."""
    limit = _digit_limit()
    # 2^(3 * limit) < 10^limit, so short numbers skip the exact test.
    return n.bit_length() > 3 * limit and n >= 10 ** limit


def _check_printable(data: ReductionData) -> None:
    """Raise :class:`BoundsTooLarge` when the total genus, or the generic
    torsion count r^(2 * genus), the largest count a report prints, is
    too long to print, at every r.  This runs before the count is
    computed and in integers only: the power is computed only when its
    bit length leaves the answer open, so neither an ordinary call nor a
    huge genus computes it."""
    limit = _digit_limit()
    genus, r = total_genus(data.graph), data.r
    # With b = r.bit_length(), 2^(k * (b - 1)) <= r^k < 2^(k * b), and
    # 2^(3 * limit) < 10^limit < 2^(4 * limit); only in between is r^k
    # computed, and then it has fewer than 8 * limit bits.
    k, b = 2 * genus, r.bit_length()
    long_genus = _too_long_to_print(genus)
    long_count = k * (b - 1) >= 4 * limit or (k * b > 3 * limit and _too_long_to_print(r ** k))
    if long_genus or long_count:
        shown_genus = f"of more than {limit} digits" if long_genus else shown(str(genus))
        outcome = (f"gives a torsion count r^(2 * genus) of more than {limit} digits, too "
                   "long to print" if long_count else "is too long to print")
        raise BoundsTooLarge(
            f"genus, r: total genus {shown_genus} with r = {shown(str(r))} {outcome}")


def report_document(name: str, data: ReductionData, report: AnalysisReport) -> dict:
    return {
        "tool": {"name": "nerongraph", "version": __version__},
        "input": normalized_document(name, data),
        "assumptions": {
            "tame_ramification": True,
            "semistable_model_over_base": True,
            "m1": data.m1,
            # For r <= 2 the finiteness criterion is an equivalence only
            # under the semistability assumption that m1 = 1 encodes.
            "small_r_criterion_conditional": data.r <= 2,
        },
        "report": {
            "b1": report.b1,
            "genus": report.genus,
            "c": report.c,
            "t": report.t,
            "phi": list(report.phi.invariant_factors),
            "phi_order": report.phi.order,
            "phi_r": list(report.phi_r.invariant_factors),
            "m1": report.m1,
            "m2": report.m2,
            "m3": report.m3,
            "group_neron_finite": report.group_neron_finite,
            "torsor_neron_finite": report.torsor_neron_finite,
            "r_divided": report.r_divided,
            "twisted_roots_finite": report.twisted_roots_finite,
            "torsion_count_special_fibre": report.torsion_count_special_fibre,
            "torsion_count_generic": report.torsion_count_generic,
        },
    }


# -- the machine report -----------------------------------------------------

# The string escaper json.dumps uses by default (ensure_ascii).
_quoted = json.encoder.encode_basestring_ascii
_int_text = int.__repr__


def _scalar_text(value: Any, newline: str) -> str:
    """``json.dumps(value, indent=2)`` for a string, integer, boolean,
    None or list of them, on the line that ``newline`` starts."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, list):
        inner = newline + "  "
        items = ",".join([inner + _scalar_text(v, inner) for v in value])
        return f"[{items}{newline}]" if value else "[]"
    raise TypeError(f"cannot write a {type(value).__name__} as JSON")


def _section_text(fields: dict, newline: str) -> str:
    """``json.dumps(fields, indent=2)`` for a dict of string keys and
    :func:`_scalar_text` values, on the line that ``newline`` starts."""
    inner = newline + "  "
    items = ",".join([f"{inner}{_quoted(k)}: {_scalar_text(v, inner)}"
                      for k, v in fields.items()])
    return f"{{{items}{newline}}}" if fields else "{}"


def _machine_text(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2)`` for a :func:`report_document`,
    from one template, with a template for each vertex and edge record
    (nearly all of a report) and :func:`_section_text` for the sections."""
    given = doc["input"]
    vertices = ",".join([
        f'\n      {{\n        "id": {_quoted(v["id"])},\n        "genus": '
        f'{_int_text(v["genus"])}\n      }}' for v in given["vertices"]])
    edges = ",".join([
        f'\n      {{\n        "id": {_quoted(e["id"])},\n        "tail": '
        f'{_quoted(e["tail"])},\n        "tip": {_quoted(e["tip"])},\n        '
        f'"thickness": {_int_text(e["thickness"])},\n        "stabilizer": '
        f'{_int_text(e["stabilizer"])}\n      }}' for e in given["edges"]])
    vertices, edges = (f"[{text}\n    ]" if text else "[]" for text in (vertices, edges))
    multidegree = ("" if "multidegree" not in given else ',\n    "multidegree": '
                   + _section_text(given["multidegree"], "\n    "))
    tool, assumptions, report = (_section_text(doc[key], "\n  ")
                                 for key in ("tool", "assumptions", "report"))
    return (
        f'{{\n  "tool": {tool},\n  "input": {{\n    "name": {_quoted(given["name"])},'
        f'\n    "r": {_int_text(given["r"])},\n    "m1": {_int_text(given["m1"])},'
        f'\n    "vertices": {vertices},\n    "edges": {edges}{multidegree}\n  }},'
        f'\n  "assumptions": {assumptions},\n  "report": {report}\n}}')


# -- subcommands -------------------------------------------------------------


def _yesno(flag: bool | None) -> str:
    if flag is None:
        return "n/a"
    return "yes" if flag else "no"


def _write_lines(lines: Iterable[str]) -> None:
    """Write a command's output to stdout and flush it.  A stdout that
    refuses it (a closed pipe, a full disk, a character its encoding
    lacks) is pointed at the null device, and the refusal raised as a
    :class:`NeronGraphError` for :func:`main` to report."""
    text = "".join(f"{line}\n" for line in lines)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        _discard_stdout()
        reason = getattr(exc, "strerror", None) or exc
        raise NeronGraphError(f"cannot write the output: {reason}") from exc


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that what
    is still buffered for it is dropped at exit instead of failing again
    and printing "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file, like a StringIO
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _human_report(name: str, data: ReductionData, report: AnalysisReport) -> list[str]:
    g = data.graph
    lines = [
        ("input", f"{name} (r = {data.r}, m1 = {data.m1})"),
        ("vertices, edges", f"{g.n_vertices}, {g.n_edges}"),
        ("b1", str(report.b1)),
        ("total genus", str(report.genus)),
        ("component group", f"{report.phi} (order {report.phi.order})"),
        (f"{data.r}-torsion of it", str(report.phi_r)),
        ("circuit invariant c", str(report.c)),
        ("thickness invariant t", str(report.t)),
        ("m1, m2, m3", f"{report.m1}, {report.m2}, {report.m3}"),
        ("group Neron model finite", _yesno(report.group_neron_finite)),
        ("root torsor finite", _yesno(report.torsor_neron_finite)),
        (f"{data.r}-divided", _yesno(report.r_divided)),
        ("twisted roots finite", _yesno(report.twisted_roots_finite)),
        ("torsion on special fibre", str(report.torsion_count_special_fibre)),
        ("torsion generically", str(report.torsion_count_generic)),
    ]
    width = max(len(k) for k, _ in lines)
    return [f"{key:<{width}}  {value}" for key, value in lines]


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read(2**13)
            if len(text) == 2**13:  # not at the end: the rest, to the limit
                chunks = iter(lambda: handle.read(2**13), "")
                text += "".join(islice(chunks, _MAX_DOCUMENT_CHARS // 2**13))
    except OSError as exc:
        raise ParseError(str(exc))
    except UnicodeDecodeError:
        raise ParseError(f"{args.path}: not UTF-8 text")
    if len(text) > _MAX_DOCUMENT_CHARS:
        raise ParseError(f"{args.path}: longer than {_MAX_DOCUMENT_CHARS} characters")
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError(f"{args.path}: arrays or objects nested too deeply")
    except ValueError as exc:  # an integer literal past the digit limit
        raise ParseError(f"{args.path}: {exc}")
    if args.r is not None and isinstance(obj, dict):
        obj = {**obj, "r": args.r}  # checked at the r that is analysed
    name, data = parse_input_document(obj)
    _check_printable(data)
    report = analyze(data)
    # c and the factors of Phi divide its order; every other number in the
    # report is bounded by the input or was checked above.
    if _too_long_to_print(report.phi.order):
        raise BoundsTooLarge(
            "edges: the thicknesses give a component group whose order has "
            f"more than {_digit_limit()} digits, too long to print"
        )
    if args.format == "machine":
        _write_lines([_machine_text(report_document(name, data, report))])
    else:
        _write_lines(_human_report(name, data, report))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    r = args.r
    if r <= 0 or r % 4 != 0:
        raise BadModulus(f"the table assumes r is a positive multiple of 4, got {r}")
    rows = []
    for name, graph in paper_fixtures():
        report = analyze(ReductionData(graph=graph, r=r))
        rows.append((name, report.c, report.t, report.m1, report.m2, report.m3))
    header = ("fixture", "c", "t", "m1", "m2", "m3")
    widths = [
        max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))
    ]
    def fmt(row):
        name = f"{row[0]:<{widths[0]}}"
        rest = "  ".join(f"{str(x):>{widths[i + 1]}}" for i, x in enumerate(row[1:]))
        return f"{name}  {rest}"
    _write_lines([f"r = {r}", "", fmt(header), *map(fmt, rows)])
    return 0


def cmd_verify_lemma(args: argparse.Namespace) -> int:
    report = verify_equivalence(max_edges=args.max_edges, max_q=args.max_q)
    lines = []
    for m in sorted(report.graphs_by_edges):
        count = report.graphs_by_edges[m]
        lines.append(f"edges={m}: {count} graph{'s' if count != 1 else ''}")
    lines.append(
        f"checked {report.total_graphs} graphs x q <= {report.max_q}: "
        f"{report.checks} criterion triples, "
        f"{len(report.counterexamples)} counterexamples"
    )
    _write_lines(lines)
    if not report.ok:
        for line in report.counterexamples:
            print(f"counterexample: {line}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerongraph",
        description=(
            "Decide finiteness of Neron models of r-torsion Picard schemes "
            "and root torsors from dual-graph reduction data."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one JSON input document")
    p_analyze.add_argument("path", help="path to the input document")
    p_analyze.add_argument("--r", type=int, default=None, help="override the document's r")
    p_analyze.add_argument(
        "--format", choices=("table", "machine"), default="table",
        help="human-readable table or machine-readable JSON",
    )

    p_table = sub.add_parser(
        "table", help="print c, t, m1, m2, m3 for the six built-in graphs"
    )
    p_table.add_argument(
        "--r", type=int, default=4, help="torsion order, a positive multiple of 4"
    )

    p_verify = sub.add_parser(
        "verify-lemma",
        help="exhaustively check the three-way criterion equivalence",
    )
    p_verify.add_argument("--max-edges", type=int, default=6)
    p_verify.add_argument("--max-q", type=int, default=6)

    parser.subcommands = sub.choices  # name -> parser, as argparse keeps them
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, with its ``subcommands``
    map, built on the first call and shared by every later one; each
    parse fills a fresh namespace, so no call sees another's arguments."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names,
    parsing what follows a subcommand's name with that subcommand's
    parser alone.  The full parser parses again when no subcommand is
    named or an argument is left over, and so prints each help text and
    usage error that it would print on its own.  A command refuses its
    input or output by raising :class:`NeronGraphError`, which this one
    handler reports as one ``error:`` line on stderr and exit status 2."""
    argv = sys.argv[1:] if argv is None else argv
    sub = _parser().subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or rest:
        args = _parser().parse_args(argv)
    # Looked up on every call, not kept in the shared parser, so that a
    # command replaced on this module (by a test or a tracer) is the one
    # that runs.
    command = {"analyze": cmd_analyze, "table": cmd_table,
               "verify-lemma": cmd_verify_lemma}[args.command]
    try:
        return command(args)
    except NeronGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
