import contextlib
import copy
import errno
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerongraph import __version__, cli
from nerongraph.cli import _machine_text, main, parse_input_document, report_document
from nerongraph.invariants import MAX_PRESENTATION_DIMENSION, analyze

BANANA_DOC = {
    "name": "banana",
    "r": 2,
    "vertices": [{"id": "v0", "genus": 1}, {"id": "v1", "genus": 1}],
    "edges": [
        {"id": "e0", "tail": "v0", "tip": "v1"},
        {"id": "e1", "tail": "v0", "tip": "v1"},
    ],
    "multidegree": {"v0": 2, "v1": 0},
}


def write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_table_format(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, BANANA_DOC)]) == 0
        out = capsys.readouterr().out
        assert "banana (r = 2, m1 = 1)" in out
        assert "Z/2" in out
        assert "group Neron model finite  yes" in out

    def test_machine_format_fields(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, BANANA_DOC), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == {"name": "nerongraph", "version": __version__}
        report = doc["report"]
        assert report["phi"] == [2]
        assert report["c"] == 2 and report["t"] == 1
        assert (report["m1"], report["m2"], report["m3"]) == (1, 1, 2)
        assert report["group_neron_finite"] is True
        assert report["torsor_neron_finite"] is True
        assert doc["assumptions"]["small_r_criterion_conditional"] is True

    def test_r_override(self, tmp_path, capsys):
        doc = {k: v for k, v in BANANA_DOC.items() if k != "multidegree"}
        assert main(["analyze", write(tmp_path, doc), "--r", "3",
                     "--format", "machine"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["input"]["r"] == 3
        assert out["report"]["group_neron_finite"] is False
        # --r replaces the document's r before the document is checked:
        # a multidegree of total 2 is valid at r = 2 whatever the
        # document's own r, and that r may be missing or out of range.
        no_r = {k: v for k, v in BANANA_DOC.items() if k != "r"}
        for doc in (dict(BANANA_DOC, r=3), no_r, dict(BANANA_DOC, r=0)):
            assert main(["analyze", write(tmp_path, doc), "--r", "2",
                         "--format", "machine"]) == 0
            assert json.loads(capsys.readouterr().out)["input"]["r"] == 2

    def test_r_override_incompatible_with_multidegree(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, BANANA_DOC), "--r", "3"]) == 2
        assert "multiple of r" in capsys.readouterr().err

    def test_loop_fixture_r3(self, tmp_path, capsys):
        doc = {
            "name": "loop",
            "r": 3,
            "vertices": [{"id": "v0", "genus": 1}],
            "edges": [{"id": "e0", "tail": "v0", "tip": "v0"}],
        }
        assert main(["analyze", write(tmp_path, doc), "--format", "machine"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["group_neron_finite"] is False
        assert out["report"]["m2"] == 3
        assert out["report"]["torsor_neron_finite"] is None

    def test_round_trip_idempotent(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, BANANA_DOC), "--format", "machine"]) == 0
        first = json.loads(capsys.readouterr().out)
        again = write(tmp_path, first["input"], name="echo.json")
        assert main(["analyze", again, "--format", "machine"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "r": }')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_malformed_edge_record(self, tmp_path, capsys):
        doc = {
            "name": "bad",
            "r": 2,
            "vertices": [{"id": "v0"}],
            "edges": [{"id": "e0", "tail": "v0"}],
        }
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert "edges[0].tip" in capsys.readouterr().err

    def test_disconnected_rejected(self, tmp_path, capsys):
        doc = {
            "name": "two-points",
            "r": 2,
            "vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [],
        }
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert "not connected" in capsys.readouterr().err

    def test_disconnected_names_the_vertices_unreachable_from_the_first(
            self, tmp_path, capsys):
        # The least vertex "a" roots the spanning tree, but the message
        # counts from the first vertex listed, "b".
        doc = {
            "r": 2,
            "vertices": [{"id": "b"}, {"id": "a"}, {"id": "c"}],
            "edges": [{"id": "e", "tail": "b", "tip": "c"}],
        }
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: graph is not connected; 1 unreachable vertices: 'a'\n")

    def test_bad_thickness_field(self, tmp_path, capsys):
        doc = {
            "name": "bad",
            "r": 2,
            "vertices": [{"id": "v0"}],
            "edges": [{"id": "e0", "tail": "v0", "tip": "v0", "thickness": 0}],
        }
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert "edges[0].thickness" in capsys.readouterr().err

    def test_unknown_field_flagged(self, tmp_path, capsys):
        doc = dict(BANANA_DOC, typo=1)
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert "typo" in capsys.readouterr().err


    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_duplicate_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"r": 2, "r": 3, "vertices": [{"id": "v0"}], "edges": []}')
        assert main(["analyze", str(path)]) == 2
        assert "r: duplicate key" in capsys.readouterr().err

    def test_duplicate_keys_in_a_record_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"r": 2, "vertices": [{"id": "v0", "genus": 0, "genus": 1}]}')
        assert main(["analyze", str(path)]) == 2
        assert "genus: duplicate key" in capsys.readouterr().err

    @pytest.mark.parametrize("padding", [0, 10000])  # one chunk of 2**13, or two
    def test_document_past_the_character_limit(self, tmp_path, capsys, monkeypatch,
                                                padding):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(BANANA_DOC) + " " * padding)
        path, size = str(path), len(path.read_text())
        monkeypatch.setattr(cli, "_MAX_DOCUMENT_CHARS", size)
        assert main(["analyze", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_MAX_DOCUMENT_CHARS", size - 1)
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: longer than {size - 1} characters\n"
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_input_is_read_to_the_limit_alone(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_DOCUMENT_CHARS", 1000)
        assert main(["analyze", "/dev/zero"]) == 2
        assert capsys.readouterr().err == "error: /dev/zero: longer than 1000 characters\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_that_never_ends_is_refused(self, tmp_path):
        # A writer that never stops: analyze, at the real limit, reads one
        # character past it and exits 2 with one error line.
        fifo = tmp_path / "endless"
        os.mkfifo(fifo)
        writer = subprocess.Popen(
            [sys.executable, "-c",
             "import sys\nwith open(sys.argv[1], 'w') as f:\n"
             "    while True: f.write(' ' * 65536)", str(fifo)],
            stderr=subprocess.DEVNULL)
        try:
            result = TestOutputErrors.run_cli(["analyze", str(fifo)], subprocess.PIPE)
        finally:
            writer.kill()
            writer.wait()
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == (
            f"error: {fifo}: longer than {cli._MAX_DOCUMENT_CHARS} characters\n")

    def test_not_utf8_text(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"r": 2}')
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: not UTF-8 text\n"
        assert captured.out == ""

    def test_integer_literal_past_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"r": 1' + "0" * 5000 + ', "vertices": [{"id": "v0"}]}')
        assert main(["analyze", str(path)]) == 2
        assert "digits" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["table", "machine"])
    def test_huge_genus_rejected(self, tmp_path, capsys, fmt):
        # 10^400 is past the range of a float; two genera of 4300 digits
        # parse, but their sum has more digits than str() converts, which
        # the report prints even at r = 1, where the torsion count is 1.
        # The message shows the genus cut short, or only its size.
        big = 10**4300 - 1
        for r, genera in ((2, [10000]), (2, [10**400]), (2, [big, big]), (1, [big, big])):
            doc = {"r": r,
                   "vertices": [{"id": f"v{i}", "genus": x} for i, x in enumerate(genera)],
                   "edges": [{"id": f"e{i}", "tail": "v0", "tip": f"v{i}"}
                             for i in range(1, len(genera))]}
            assert main(["analyze", write(tmp_path, doc), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert "genus" in captured.err and f"r = {r}" in captured.err
            assert captured.out == "" and len(captured.err) < 300
            assert ("torsion count" in captured.err) == (r > 1)

    def test_genus_limit_is_exact(self, tmp_path, capsys):
        # 10^(2g) has 2g + 1 digits: 4299 prints, 4301 does not.
        doc = {"r": 10, "vertices": [{"id": "v0", "genus": 2149}]}
        assert main(["analyze", write(tmp_path, doc), "--format", "machine"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["torsion_count_generic"] == 10 ** 4298
        doc["vertices"][0]["genus"] = 2150
        assert main(["analyze", write(tmp_path, doc)]) == 2
        assert "genus" in capsys.readouterr().err

    def test_component_group_too_long_to_print(self, tmp_path, capsys):
        # Two loops of thickness 10^3000 give |Phi| = 10^6000.
        doc = {"r": 2, "vertices": [{"id": "v0"}], "edges": [
            {"id": e, "tail": "v0", "tip": "v0", "thickness": 10 ** 3000}
            for e in ("x", "y")]}
        assert main(["analyze", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "edges" in captured.err and captured.out == ""

    def test_no_digit_limit_still_bounds_the_analysis(self, tmp_path):
        # With the interpreter's limit off, the default limit bounds the
        # report: 3^(2 * 10^12) is refused, not computed.
        doc = {"r": 3, "vertices": [{"id": "v0", "genus": 10**12}]}
        result = TestOutputErrors.run_cli(["analyze", write(tmp_path, doc)], subprocess.PIPE,
                                          PYTHONINTMAXSTRDIGITS="0")
        limit = sys.int_info.default_max_str_digits
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: genus, r: ")
        assert f"more than {limit} digits" in result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("doc,field", [
        ({"r": "x" * 5_000_000, "vertices": [{"id": "v0"}]}, "r: expected integer, got string"),
        ({"name": json.loads("[" * 900 + "]" * 900), "r": 2}, "name: expected string, got array"),
        ({"r": 2, "k" * 1_000_000: 1}, "document.kkk"),
        ({"r": 2, "vertices": [{"id": "v0"}], "multidegree": {"v" * 1_000_000: "1"}},
         "multidegree.vvv"),
    ])
    def test_parse_errors_echo_no_values(self, tmp_path, capsys, doc, field):
        assert main(["analyze", write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert field in err and len(err.encode()) < 300

    @pytest.mark.parametrize("doc,message", [
        ({"r": 2, "vertices": [{"id": "v" * 1_000_000}, {"id": "v" * 1_000_000}]},
         "duplicate vertex id 'vvv"),
        ({"r": 2, "vertices": [{"id": f"v{i}"} for i in range(20000)]},
         "19999 unreachable vertices: 'v1', 'v2', 'v3', ..."),
        ({"r": -(10**4000 - 1), "vertices": [{"id": "v0"}]},
         "r must be a positive integer"),
    ], ids=["duplicate-id", "disconnected", "huge-negative-r"])
    def test_graph_and_reduction_errors_are_bounded(self, tmp_path, capsys, doc, message):
        assert main(["analyze", write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.encode()) < 300

    def test_duplicate_long_key_is_cut(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        key = "k" * 1_000_000
        path.write_text(f'{{"r": 2, "{key}": 1, "{key}": 2}}')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "duplicate key" in err and len(err.encode()) < 300

    def test_presentation_past_the_limit(self, tmp_path, capsys):
        n = MAX_PRESENTATION_DIMENSION + 2
        vertices = [{"id": f"v{i}"} for i in range(n)]
        edges = [{"id": f"t{i}", "tail": f"v{i - 1}", "tip": f"v{i}"} for i in range(1, n)]
        edges += [{"id": f"x{i}", "tail": f"v{i % n}", "tip": f"v{(i + 7) % n}"}
                  for i in range(n + 1)]
        doc = {"r": 2, "vertices": vertices, "edges": edges}
        assert main(["analyze", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: vertices, edges: ")
        assert f"{n} vertices and {2 * n} edges" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_parser_reuse_keeps_no_state(self, tmp_path, capsys, monkeypatch):
        import nerongraph.cli as cli

        path = write(tmp_path, {k: v for k, v in BANANA_DOC.items() if k != "multidegree"})
        plain = ["analyze", path, "--format", "machine"]

        def outputs():
            out = []
            for argv in (plain + ["--r", "8"], plain):
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
            return out

        reused = outputs()
        assert cli._parser() is cli._parser()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)
            fresh = outputs()
        assert reused == fresh and fresh[0] != fresh[1]

    def test_commands_are_looked_up_on_every_call(self, tmp_path, monkeypatch):
        import nerongraph.cli as cli

        cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.r) or 0)
        assert main(["analyze", write(tmp_path, BANANA_DOC), "--r", "4"]) == 0
        assert seen == [4]


class _RefusingStdout:
    """A stdout whose every write fails with the given error."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


class TestOutputErrors:
    """A stdout that refuses the output gives one line on stderr and
    exit 2, in every subcommand."""

    @pytest.mark.parametrize("error", [
        BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
        OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    ], ids=["broken-pipe", "disk-full"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "{doc}", "--format", "machine"],
        ["analyze", "{doc}"],
        ["table"],
        ["verify-lemma", "--max-edges", "2", "--max-q", "2"],
    ], ids=["machine", "human", "table", "verify-lemma"])
    def test_one_line_and_exit_2(self, tmp_path, capsys, monkeypatch, error, argv):
        doc = write(tmp_path, BANANA_DOC)
        monkeypatch.setattr(sys, "stdout", _RefusingStdout(error))
        assert main([a.replace("{doc}", doc) for a in argv]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write the output: {error.strerror}\n")

    @staticmethod
    def run_cli(argv, stdout, **env):
        import nerongraph

        src = pathlib.Path(nerongraph.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), **env)
        return subprocess.run([sys.executable, "-m", "nerongraph.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)

    def test_closed_pipe(self, tmp_path):
        # A report longer than the stdout buffer fails partway through
        # the write and leaves output buffered for the exit, which must
        # not fail again.
        n = 300
        doc = {"r": 2, "vertices": [{"id": f"v{i}"} for i in range(n)],
               "edges": [{"id": f"e{i}", "tail": f"v{i - 1}", "tip": f"v{i}"}
                         for i in range(1, n)]}
        read, written = os.pipe()
        os.close(read)
        try:
            result = self.run_cli(["analyze", write(tmp_path, doc), "--format", "machine"],
                                  written)
        finally:
            os.close(written)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write the output: Broken pipe\n"

    @pytest.mark.parametrize("name,encoding", [("x\ud800", "utf-8"), ("caf\u00e9", "ascii")],
                             ids=["lone-surrogate", "ascii-stdout"])
    def test_unencodable_name(self, tmp_path, name, encoding):
        # The table report writes the name as it is; an in-process run
        # cannot show this, since a StringIO accepts any string.
        doc = {"name": name, "r": 2, "vertices": [{"id": "v0"}]}
        result = self.run_cli(["analyze", write(tmp_path, doc)], subprocess.PIPE,
                              PYTHONIOENCODING=encoding)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(
            f"error: cannot write the output: '{encoding}' codec can't encode character")
        assert result.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            result = self.run_cli(["table"], full)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write the output: No space left on device\n"


class TestParseInputDocument:
    def test_defaults_applied(self):
        doc = {
            "r": 4,
            "vertices": [{"id": "a"}],
            "edges": [{"id": "e", "tail": "a", "tip": "a"}],
        }
        name, data = parse_input_document(doc)
        assert name == "input"
        assert data.m1 == 1
        assert data.graph.genera == (0,)
        assert data.graph.thicknesses == (1,)
        assert data.multidegree is None

    def test_r_required(self):
        from nerongraph import ParseError

        with pytest.raises(ParseError, match="r: required"):
            parse_input_document({"vertices": [], "edges": []})


# Every corruption of every vertex and edge field, and the message it
# gets.  The record under test is the second of its list, after a valid
# one, so the path carries index 1.
_RECORDS = {
    "vertices": {"id": "v1", "genus": 1},
    "edges": {"id": "e1", "tail": "v0", "tip": "v1", "thickness": 2, "stabilizer": 1},
}
_STRING_FIELDS = ("id", "tail", "tip")
_LEAST = {"genus": (-1, "must be nonnegative"), "thickness": (0, "must be >= 1"),
          "stabilizer": (0, "must be >= 1")}
_NOT_OF_TYPE = (("number", 1.0), ("null", None), ("array", []), ("object", {}))
_NOT_AN_OBJECT = (("array", []), ("string", "v1"), ("integer", 1), ("number", 1.5),
                  ("null", None), ("boolean", False))


def _corruptions():
    """(case id, section, record, the expected message)."""
    out = []
    for section, base in _RECORDS.items():
        path = f"{section}[1]"
        for field in base:
            kind = "string" if field in _STRING_FIELDS else "integer"
            where = f"{path}.{field}"

            def case(label, value, message):
                out.append((f"{section}-{field}-{label}", section,
                            dict(base, **{field: value}), message))

            if field in _STRING_FIELDS:
                out.append((f"{section}-{field}-missing", section,
                            {k: v for k, v in base.items() if k != field},
                            f"{where}: required field is missing"))
                case("wrong-type", 3, f"{where}: expected string, got integer")
            else:
                case("wrong-type", "3", f"{where}: expected integer, got string")
                case("huge-wrong-type", "9" * 100, f"{where}: expected integer, got string")
                least, why = _LEAST[field]
                case("below-least", least, f"{where}: {why}")
                case("far-below-least", -(10 ** 300), f"{where}: {why}")
            case("boolean", True, f"{where}: expected {kind}, got boolean")
            for got, value in _NOT_OF_TYPE:
                case(got, value, f"{where}: expected {kind}, got {got}")
        out.append((f"{section}-unknown-key", section, dict(base, colour="red"),
                    f"{path}.colour: unknown field"))
        for got, value in _NOT_AN_OBJECT:
            out.append((f"{section}-record-is-{got}", section, value,
                        f"{path}: expected object, got {got}"))
    # Several faults in one record: unknown keys come first, then the
    # required fields in the order id, tail, tip, then the types and the
    # bounds field by field.
    out += [
        ("vertices-unknown-before-missing", "vertices", {"colour": 1},
         "vertices[1].colour: unknown field"),
        ("vertices-id-before-genus", "vertices", {"id": 1, "genus": -1},
         "vertices[1].id: expected string, got integer"),
        ("edges-missing-before-types", "edges", {"id": 3, "tail": "v0"},
         "edges[1].tip: required field is missing"),
        ("edges-tail-before-tip", "edges", {"id": "e1", "tail": None, "tip": 1},
         "edges[1].tail: expected string, got null"),
        ("edges-thickness-before-stabilizer", "edges",
         {"id": "e1", "tail": "v0", "tip": "v1", "thickness": 0, "stabilizer": "x"},
         "edges[1].thickness: must be >= 1"),
        ("edges-unknown-before-all", "edges", {"thickness": True, "x": 1},
         "edges[1].x: unknown field"),
    ]
    return out


_CORRUPTIONS = _corruptions()


class TestRecordMessages:
    """The message for each malformed vertex or edge record, pinned."""

    @staticmethod
    def document(section, record):
        doc = {"r": 2, "vertices": [{"id": "v0"}, dict(_RECORDS["vertices"])],
               "edges": [{"id": "e0", "tail": "v0", "tip": "v1"}, dict(_RECORDS["edges"])]}
        doc[section][1] = record
        return doc

    @pytest.mark.parametrize("section,record,message", [c[1:] for c in _CORRUPTIONS],
                             ids=[c[0] for c in _CORRUPTIONS])
    def test_message(self, section, record, message):
        from nerongraph import ParseError

        with pytest.raises(ParseError) as exc:
            parse_input_document(self.document(section, record))
        assert str(exc.value) == message

    def test_valid_records_pass(self):
        name, data = parse_input_document(self.document("edges", _RECORDS["edges"]))
        g = data.graph
        assert g.thicknesses[g.edge_index("e1")] == 2 and g.genera[g.vertices.index("v1")] == 1

    def test_python_subclasses_still_accepted(self):
        # Callers in Python may pass subclasses of the JSON types, as
        # before: a str subclass id, an IntEnum thickness, an OrderedDict.
        import collections
        import enum

        class Id(str):
            pass

        class Two(enum.IntEnum):
            TWO = 2

        doc = self.document("edges", collections.OrderedDict(
            id=Id("e1"), tail="v0", tip="v1", thickness=Two.TWO))
        doc["vertices"][1] = collections.OrderedDict(id=Id("v1"), genus=Two.TWO)
        _, data = parse_input_document(doc)
        g = data.graph
        assert g.thicknesses[g.edge_index("e1")] == 2 and g.genera[g.vertices.index("v1")] == 2


# Strings of the characters that json.dumps escapes, writes as \u
# escapes or as pairs of them, and strings of any code points, lone
# surrogates included; integers of up to several hundred digits.
_STRINGS = st.one_of(
    st.text(st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a",
                             "\u00e9", "\u20ac", "\u2028", "\U0001f600", "\U0010ffff",
                             "\ud800", "\udfff"]), max_size=8),
    st.text(st.characters(exclude_categories=()), max_size=8))
_INTS = st.one_of(st.integers(-3, 3), st.integers(-(10 ** 400), 10 ** 400))


@st.composite
def report_documents(draw):
    """Report documents shaped as report_document writes them (the
    banana's, with every leaf drawn again); the multidegree is left out
    or keyed by the drawn vertex ids."""
    name, data = parse_input_document(BANANA_DOC)
    shape = report_document(name, data, analyze(data))

    def leaf(value):
        if isinstance(value, dict):
            return {k: leaf(v) for k, v in value.items()}
        if isinstance(value, list) and value and isinstance(value[0], dict):
            return [leaf(value[0]) for _ in range(draw(st.integers(0, 4)))]
        if isinstance(value, list):
            return draw(st.lists(_INTS, max_size=4))
        if isinstance(value, str):
            return draw(_STRINGS)
        if value is None or isinstance(value, bool):
            return draw(st.sampled_from([True, False, None]))
        return draw(_INTS)

    doc = leaf(shape)
    given = doc["input"]
    del given["multidegree"]
    if draw(st.booleans()):
        given["multidegree"] = {v["id"]: draw(_INTS) for v in given["vertices"]}
    return doc


def _records(doc):
    """The objects of a document, as far as mutations left them objects:
    the document, its vertex and edge records and its multidegree."""
    out = [doc]
    for section in ("vertices", "edges"):
        if isinstance(doc.get(section), list):
            out += [rec for rec in doc[section] if isinstance(rec, dict)]
    if isinstance(doc.get("multidegree"), dict):
        out.append(doc["multidegree"])
    return out


_MUTATIONS = ("drop", "retype", "negative", "huge", "unknown-id", "duplicate-id",
              "disconnected", "r=0")


@st.composite
def mutated_documents(draw):
    """A valid analyze document on at most 6 vertices (a random tree,
    up to four more edges, random decorations, maybe a multidegree), then
    one to three mutations: a field dropped or retyped, an integer made
    negative or huge, an edge end or multidegree key that names no
    vertex, an id repeated, an isolated vertex added, r set to 0."""
    n = draw(st.integers(1, 6))
    vertices = [{"id": f"v{i}", "genus": draw(st.integers(0, 2))} for i in range(n)]
    ends = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=4))
    edges = [{"id": f"e{k}", "tail": f"v{a}", "tip": f"v{b}",
              "thickness": draw(st.integers(1, 4)), "stabilizer": draw(st.integers(1, 2))}
             for k, (a, b) in enumerate(pairs)]
    doc = {"name": "fuzz", "r": draw(st.integers(1, 6)), "m1": 1,
           "vertices": vertices, "edges": edges}
    if draw(st.booleans()):
        degrees = [draw(st.integers(-3, 3)) for _ in range(n)]
        degrees[0] -= sum(degrees) % doc["r"]
        doc["multidegree"] = {v["id"]: d for v, d in zip(vertices, degrees)}
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        record = draw(st.sampled_from(_records(doc)))
        if mutation in ("drop", "retype") and record:
            key = draw(st.sampled_from(sorted(record)))
            if mutation == "drop":
                del record[key]
            else:
                record[key] = draw(st.sampled_from(["x", 1.5, None, True, [], {}, [1], "2"]))
        elif mutation in ("negative", "huge"):
            fields = [(rec, key) for rec in _records(doc) for key in sorted(rec)
                      if type(rec[key]) is int]
            if fields:
                record, key = draw(st.sampled_from(fields))
                record[key] = (-draw(st.integers(1, 10 ** 30)) if mutation == "negative" else
                               draw(st.sampled_from([2 ** 63, 10 ** 40, 10 ** 300, 10 ** 4000])))
        elif mutation == "unknown-id":
            if "tail" in record:
                record[draw(st.sampled_from(["tail", "tip"]))] = "nowhere"
            else:
                doc["multidegree"] = {"nowhere": 0}
        elif mutation == "duplicate-id":
            section = doc.get(draw(st.sampled_from(["vertices", "edges"])))
            if isinstance(section, list) and section:
                section.append(copy.deepcopy(draw(st.sampled_from(section))))
        elif mutation == "disconnected" and isinstance(doc.get("vertices"), list):
            doc["vertices"].append({"id": "lonely"})
        elif mutation == "r=0":
            doc["r"] = 0
    return doc


class TestFuzzedDocuments:
    """Every mutated document is analysed or refused with one line."""

    @settings(max_examples=200, deadline=None)
    @given(doc=mutated_documents(), machine=st.booleans(),
           r=st.one_of(st.none(), st.integers(1, 12)))
    def test_answers_or_refuses_in_one_line(self, tmp_path_factory, doc, machine, r):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", str(path)] + (["--format", "machine"] if machine else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ([] if r is None else ["--r", str(r)]))
        assert code in (0, 2)
        if code == 0:
            assert err.getvalue() == "" and out.getvalue()
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestMachineText:
    """The machine report writer against json.dumps at indent 2."""

    @settings(max_examples=150, deadline=None)
    @given(report_documents())
    def test_equals_json_dumps(self, doc):
        assert _machine_text(doc) == json.dumps(doc, indent=2)

    def test_edge_cases(self):
        name, data = parse_input_document(dict(BANANA_DOC, name='a"\\\x01\u00e9\U0001f600'))
        doc = report_document(name, data, analyze(data))
        cases = [doc]
        for change in (
            {"vertices": [], "edges": []},
            {"edges": []},
            {"name": "", "r": 10 ** 500, "m1": -(10 ** 300)},
        ):
            cases.append(dict(doc, input=dict(doc["input"], **change)))
        no_multidegree = dict(doc["input"])
        del no_multidegree["multidegree"]
        cases.append(dict(doc, input=no_multidegree))
        cases.append(dict(doc, report=dict(doc["report"], phi=[], phi_r=[],
                                            torsor_neron_finite=None,
                                            group_neron_finite=None)))
        for case in cases:
            assert _machine_text(case) == json.dumps(case, indent=2)


class TestTable:
    EXPECTED_R4 = """\
r = 4

fixture             c  t  m1  m2  m3
loop                1  1   1   4   4
banana              2  1   1   2   4
square              4  1   1   1   4
theta-fan           2  1   1   2   4
two-squares-bridge  4  1   1   1   4
grid                2  1   1   2   4
"""

    def test_r4_byte_identical(self, capsys):
        assert main(["table", "--r", "4"]) == 0
        first = capsys.readouterr().out
        assert first == self.EXPECTED_R4
        assert main(["table", "--r", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_default_r_is_4(self, capsys):
        assert main(["table"]) == 0
        assert capsys.readouterr().out == self.EXPECTED_R4

    def test_r8_rows(self, capsys):
        assert main(["table", "--r", "8"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()[3:]]
        m2m3 = [(int(r[-2]), int(r[-1])) for r in rows]
        assert m2m3 == [(8, 8), (4, 8), (2, 8), (4, 8), (2, 8), (4, 8)]

    def test_r6_rejected(self, capsys):
        assert main(["table", "--r", "6"]) == 2
        assert "multiple of 4" in capsys.readouterr().err


_COUNTS_BY_EDGES = (
    "edges=0: 1 graph\n"
    "edges=1: 2 graphs\n"
    "edges=2: 4 graphs\n"
    "edges=3: 11 graphs\n"
    "edges=4: 30 graphs\n"
    "edges=5: 95 graphs\n"
)


class TestVerifyLemma:
    @pytest.mark.parametrize("max_edges,max_q,expected", [
        (6, 6, _COUNTS_BY_EDGES + "edges=6: 328 graphs\n"
         "checked 471 graphs x q <= 6: 2826 criterion triples, 0 counterexamples\n"),
        (5, 12, _COUNTS_BY_EDGES
         + "checked 143 graphs x q <= 12: 1716 criterion triples, 0 counterexamples\n"),
    ], ids=["6-6", "5-12"])
    def test_summary_byte_identical(self, capsys, max_edges, max_q, expected):
        argv = ["verify-lemma", "--max-edges", str(max_edges), "--max-q", str(max_q)]
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")

    def test_small_run(self, capsys):
        assert main(["verify-lemma", "--max-edges", "2", "--max-q", "2"]) == 0
        out = capsys.readouterr().out
        assert "edges=2: 4 graphs" in out
        assert "0 counterexamples" in out

    def test_bounds_too_large(self, capsys):
        assert main(["verify-lemma", "--max-edges", "30"]) == 2
        assert "max_edges" in capsys.readouterr().err

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        import nerongraph.cli as cli
        from nerongraph.enumeration import EquivalenceReport

        fake = EquivalenceReport(max_edges=2, max_q=2)
        fake.graphs_by_edges = {1: 1}
        fake.checks = 2
        fake.counterexamples = ["made-up graph q=2: criteria disagree"]
        monkeypatch.setattr(cli, "verify_equivalence", lambda **kw: fake)
        assert main(["verify-lemma"]) == 1
        captured = capsys.readouterr()
        assert "1 counterexamples" in captured.out
        assert "made-up graph" in captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"nerongraph {__version__}"


# Argument vectors for the parsing oracle; PATH stands for the banana's file.
_ARGVS = (
    [], ["--version"], ["-h"], ["frobnicate"], ["ANALYZE"],
    ["analyze"], ["analyze", "-h"], ["table", "x"],
    ["analyze", "PATH", "--format", "bogus"], ["analyze", "PATH", "--r", "x"],
    ["analyze", "PATH", "--r"], ["analyze", "PATH", "--bogus"], ["analyze", "PATH", "-x"],
    ["analyze", "PATH", "extra"],
    ["analyze", "PATH"], ["analyze", "PATH", "--format", "machine"],
    ["analyze", "PATH", "--form", "machine"], ["analyze", "PATH", "--r", "3", "--r", "4"],
    ["analyze", "--", "PATH"], ["--", "analyze", "PATH"], ["analyze", "--r", "4", "PATH"],
    ["table"], ["table", "--r", "3"], ["table", "--r", "8"],
    ["verify-lemma", "--max-edges", "2", "--max-q", "2"], ["verify-lemma", "--max-edges"],
)


def _run(argv):
    """(exit status, stdout, stderr) of ``main(argv)``, a ``SystemExit``
    from the parser included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


class TestArgumentParsing:
    """main parses what follows a subcommand's name with that
    subcommand's parser; the full parser alone is the reference."""

    @pytest.mark.parametrize("argv", _ARGVS, ids=[" ".join(a) or "no-arguments" for a in _ARGVS])
    def test_same_as_the_full_parser(self, tmp_path, monkeypatch, argv):
        import nerongraph.cli as cli

        path = write(tmp_path, BANANA_DOC)
        argv = [path if a == "PATH" else a for a in argv]
        got = _run(argv)
        full = cli.build_parser()
        full.subcommands = {}  # no subcommand's parser is used alone
        monkeypatch.setattr(cli, "_parser", lambda: full)
        assert got == _run(argv)

    def test_only_a_leftover_reaches_the_full_parser(self, tmp_path, monkeypatch):
        import nerongraph.cli as cli

        full, seen = cli._parser(), []
        parse_args = full.parse_args
        monkeypatch.setattr(full, "parse_args", lambda argv: seen.append(argv) or parse_args(argv))
        path = write(tmp_path, BANANA_DOC)
        assert _run(["analyze", path, "--r", "2"])[0] == 0 and seen == []
        assert _run(["analyze", path, "extra"])[0] == 2
        assert seen == [["analyze", path, "extra"]]
