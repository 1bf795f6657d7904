import json

import pytest

from nerongraph import __version__
from nerongraph.cli import main, parse_input_document
from nerongraph.invariants import MAX_PRESENTATION_DIMENSION

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
        # parse, but their sum has more digits than str() converts.  The
        # message shows the genus cut short, or only its size.
        big = 10**4300 - 1
        for genera in ([10000], [10**400], [big, big]):
            doc = {"r": 2,
                   "vertices": [{"id": f"v{i}", "genus": x} for i, x in enumerate(genera)],
                   "edges": [{"id": f"e{i}", "tail": "v0", "tip": f"v{i}"}
                             for i in range(1, len(genera))]}
            assert main(["analyze", write(tmp_path, doc), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert "genus" in captured.err and "r = 2" in captured.err
            assert captured.out == "" and len(captured.err) < 300

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
        assert data.graph.genus("a") == 0
        assert data.graph.thickness("e") == 1
        assert data.multidegree is None

    def test_r_required(self):
        from nerongraph import ParseError

        with pytest.raises(ParseError, match="r: required"):
            parse_input_document({"vertices": [], "edges": []})


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


class TestVerifyLemma:
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
