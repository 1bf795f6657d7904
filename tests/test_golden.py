"""Byte-identity of machine reports against committed goldens.

The goldens under ``tests/golden/`` are the ``analyze --format machine``
output for every document in ``demos/data/`` and for the six built-in
graphs at uniform thickness 1 (r = 4) and 3 (r = 6), each with a
multidegree.  A change that alters any byte of any report fails here.

After a deliberate change to the report format, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from nerongraph import paper_fixtures
from nerongraph.cli import main

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"
DEMO_DATA = sorted((ROOT / "demos" / "data").glob("*.json"))
# Uniform thickness and the r it is analysed at.
THICKNESSES = ((1, 4), (3, 6))


def fixture_document(name, graph, thickness, r):
    """An input document for a built-in graph with every edge of the
    given thickness and a fixed multidegree of total divisible by r."""
    degrees = [(i % 3) - 1 for i in range(graph.n_vertices)]
    degrees[0] -= sum(degrees) % r
    return {
        "name": f"{name}-thickness-{thickness}",
        "r": r,
        "vertices": [{"id": v, "genus": genus} for v, genus in zip(graph.vertices, graph.genera)],
        "edges": [
            {"id": e.id, "tail": e.tail, "tip": e.tip, "thickness": thickness}
            for e in graph.edges
        ],
        "multidegree": dict(zip(graph.vertices, degrees)),
    }


def cases():
    """(golden file name, input document text) for every pinned report."""
    out = [(f"demo-{path.stem}.json", path.read_text()) for path in DEMO_DATA]
    for thickness, r in THICKNESSES:
        for name, graph in paper_fixtures():
            doc = fixture_document(name, graph, thickness, r)
            out.append((f"{doc['name']}.json", json.dumps(doc)))
    return out


def machine_report(tmp_dir, text):
    path = pathlib.Path(tmp_dir) / "input.json"
    path.write_text(text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(["analyze", str(path), "--format", "machine"])
    assert status == 0
    return stdout.getvalue()


CASES = cases()


def test_every_case_has_a_golden():
    assert len(CASES) == len(DEMO_DATA) + 12
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(n for n, _ in CASES)


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_is_canonical_json(golden):
    # The pinned bytes are what json.dumps writes at indent 2, whatever
    # writes the reports.
    text = (GOLDEN / golden).read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("golden,text", CASES, ids=[n for n, _ in CASES])
def test_report_byte_identical(tmp_path, golden, text):
    assert machine_report(tmp_path, text) == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden", [n for n, _ in CASES])
def test_echo_round_trip_byte_identical(tmp_path, golden):
    # Re-analysing the normalised input a report echoes gives that
    # report again, byte for byte.
    pinned = (GOLDEN / golden).read_text()
    echo = json.dumps(json.loads(pinned)["input"])
    assert machine_report(tmp_path, echo) == pinned


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for golden, text in CASES:
            (GOLDEN / golden).write_text(machine_report(tmp, text))
    print(f"wrote {len(CASES)} goldens to {GOLDEN}", file=sys.stderr)
