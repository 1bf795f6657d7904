"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

They check that inputs depend on the seed alone, that every input is a
valid document, that the reference outputs still match their pinned
digests, that the oracles agree with the program on small cases,
that tracing changes no output, that a traced name which no longer
exists only drops its metrics, that scaling to the reference speed
cancels the host's speed, and that run.py fails without a program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nerongraph import cli  # noqa: E402
from nerongraph.component_group import spanning_tree_count  # noqa: E402
from nerongraph.graph import thickness_subdivision  # noqa: E402

ANALYZE = ("analyze-random", "analyze-thick")
SCRATCH = ROOT / ".bench_work" / "selftest"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def write(doc: dict, name: str) -> str:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ANALYZE:
            first = json.dumps(workloads.timed_documents(workload, 7))
            self.assertEqual(first, json.dumps(workloads.timed_documents(workload, 7)))
            self.assertNotEqual(first, json.dumps(workloads.timed_documents(workload, 8)))

    def test_every_document_parses(self):
        for workload in ANALYZE:
            docs = workloads.timed_documents(workload, 1) + workloads.reference_documents(workload)
            self.assertEqual(len(docs), 108)
            for doc in docs:
                cli.parse_input_document(json.loads(json.dumps(doc)))

    def test_reference_outputs_match_pinned_digests(self):
        pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        for workload in (*ANALYZE, "verify-lemma"):
            _, _, reference = child.inputs_for(workload, 1, SCRATCH / workload)
            outputs = [child.call(cli.main, argv) for argv in reference]
            self.assertEqual(child.digest([out for _, out, _, _ in outputs]),
                             pinned[workload], workload)

    def test_tree_count_oracle_matches_program(self):
        docs = workloads.reference_documents("analyze-thick")
        docs += [workloads.fixture_document(name, 2) for name in workloads.FIXTURES]
        for doc in docs:
            _, data = cli.parse_input_document(doc)
            want = spanning_tree_count(thickness_subdivision(data.graph))
            self.assertEqual(workloads.weighted_tree_count(doc), want, doc["name"])

    def test_oracles_pass_on_program_output(self):
        for eta in workloads.FIXTURE_ETAS:
            doc = workloads.fixture_document("grid", eta)
            code, out = run_cli(["analyze", write(doc, "grid.json"), "--format", "machine"])
            self.assertEqual(code, 0)
            self.assertEqual(workloads.check_report(doc, json.loads(out)["report"]), [])
        bad = dict(json.loads(out)["report"], phi_order=1)
        self.assertTrue(workloads.check_report(doc, bad))


class Tracing(unittest.TestCase):
    def analyze_all(self, paths):
        return [run_cli(["analyze", p, "--format", "machine"]) for p in paths]

    def test_tracing_changes_no_output(self):
        docs = workloads.reference_documents("analyze-thick")
        paths = [write(doc, f"ref-{i}.json") for i, doc in enumerate(docs)]
        plain = self.analyze_all(paths)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = self.analyze_all(paths)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        totals = tracer.layer_totals()
        self.assertEqual(totals["invariants.analyze"]["calls"], len(docs))
        self.assertGreater(totals["homology.smith_normal_form"]["calls"], 0)
        self.assertEqual(self.analyze_all(paths), plain)  # uninstalled cleanly

    def test_missing_name_only_drops_its_metrics(self):
        saved = tracing.LAYERS["graph"]
        tracing.LAYERS["graph"] = saved + ("no_such_function",)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            code, _ = run_cli(["analyze", write(workloads.fixture_document("banana", 1),
                                                "banana.json"), "--format", "machine"])
        finally:
            tracer.uninstall()
            tracing.LAYERS["graph"] = saved
        self.assertEqual(code, 0)
        self.assertEqual(tracer.missing, ["graph.no_such_function"])
        self.assertNotIn("graph.no_such_function", tracer.layer_totals())
        self.assertIn("graph.thickness_subdivision", tracer.layer_totals())


class Calibration(unittest.TestCase):
    def test_kernel_is_fixed(self):
        self.assertEqual(calibrate.kernel(), calibrate.kernel())
        speed = calibrate.Speedometer()
        speed.block(0.0)
        speed.after_call(0.0)
        self.assertGreater(len(speed.blocks[0]), 0)
        self.assertGreater(sum(speed.blocks[1]), calibrate.MIN_BLOCK_S)

    def test_scaling_cancels_host_speed(self):
        ref = calibrate.REFERENCE_REP_S
        fast, slow = calibrate.Speedometer(), calibrate.Speedometer()
        fast.blocks = [[ref] * 3, [ref] * 3, [ref] * 3]
        slow.blocks = [[2 * ref] * 3, [2 * ref] * 3, [2 * ref] * 3]
        passes = [
            {"latencies_s": [0.010, 0.030], "scales": [fast.scale(0), fast.scale(1)]},
            {"latencies_s": [0.020, 0.060], "scales": [slow.scale(0), slow.scale(1)]},
            {"latencies_s": [0.010, 0.030], "scales": [fast.scale(0), fast.scale(1)]},
        ]
        self.assertEqual(run.per_input_ms(passes, scaled=True), [10.0, 30.0])
        self.assertEqual(run.per_input_ms(passes, scaled=False), [10.0, 30.0])
        passes[0]["latencies_s"] = [0.020, 0.060]
        self.assertEqual(run.per_input_ms(passes, scaled=False), [20.0, 60.0])
        self.assertEqual(run.per_input_ms(passes, scaled=True), [10.0, 30.0])


class Harness(unittest.TestCase):
    def test_fails_without_the_program(self):
        alone = SCRATCH / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(BENCH, alone / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "analyze-random",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=60)
        shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
