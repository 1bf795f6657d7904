"""One measured pass of a workload, in a fresh interpreter.

Usage: child.py WORKLOAD SEED PASS TRACE WORKDIR

Set-up writes the pass's documents, warms up on the workload's reference
documents (never on the timed ones) and checks their pinned digest.  It
then empties the ``smith_normal_form`` memo, so every timed pass starts
from the same memo state as a fresh ``nerongraph`` process.  The timed
region feeds one input at a time to ``nerongraph.cli.main`` and waits for
each verdict before sending the next (a closed loop, one caller).  A block
of the calibration kernel (calibrate.py) runs before the first call and
after every call, so run.py can scale each call to the reference speed.
The outputs are checked after the timed region.  The last stdout line is
one JSON object for run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibrate import FIRST_BLOCK_S, Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_program():
    """Import the package from the checkout's ``src``; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "nerongraph" / "cli.py").is_file():
        sys.exit(f"error: no program at {src / 'nerongraph'}")
    sys.path.insert(0, str(src))
    import nerongraph.cli
    import nerongraph.homology
    if Path(nerongraph.__file__).resolve().parent != src / "nerongraph":
        sys.exit(f"error: imported nerongraph from {nerongraph.__file__}, not {src}")
    return nerongraph.cli, nerongraph.homology


def write_documents(docs: list[dict], directory: Path) -> list[list[str]]:
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, doc in enumerate(docs):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        argvs.append(["analyze", str(path), "--format", "machine"])
    return argvs


def call(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run the CLI once; returns (exit code or None if it raised, stdout,
    stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def digest(texts: list[str]) -> str:
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


def memo_of(homology):
    """The ``lru_cache`` on ``smith_normal_form``, or None once it is gone."""
    smith = getattr(homology, "smith_normal_form", None)
    return smith if hasattr(smith, "cache_clear") else None


def inputs_for(workload: str, seed: int, workdir: Path):
    """(timed argvs, documents or None, reference argvs); every pass of a
    run gets the same inputs."""
    if workload == "verify-lemma":
        return [list(workloads.VERIFY_ARGV)], None, [
            ["verify-lemma", "--max-edges", "3", "--max-q", "3"]]
    docs = workloads.timed_documents(workload, seed)
    timed = write_documents(docs, workdir / "timed")
    reference = write_documents(workloads.reference_documents(workload),
                                workdir / "reference")
    return timed, docs, reference


def check_outputs(workload: str, docs, outputs) -> dict[int, str]:
    """Why each failed input failed: it raised, exited nonzero, wrote to
    stderr or, when ``docs`` are given, disagreed with an oracle."""
    failures = {}
    for i, (code, out, err, _) in enumerate(outputs):
        if code != 0 or err:
            failures[i] = f"exit {code}, stderr {err.strip()[-300:]!r}"
            continue
        if workload == "verify-lemma":
            found = workloads.check_verify_output(out)
        elif docs is None:
            found = []
        else:
            try:
                found = workloads.check_report(docs[i], json.loads(out)["report"])
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable report ({exc})"]
        if found:
            failures[i] = "; ".join(found)
    return failures


def layer_metrics(tracer: Tracer, memo) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name, entry in tracer.layer_totals().items():
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.calls"] = entry["calls"]
    smith = tracer.results.get("homology.smith_normal_form")
    if memo is not None:
        info = memo.cache_info()  # emptied just before the timed region
        metrics["homology.smith_normal_form.hit_ratio"] = (
            info.hits / max(1, info.hits + info.misses))
        metrics["homology.smith_normal_form.cache_entries"] = info.currsize
    if smith is not None:
        metrics["homology.smith_normal_form.max_bits"] = max(
            (d.bit_length() for _, snf in smith for d in snf.diagonal), default=0)
    subdivided = tracer.results.get("graph.thickness_subdivision")
    if subdivided is not None:
        metrics["graph.regular_model_vertices"] = sum(
            reg.n_vertices for (g, *_), reg in subdivided if reg is not g)
    graphs = tracer.results.get("enumeration.connected_multigraphs")
    if graphs is not None:
        metrics["enumeration.graphs"] = len(graphs)
    return metrics


def main() -> None:
    workload, seed, pass_index, trace, workdir = sys.argv[1:6]
    seed, pass_index, trace, workdir = int(seed), int(pass_index), trace == "1", Path(workdir)
    cli, homology = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    timed, docs, reference = inputs_for(workload, seed, workdir)
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))

    warm = [call(cli.main, argv) for argv in reference]
    reference_digest = digest([out for _, out, _, _ in warm])
    memo = memo_of(homology)
    if memo is not None:
        memo.cache_clear()

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(frozenset({"homology.smith_normal_form",
                                  "graph.thickness_subdivision",
                                  "enumeration.connected_multigraphs"}))
    setup_end = time.monotonic()
    speed = Speedometer()
    speed.block(FIRST_BLOCK_S)
    outputs = []
    for argv in timed:
        outputs.append(call(cli.main, argv))
        speed.after_call(outputs[-1][3])
    if tracer is not None:
        tracer.uninstall()

    # The oracles run on the first pass; run.py checks that later passes
    # print the same bytes.
    failures = check_outputs(workload, docs if pass_index == 0 else None, outputs)
    result = {
        "setup_end_monotonic": setup_end,
        "setup_scale": speed.first_scale(),
        "latencies_s": [seconds for *_, seconds in outputs],
        "scales": [speed.scale(i) for i in range(len(outputs))],
        "attempted": len(outputs),
        "failures": [f"input {i}: {why}" for i, why in sorted(failures.items())],
        "reference_ok": reference_digest == pinned.get(workload),
        "reference_digest": reference_digest,
        "output_digest": digest([out for _, out, _, _ in outputs]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, memo)
        result["missing_layers"] = tracer.missing
        tracer.write_spans(workdir / "spans.tsv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
