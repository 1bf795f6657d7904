"""Benchmark for nerongraph.

    python3 bench/run.py --workload analyze-random --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh child process (child.py),
until the next pass would end after ``--seconds``; at least one pass
runs.  Every pass of a seed gets the same inputs.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it runs every pass
twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  End-to-end times are scaled to a reference host
speed, gauged between the calls by a fixed kernel (calibrate.py), so
that the shared host's slow spells cancel.  Progress and a table of
every metric with its unit and sample count go to stdout; the last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import VERIFY_TOTAL_GRAPHS  # noqa: E402

WORKLOADS = ("analyze-random", "analyze-thick", "verify-lemma")
# run.py must end within 180 s even when a pass hangs.
DEADLINE_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, index: int, trace: bool, workdir: Path,
              deadline: float) -> dict:
    """One pass in a fresh interpreter; adds its set-up time, measured
    from the spawn to the end of the warm-up, in wall seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="")
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(index),
            "1" if trace else "0", str(workdir)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(0.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"pass {index} ran past the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_wall_s"] = result["setup_end_monotonic"] - spawned
    return result


def percentile(values: list[float], tenth: int) -> float:
    """Decile number ``tenth`` (9 gives p90), or the only value when there
    is one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[tenth - 1]


def per_input_ms(passes: list[dict], scaled: bool) -> list[float]:
    """Each input's median time over the passes, in ms; with ``scaled``,
    each call's wall time is first scaled to the reference speed by the
    calibration blocks around it (calibrate.py)."""
    times = [[t * (k if scaled else 1.0) for t, k in zip(p["latencies_s"], p["scales"])]
             for p in passes]
    return [statistics.median(column) * 1e3 for column in zip(*times)]


def end_to_end(workload: str, passes: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Metric name -> (value, unit, sample count).

    Every pass times the same inputs.  Each input's time is its median
    over the passes, at the reference speed.  Latencies are percentiles
    of those per-input times; throughput is inputs (graphs, for
    verify-lemma) over their sum.
    """
    ms = per_input_ms(passes, scaled=True)
    items = VERIFY_TOTAL_GRAPHS if workload == "verify-lemma" else len(ms)
    n = len(passes)
    return {
        "items_per_s": (items / sum(ms) * 1e3, "1/s", n),
        "latency_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "latency_p90_ms": (percentile(ms, 9), "ms", len(ms)),
        "setup_s": (statistics.median(p["setup_wall_s"] * p["setup_scale"] for p in passes),
                    "s", n),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB", n),
    }


def host_speed(workload: str, passes: list[dict]) -> list[str]:
    """Unscaled figures and the host's speed, for the human reader."""
    wall = per_input_ms(passes, scaled=False)
    scales = [k for p in passes for k in p["scales"]]
    return [
        f"{workload:<15} {'wall latency_p50_ms (unscaled)':<48} {statistics.median(wall):>14.6g} ms",
        f"{workload:<15} {'wall latency_p90_ms (unscaled)':<48} {percentile(wall, 9):>14.6g} ms",
        f"{workload:<15} {'host slowness vs reference (min/median/max)':<48} "
        f"{1 / max(scales):.3f} / {1 / statistics.median(scales):.3f} / {1 / min(scales):.3f}",
    ]


LAYER_UNITS = {"self_s": "s", "hit_ratio": "ratio", "max_bits": "bits"}


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics averaged over the traced passes (max_bits: the
    largest), and the traced over the untraced timed time, both at the
    reference speed, minus 1."""
    n = len(traced)
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        value = max(values) if name.endswith(".max_bits") else sum(values) / len(values)
        metrics[name] = (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "count"), n)
    overhead = (sum(per_input_ms(traced, scaled=True))
                / sum(per_input_ms(plain, scaled=True)) - 1)
    metrics["trace.overhead_frac"] = (overhead, "ratio", n)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nerongraph" / "cli.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)

    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    started = time.monotonic()
    deadline = started + DEADLINE_S
    try:
        while True:
            index = len(plain)
            passdir = workdir / f"pass-{index}"
            plain.append(run_child(args.workload, args.seed, index, False, passdir, deadline))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, index, True, passdir, deadline))
            elapsed = time.monotonic() - started
            print(f"pass {index}: {sum(plain[-1]['latencies_s']):.3f} s timed, "
                  f"{elapsed:.1f} s elapsed", flush=True)
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for p in plain + traced:
        problems += p["failures"]
        if p["output_digest"] != plain[0]["output_digest"]:
            problems.append("a pass printed other bytes than the first pass")
        if not p["reference_ok"]:
            problems.append(f"reference digest {p['reference_digest']} is not the pinned one")
    for missing in sorted({m for p in traced for m in p["missing_layers"]}):
        print(f"note: {missing} no longer exists; its layer metrics are dropped")
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}")

    metrics = per_layer(plain, traced) if args.trace else end_to_end(args.workload, plain)
    for line in host_speed(args.workload, plain):
        print(line)
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:<15} {name:<48} {value:>14.6g} {unit:<6} n={samples}")
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in plain + traced),
        "failed": sum(len(p["failures"]) for p in plain + traced),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
