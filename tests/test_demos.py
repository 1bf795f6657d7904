"""The demo scripts must run clean end to end, and print exactly what
they printed when their goldens were written.

Each demo's stdout is pinned under ``tests/golden/`` as
``demo-<script stem>.txt``, with demo 05's wall time masked.  After a
deliberate change to what a demo prints, regenerate them with

    PYTHONPATH=src python tests/test_demos.py
"""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden"


def demo_output(script):
    """The demo's stdout with every ``in X.XXs`` timing masked, after
    checking that it exits 0."""
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return re.sub(r"\bin \d+\.\d+s\b", "in X.XXs", result.stdout)


def golden_path(script):
    return GOLDEN / f"demo-{script.stem}.txt"


def test_demos_exist():
    assert len(DEMOS) == 5
    assert sorted(p.name for p in GOLDEN.glob("demo-*.txt")) == sorted(
        golden_path(s).name for s in DEMOS
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    out = demo_output(script)
    assert out.strip()
    assert out == golden_path(script).read_text()


def test_cli_reads_shipped_data_files():
    from nerongraph.cli import main

    data = pathlib.Path(__file__).parent.parent / "demos" / "data"
    for doc in sorted(data.glob("*.json")):
        assert main(["analyze", str(doc)]) == 0


def test_readme_quick_start_prints_what_its_comments_say():
    # Each ``expr  # value`` line of the README's Python block, with any
    # note in parentheses after the value dropped, must hold.
    from nerongraph import AbelianGroup

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    namespace = {}
    exec(block, namespace)
    checks = re.findall(r"^(\S.*?) +# (.*)$", block, flags=re.M)
    for expr, comment in checks:
        expected = eval(comment.split(" (")[0], {"AbelianGroup": AbelianGroup})
        assert eval(expr, namespace) == expected, expr
    assert [expr for expr, _ in checks] == [
        "report.group_neron_finite", "report.torsor_neron_finite", "report.phi",
        "report.m2, report.m3",
    ]


def test_readme_command_lines_run(monkeypatch):
    # Each ``nerongraph ...`` line of the README's command line block,
    # without its comment and its ``| jq`` pipe, exits 0 from the root.
    from nerongraph.cli import main

    root = pathlib.Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    (block,) = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", readme, flags=re.M | re.S)
    argvs = [shlex.split(re.split(r" +[#|]", line)[0])[1:]
             for line in block.splitlines() if line.startswith("nerongraph ")]
    monkeypatch.chdir(root)
    for argv in argvs:
        try:
            status = main(argv)
        except SystemExit as exc:  # --version
            status = exc.code
        assert status == 0, argv
    assert ["analyze", "demos/data/thick_banana.json", "--r", "6"] in argvs
    assert ["--version"] in argvs and len(argvs) == 6


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for script in DEMOS:
        golden_path(script).write_text(demo_output(script))
    print(f"wrote {len(DEMOS)} demo goldens to {GOLDEN}", file=sys.stderr)
