"""Source rules that no other test would catch."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "nerongraph"


def test_no_assert_statements_in_the_package():
    # Checks must survive ``python -O``, which strips assert statements.
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.rglob("*.py")) and found == []
