"""Source rules that no other test would catch."""

import ast
import importlib
import inspect
import pathlib
import re
import types

import nerongraph
from nerongraph import errors

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "nerongraph"


def test_no_assert_statements_in_the_package():
    # Checks must survive ``python -O``, which strips assert statements.
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.rglob("*.py")) and found == []


def _caller_sources() -> list[str]:
    """The demos, and the Python code blocks of the README."""
    demos = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    return demos + blocks


def test_public_surface_is_what_callers_import():
    imported = {
        alias.name
        for source in _caller_sources()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "nerongraph" and node.level == 0
        for alias in node.names
    }
    error_classes = {
        name for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.NeronGraphError)
    }
    assert "MultiGraph" in imported and "NeronGraphError" in error_classes
    assert set(nerongraph.__all__) == imported | error_classes | {"AbelianGroup", "AnalysisReport"}
    assert len(nerongraph.__all__) == len(set(nerongraph.__all__))

    others = {
        name for name, value in vars(nerongraph).items()
        if not name.startswith("_") and name not in nerongraph.__all__
        and not isinstance(value, types.ModuleType)
    }
    assert others == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    # A name with a leading underscore belongs to its own module: another
    # module in the package neither imports it nor reads it as module._name.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = importlib.import_module("." * node.level + (node.module or ""),
                                               "nerongraph")
                modules.update(a.asname or a.name for a in node.names
                               if isinstance(getattr(base, a.name, None), types.ModuleType))
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if _private(a.name)]
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert found == []


def test_every_public_class_member_has_a_caller():
    # A public method or property of a class in the package is read, as
    # ``.name``, by the package, a demo, a README code block or the
    # benchmark, outside its own definition; what only the tests read
    # belongs in the tests.  A method counts only where it is called, so
    # that ``report.genus``, a field, does not stand for a genus method.
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    others = [ast.parse(source) for source in _caller_sources()]
    others += [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    members = [
        (cls.name, member)
        for tree in modules
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]
    nodes = [node for tree in modules + others for node in ast.walk(tree)]
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    reads = [node for node in nodes
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for cls, member in members:
        is_property = any(isinstance(d, ast.Name) and d.id == "property"
                          for d in member.decorator_list)
        inside = {id(node) for node in ast.walk(member)}
        if not any(node.attr == member.name and id(node) not in inside
                   and (is_property or id(node) in called) for node in reads):
            unread.append(f"{cls}.{member.name}")
    assert members
    assert unread == [], "only the tests read " + ", ".join(unread)


def _starts(node: ast.AST, prefix: str) -> bool:
    """Whether ``node`` is a string, or an f-string, that starts with
    ``prefix``."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(prefix))


def test_only_main_writes_error_lines():
    # A command refuses its input or output by raising NeronGraphError,
    # and main's one handler writes the error line: no other code in the
    # command line front end holds an "error: " string or names stderr,
    # except the counterexample lines of verify-lemma.
    tree = ast.parse((SRC / "cli.py").read_text())
    found, handlers = [], None
    for stmt in tree.body:
        name = getattr(stmt, "name", "module")
        if name == "main":
            handlers = [n for n in ast.walk(stmt) if isinstance(n, ast.ExceptHandler)]
            continue
        allowed = {
            id(kw.value)
            for node in ast.walk(stmt)
            if name == "cmd_verify_lemma" and isinstance(node, ast.Call) and node.args
            and _starts(node.args[0], "counterexample: ")
            for kw in node.keywords
        }
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and _starts(node, "error: "):
                found.append(f"{name}:{node.lineno} holds an error: string")
            elif (isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr"
                  and id(node) not in allowed):
                found.append(f"{name}:{node.lineno} names sys.stderr")
    assert found == []
    assert handlers is not None and len(handlers) == 1
