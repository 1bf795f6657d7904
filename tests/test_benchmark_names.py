"""The benchmark wraps program functions by name (``bench/tracing.py``
``LAYERS``) and reads the memo of ``smith_normal_form``; a name that
goes missing silently drops its per-layer metrics."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "bench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves_on_its_module():
    layers = _layers()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nerongraph.{module}"), name, None))
    ]
    assert missing == []


def test_smith_normal_form_keeps_its_memo():
    from nerongraph import homology

    info = homology.smith_normal_form.cache_info()
    assert info.hits >= 0 and info.currsize >= 0
    assert callable(homology.smith_normal_form.cache_clear)
