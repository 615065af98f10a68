"""The library holds only what it runs.

Every module-level function or class in ``src/flc`` must be referenced
somewhere in ``src/flc``, as a name, an attribute or an import alias;
``flc/__init__``'s re-exports count.  A reference that only the tests
need belongs in ``tests/oracles.py``.

Exempt until the benchmark's tracer no longer pins them: the names that
``perfbench/tracing.py`` wraps (the module is loaded by path, as in
``test_trace_names.py``) and the whole of ``flc/series.py``.
"""

import ast
import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "flc"
_TRACING = _ROOT / "perfbench" / "tracing.py"
_EXEMPT_MODULES = {"series"}


def _traced_names() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(m, a) for m, a, _ in (*module.FUNCTION_LAYERS, *module.CACHES)}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_SRC.glob("*.py"))}


def _definitions(trees: dict) -> set:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
    }


def _references(trees: dict) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _unreferenced(trees: dict, exempt: set) -> list:
    used = _references(trees)
    return sorted(
        f"{module}.{name}"
        for module, name in _definitions(trees)
        if name not in used and module not in _EXEMPT_MODULES and (module, name) not in exempt
    )


def test_every_library_definition_is_referenced_in_the_library():
    # The guard itself first: it must see a definition nothing references.
    fake = {
        "polyring": ast.parse("def used():\n    pass\n\ndef spare():\n    pass\n"),
        "cli": ast.parse("from .polyring import used\n"),
        "series": ast.parse("def series_spare():\n    pass\n"),
    }
    assert _unreferenced(fake, set()) == ["polyring.spare"]
    assert _unreferenced(_trees(), _traced_names()) == []
