"""The benchmark's tracer finds every flc name it wraps.

``perfbench/tracing.py`` rebinds flc functions by module and attribute
name and reads the lru_caches through ``cache_info()``; a rename in flc
would leave ``--trace 1`` silently tracing nothing.  The module is
loaded by path, so the test needs no change under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
_FUNCTIONS = [(m, a) for m, a, _ in tracing.FUNCTION_LAYERS]
_CACHES = [(m, a) for m, a, _ in tracing.CACHES]


@pytest.mark.parametrize("module, attr", _FUNCTIONS, ids=[f"{m}.{a}" for m, a in _FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"flc.{module}"), attr))


@pytest.mark.parametrize("module, attr", _CACHES, ids=[f"{m}.{a}" for m, a in _CACHES])
def test_traced_cache_has_cache_info(module, attr):
    info = getattr(importlib.import_module(f"flc.{module}"), attr).cache_info()
    assert info.currsize >= 0
