"""The benchmark's tracer finds every flc name it wraps.

``perfbench/tracing.py`` rebinds flc functions by module and attribute
name and reads the lru_caches through ``cache_info()``; a rename in flc
would leave ``--trace 1`` silently tracing nothing.  The module is
loaded by path, so the test needs no change under ``perfbench/``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TRACING = _ROOT / "perfbench" / "tracing.py"


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


# Each operator call is counted once: 1 - a reaches __sub__ through
# __rsub__, and 2 * a reaches __mul__ as __rmul__.  A __sub__ that went
# through __add__ would count every subtraction twice.
_OPERATOR_SCRIPT = f"""
import importlib.util, json
import flc.cli
from flc.polyring import px, pxb
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(_TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
a, b = px(1), pxb(2)
a - b, a + b, a * b, 2 * a, 1 - a
print(json.dumps(tracer.metrics(1.0)))
"""


def test_tracer_counts_each_operator_call_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _OPERATOR_SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["polyring.add.calls"] == 3
    assert metrics["polyring.mul.calls"] == 2
    assert metrics["polyring.add.terms_copied"] == 3
    assert metrics["polyring.mul.mono_muls"] == 2
