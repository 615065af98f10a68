"""Every functools cache in flc is bounded by ``hfuncs._CACHE_SIZE``, so a
long-running process that visits many shapes cannot grow without limit."""

import importlib
import pkgutil

import flc
from flc.hfuncs import _CACHE_SIZE


def _caches() -> dict:
    """Each module-level functools cache of every flc module, by
    module.name, counted once in the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(flc.__path__):
        module = importlib.import_module(f"flc.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def test_every_cache_is_bounded():
    caches = _caches()
    assert {
        "hfuncs._fp_cached",
        "hfuncs._a_free_series",
        "hfuncs._elementary",
        "hfuncs.h",
        "characters._raw_entry",
        "characters._alt_entry",
        "characters._denominator_info",
        "characters._z_basis",
        "characters._weyl_quotient",
        "characters._flagged_minors",
        "characters._coefficient_minors",
    } <= set(caches)
    for name, fn in caches.items():
        assert fn.cache_parameters()["maxsize"] == _CACHE_SIZE, name
