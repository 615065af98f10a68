"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 passrun.py --workload W --seed S --pass-index I --mode M
[--corrupt K]

Modes: ``setup`` stops where the first timed call would start, ``time``
runs the pass untraced, ``trace`` runs it under ``tracing.Tracer``.
Every flc cache starts empty, as it does in each ``flc`` invocation.
The result is one JSON line on stdout.  Each cell's digest is checked
outside its timed call; ``--corrupt K`` changes the K-th cell's result
first, as a negative control.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def route_call(route, group, n, lam):
    """A zero-argument call into flc's public API for one cell.

    Functions are looked up on their module at call time, so a traced
    pass calls the rebound wrappers.
    """
    from flc import characters, cli, tableaux

    if route == "verify":
        def run_verify():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(workloads.VERIFY_ARGV))
            return code, out.getvalue()

        return run_verify
    g = characters.Group(group)
    if route == "tableaux":
        return lambda: tableaux.tableau_sum(g, n, lam)
    spec = characters.char_spec(g, n, lam)
    fn = {
        "raw": "char_raw",
        "alternant": "char_alternant",
        "jacobi-trudi": "char_jacobi_trudi",
    }[route]
    return lambda: getattr(characters, fn)(spec)


def render(route, result) -> str:
    from flc.polyring import poly_to_str

    if route == "verify":
        code, text = result
        return f"exit {code}\n{text}"
    return poly_to_str(result)


def corrupt_result(route, result):
    if route == "verify":
        code, text = result
        return code, text + "FAIL injected\n"
    return result + 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "time", "trace"))
    ap.add_argument("--corrupt", type=int, default=-1)
    args = ap.parse_args(argv)

    os.environ.pop("FLC_THREADS", None)
    import flc.cli  # flc/__init__ imports every other flc module

    if not Path(flc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"flc was imported from {flc.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cells = workloads.pass_cells(args.workload, args.seed, args.pass_index)
    calls = [route_call(route, g, n, lam) for _, route, g, n, lam in cells]
    golden = json.loads(GOLDEN.read_text())["digests"]
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    # Each result is checked and dropped between timed calls, so peak RSS
    # is flc's own memory, not the benchmark's store of results.
    clock = time.perf_counter
    cell_s, failed, result_terms = [], [], 0
    for i, ((key, route, *_), call) in enumerate(zip(cells, calls)):
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # a raising cell counts as failed
            result = exc
        cell_s.append(clock() - t0)
        if isinstance(result, Exception):
            failed.append(f"{key}: {result!r}")
            continue
        if i == args.corrupt:
            result = corrupt_result(route, result)
        if digest(render(route, result)) != golden.get(key):
            failed.append(key)
        if route != "verify":
            result_terms += len(result.terms)
    wall_s = sum(cell_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "ready": ready,
        "wall_s": wall_s,
        "cell_s": cell_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(cells),
        "failed": failed,
    }
    if tracer is not None:
        layers = tracer.metrics(wall_s)
        layers["results.terms"] = result_terms
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
