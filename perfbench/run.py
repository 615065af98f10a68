"""flc benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ratio-grid --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh interpreter (``passrun.py``),
one at a time, so flc's caches start empty as in every ``flc``
invocation.  With ``--trace 0`` the run makes setup probes and then
untraced passes until ``--seconds`` is used, and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced pass and two traced
passes, checks that the traced counts repeat exactly, and prints the
per-layer metrics.  The last stdout line is one JSON object; the exit
code is 0 only when every cell matched its golden digest.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0
SETUP_PROBES = 7
COUNT_SUFFIXES = (".calls", ".mono_muls", ".terms_copied", ".terms_in", ".terms_out", ".tableaux", ".misses", ".currsize")


class PassFailed(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD's commit, read from .git directly; "none" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def host_info() -> str:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return (
        f"host={platform.node()} nproc={os.cpu_count()} python={platform.python_version()} "
        f"git={git_sha()} src_sha256={src.hexdigest()[:16]}"
    )


def run_pass(workload: str, seed: int, index: int, mode: str, corrupt: int, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLC_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-s", str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--mode", mode, "--corrupt", str(corrupt)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass {index} ran past the {HARD_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass {index} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    out["pass_s"] = time.monotonic() - spawned
    return out


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setups: list) -> dict:
    cells_ms = [s * 1000.0 for p in passes for s in p["cell_s"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cell_p50_ms": (statistics.median(cells_ms), "ms"),
        "cell_p90_ms": (percentile(cells_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(untraced: dict, traced: list) -> tuple:
    """Median per-layer metrics of the traced passes, and the counts that differ."""
    first = traced[0]["layers"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES) or k == "results.terms"]
    unstable = [k for k in counts if any(t["layers"][k] != first[k] for t in traced[1:])]
    out = {}
    for name in first:
        if name == "results.terms":
            continue
        unit = "s" if name.endswith("_s") else "frac" if name == "trace.coverage" else "count"
        out[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    return out, unstable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, default=-1,
                    help="negative control: corrupt this cell of the first timed pass")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flc" / "__init__.py").is_file() or not (HERE / "golden.json").is_file():
        print(f"error: {ROOT} holds no flc sources or no golden table", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    info = host_info()

    def one(index, mode, corrupt=-1):
        return run_pass(args.workload, args.seed, index, mode, corrupt, deadline)

    try:
        one(0, "setup")  # warm-up: byte-compiles flc, not counted
        if args.trace:
            passes = [one(0, "time", args.corrupt), one(1, "trace"), one(2, "trace")]
            metrics, unstable = per_layer(passes[0], passes[1:])
        else:
            setups = [one(0, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
            measure = time.monotonic()
            passes = [one(0, "time", args.corrupt)]
            while time.monotonic() - measure + max(p["pass_s"] for p in passes) <= args.seconds:
                passes.append(one(len(passes), "time"))
            metrics, unstable = end_to_end(passes, setups + [p["setup_s"] for p in passes]), []
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = [key for p in passes for key in p["failed"]]
    for key in failed:
        print(f"FAIL {key}", file=sys.stderr)
    for key in unstable:
        print(f"NONDETERMINISTIC {key}: differs between traced passes", file=sys.stderr)
    correct = not failed and not unstable
    print(f"# {info}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"cells={attempted} fail_frac={len(failed) / attempted:g} run_s={time.monotonic() - started:.1f}")
    if not args.trace:
        print(f"# samples: wall_s {len(passes)} passes, cell_* {attempted} cells, "
              f"setup_s {SETUP_PROBES + len(passes)} starts")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
