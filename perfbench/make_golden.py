"""Build golden.json: the digest of every benchmark cell's canonical text.

Run from the repository root:  python3 perfbench/make_golden.py

It computes all four routes (raw ratio, h-alternant ratio, flagged
Jacobi-Trudi, tableau sum) on the criterion-1 grid (GL/SP/OO/EO,
n <= 3, parts <= 3) and on the rank-4 point, and refuses to write
anything unless the four routes agree on every shape.  It also records
the ``verify`` workload's stdout and exit code.  A digest is the
SHA-256 of ``poly_to_str`` text, which is what a pass compares.
"""

from __future__ import annotations

import json
import os
import sys

import passrun
import run
import workloads

sys.path.insert(0, str(passrun.ROOT / "src"))


def main() -> int:
    os.environ.pop("FLC_THREADS", None)
    digests, texts = {}, {}
    shapes = [(g, n, lam) for g in workloads.BASE_GROUPS for n in (1, 2, 3) for lam in workloads.shapes(n, 3)]
    shapes.append(("sp", 4, (2, 2, 2, 2)))
    for g, n, lam in shapes:
        seen = {}
        for route in workloads.ROUTES:
            text = passrun.render(route, passrun.route_call(route, g, n, lam)())
            seen[route] = text
            digests[workloads.cell_key(g, n, lam, route)] = passrun.digest(text)
        if len(set(seen.values())) != 1:
            raise SystemExit(f"routes disagree on {g} n={n} lambda={lam}; nothing written")
        print(f"{g} n={n} lambda={lam}: {len(next(iter(seen.values())))} chars, four routes agree", flush=True)
    result = passrun.route_call("verify", None, None, None)()
    text = passrun.render("verify", result)
    if result[0] != 0:
        raise SystemExit(f"verify failed at the seed:\n{text}")
    digests[workloads.VERIFY_KEY] = passrun.digest(text)
    texts[workloads.VERIFY_KEY] = text
    doc = {"host": run.host_info(), "digests": digests, "texts": texts}
    passrun.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {passrun.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
