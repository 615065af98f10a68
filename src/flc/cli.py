"""Command-line interface: characters, tableau listings, verification, dimensions.

Exit codes: 0 success, 1 usage or input error, 2 verification failure or
method disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .characters import (
    _JT_KIND,
    _RATIO_GROUPS,
    Group,
    _denominator_info,
    _flag_spec,
    char_alternant,
    char_jacobi_trudi,
    char_raw,
    char_raw_diff,
    char_raw_so_even,
    char_so_even,
    char_spec,
    character,
    dimension,
    make_partition,
    partition_length,
    shapes,
    zero_a,
)
from .hfuncs import HKind, h
from .latticepaths import lgv_signed_sum
from .polyring import (
    ZERO,
    Poly,
    X,
    XB,
    parse_var,
    poly_reduce_inverses,
    poly_substitute,
    poly_to_json,
    poly_to_str,
    px,
    pxb,
)
from .tableaux import (
    _EO_FAMILY,
    InvalidShape,
    diff_tableau_sum,
    group_tableau_sum,
    so_even_tableau_sum,
    tab_stats,
    tableau_sum,
    tableau_to_json,
    tableau_to_text,
    weighted_tableaux,
)

__all__ = ["main"]

_CANONICAL = {
    Group.GL: "gl",
    Group.SP: "sp",
    Group.OO: "so-odd",
    Group.EO: "o-even",
    Group.EO_DIFF: "o-even-diff",
    Group.SO_EVEN_PLUS: "so-even-plus",
    Group.SO_EVEN_MINUS: "so-even-minus",
}

_ALIASES = {
    "oo": Group.OO,
    "eo": Group.EO,
    "eod": Group.EO_DIFF,
    "so+": Group.SO_EVEN_PLUS,
    "so-": Group.SO_EVEN_MINUS,
}

# canonical CLI spellings first, short codes accepted as aliases
_GROUPS: Dict[str, Group] = {
    **{name: g for g, name in _CANONICAL.items()},
    **_ALIASES,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_group(name: str) -> Group:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ValueError(
            f"unknown group {name!r} (choose from {', '.join(sorted(set(_GROUPS)))})"
        ) from None


def _parse_lambda(text: str, rank: int) -> tuple:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    try:
        parts = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"--lambda wants a comma-separated integer list, got {text!r}")
    return make_partition(parts, rank)


def _parse_eval(pairs: Sequence[str]) -> dict:
    out = {}
    for item in pairs:
        name, eq, value = item.partition("=")
        try:
            if not eq or not value.lstrip("-").isdigit():
                raise ValueError
            number = int(value)  # isdigit also passes "--5" and "²"
        except ValueError:
            raise ValueError(f"--eval wants var=int, got {item!r}") from None
        var = parse_var(name)
        if var in out:
            raise ValueError(f"--eval assigns {var} more than once")
        out[var] = number
    return out


def _method_character(group: Group, n: int, lam: tuple, method: str) -> Poly:
    """One character value by the named route, for any CLI group."""
    if method == "tableaux":
        try:
            return group_tableau_sum(group, n, lam)
        except InvalidShape:  # o-even-diff with lambda_n = 0: no tableau qualifies
            return ZERO
    spec = char_spec(group, n, lam)
    if method == "jacobi-trudi":
        return character(spec)
    if group in _RATIO_GROUPS:
        return char_alternant(spec)
    if group is Group.EO_DIFF:
        return char_raw_diff(n, lam)
    return char_raw_so_even(spec)


def _emit(fmt: str, doc: Callable[[], Iterable[str]], text: Callable[[], Iterable[str]]) -> None:
    """Print the JSON document's lines or the text's, building only the
    one asked for.  Lines are printed as they are produced."""
    for line in doc() if fmt == "json" else text():
        print(line)


def _json(doc: dict) -> List[str]:
    """A whole JSON document as ``_emit`` prints it."""
    return [json.dumps(doc, indent=2)]


def cmd_char(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    lam = _parse_lambda(args.lam, args.rank)
    methods = (
        ["alternant", "jacobi-trudi", "tableaux"]
        if args.method == "all"
        else [args.method]
    )
    post = _parse_eval(args.eval_pairs or [])

    results = {}
    for m in methods:
        p = _method_character(group, args.rank, lam, m)
        if args.zero_a:
            p = zero_a(p)
        if post:
            p = poly_substitute(p, post)
        results[m] = p

    head = {"group": _CANONICAL[group], "rank": args.rank, "lambda": list(lam)}
    if len(results) == 1:
        (p,) = results.values()
        _emit(args.format, lambda: _json({**head, "polynomial": poly_to_json(p)}), lambda: [poly_to_str(p)])
        return 0
    agree = len(set(results.values())) == 1
    _emit(
        args.format,
        lambda: _json(
            {
                **head,
                "methods": {m: poly_to_json(p) for m, p in results.items()},
                "agree": agree,
            }
        ),
        lambda: [*(f"{m}: {poly_to_str(p)}" for m, p in results.items()), "AGREE" if agree else "DISAGREE"],
    )
    return 0 if agree else 2


def cmd_tableaux(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    lam = _parse_lambda(args.lam, args.rank)
    # The sum first: it raises InvalidShape before any line is printed.
    total = group_tableau_sum(group, args.rank, lam)
    listed = weighted_tableaux(group, args.rank, lam)

    def doc() -> Iterator[str]:
        # The json.dumps(indent=2) text of the whole document, streamed:
        # each tableau is dumped as it is yielded, indented to its depth,
        # and followed by a comma once the next one exists.
        head = {"group": _CANONICAL[group], "rank": args.rank, "lambda": list(lam)}
        items = (
            json.dumps(
                {
                    "rows": tableau_to_json(t),
                    "weight": poly_to_json(w),
                    "zeta": st.zeta,
                    "bar": st.bar,
                    "coeff": c,
                },
                indent=2,
            ).replace("\n", "\n    ")
            for t, c, w in listed
            for st in [tab_stats(t, group)]
        )
        opening = json.dumps(head, indent=2)[:-2] + ',\n  "tableaux": ['
        count = 0
        for count, item in enumerate(items, start=1):
            if count == 1:
                yield opening
            else:
                yield f"    {last},"
            last = item
        if count:
            yield f"    {last}"
            yield "  ],"
        else:
            yield opening + "],"
        yield json.dumps({"count": count, "sum": poly_to_json(total)}, indent=2)[2:]

    def text() -> Iterator[str]:
        count = 0
        for count, (t, c, w) in enumerate(listed, start=1):
            st = tab_stats(t, group)
            yield f"# {count}"
            yield tableau_to_text(t) if t.rows else "(empty)"
            yield f"weight = {poly_to_str(w)}"
            yield f"zeta = {st.zeta}  bar = {st.bar}  coeff = {c}"
            yield ""
        yield f"count = {count}"
        yield f"sum = {poly_to_str(total)}"

    _emit(args.format, doc, text)
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    group = _parse_group(args.group)
    lam = _parse_lambda(args.lam, args.rank)
    print(dimension(char_spec(group, args.rank, lam)))
    return 0


# ---------------------------------------------------------------------------
# verify


def _check_routes(group: Group, max_rank: int, max_part: int) -> bool:
    for n in range(1, max_rank + 1):
        for lam in shapes(n, max_part):
            spec = char_spec(group, n, lam)
            jt = char_jacobi_trudi(spec)
            if char_raw(spec) != jt or char_alternant(spec) != jt:
                return False
            if tableau_sum(group, n, lam) != jt:
                return False
    return True


def _check_recurrence(group: Group, max_rank: int, max_part: int) -> bool:
    kind = _JT_KIND[group]
    for j in range(2, max_rank + 1):
        for i in range(1, j):
            if kind is HKind.GL:
                factor = px(i) - px(j)
            else:
                factor = px(i) + pxb(i) - px(j) - pxb(j)
            for m in range(0, max_part + 2):
                lhs = h(_flag_spec(kind, i, j - 1), m) - h(_flag_spec(kind, i + 1, j), m)
                rhs = factor * h(_flag_spec(kind, i, j), m - 1)
                if poly_reduce_inverses(lhs) != poly_reduce_inverses(rhs):
                    return False
    return True


def _swap_pairs(p: Poly, i: int, j: int, barred: bool) -> Poly:
    mapping = {X(i): px(j), X(j): px(i)}
    if barred:
        mapping[XB(i)] = pxb(j)
        mapping[XB(j)] = pxb(i)
    return poly_substitute(p, mapping)


def _check_symmetry(group: Group, max_part: int) -> bool:
    n = 2
    barred = group is not Group.GL
    lam_full = make_partition([min(2, max_part), min(1, max_part)], n)
    specs = [lam_full, make_partition([min(2, max_part)] * n, n)]
    for lam in specs:
        p = char_jacobi_trudi(char_spec(group, n, lam))
        if _swap_pairs(p, 1, 2, barred) != p:
            return False
        if barred:
            swapped = poly_substitute(p, {X(1): pxb(1), XB(1): px(1)})
            if poly_reduce_inverses(swapped) != p:
                return False
    return True


def _check_denominator(group: Group, max_rank: int) -> bool:
    routes = ("raw", "alternant")
    return all(_denominator_info(group, n, r) for n in range(1, max_rank + 1) for r in routes)


def _check_lgv(max_rank: int, max_part: int) -> bool:
    for n in range(1, max_rank + 1):
        for lam in shapes(n, max_part):
            if lgv_signed_sum(n, lam) != char_jacobi_trudi(
                char_spec(Group.GL, n, lam)
            ):
                return False
    return True


def _check_so_even(max_rank: int, max_part: int) -> bool:
    for n in range(1, max_rank + 1):
        for lam in shapes(n, max_part):
            if partition_length(lam) < n:
                continue
            plus = char_so_even(char_spec(Group.SO_EVEN_PLUS, n, lam))
            minus = char_so_even(char_spec(Group.SO_EVEN_MINUS, n, lam))
            # (eo + eod)/2 - (eo - eod)/2, halved exactly: JT(EO_DIFF) itself.
            eod = plus - minus
            if char_raw_diff(n, lam) != eod or diff_tableau_sum(n, lam) != eod:
                return False
            if so_even_tableau_sum(n, lam, True) != plus:
                return False
            if so_even_tableau_sum(n, lam, False) != minus:
                return False
    return True


def _verify_checks(
    max_rank: int, max_part: int, groups: set
) -> List[Tuple[str, Callable[[], bool]]]:
    checks: List[Tuple[str, Callable[[], bool]]] = []
    for g in _RATIO_GROUPS:
        if g not in groups:
            continue
        name = _CANONICAL[g]
        checks.append(
            (f"route-agreement[{name}]", lambda g=g: _check_routes(g, max_rank, max_part))
        )
        if max_rank >= 2:
            checks.append(
                (f"recurrence[{name}]", lambda g=g: _check_recurrence(g, max_rank, max_part))
            )
            checks.append(
                (f"symmetry[{name}]", lambda g=g: _check_symmetry(g, max_part))
            )
        checks.append(
            (f"denominator[{name}]", lambda g=g: _check_denominator(g, max_rank))
        )
    if Group.GL in groups:
        checks.append(("lgv[gl]", lambda: _check_lgv(max_rank, max_part)))
    if groups.intersection(_EO_FAMILY):
        checks.append(
            ("so-even-decomposition", lambda: _check_so_even(max_rank, max_part))
        )
    return checks


def _run_check(name: str, fn: Callable[[], bool]) -> bool:
    """A check that raises ArithmeticError (a denominator that differs
    from its product form, an inexact division) fails like one that
    returns False, and its message goes to stderr; the later checks
    still run."""
    try:
        return fn()
    except ArithmeticError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return False


def cmd_verify(args: argparse.Namespace) -> int:
    # Out of range, no shape would be checked and every check would pass.
    if args.max_rank < 1:
        raise ValueError("--max-rank must be >= 1")
    if args.max_part < 0:
        raise ValueError("--max-part must be >= 0")
    if args.groups:
        groups = {_parse_group(g.strip()) for g in args.groups.split(",")}
    else:
        groups = set(_CANONICAL)
    checks = _verify_checks(args.max_rank, args.max_part, groups)
    outcomes = [(name, _run_check(name, fn)) for name, fn in checks]
    failed = sum(not ok for _, ok in outcomes)
    summary = (
        f"all {len(checks)} checks passed"
        if not failed
        else f"{failed} of {len(checks)} checks failed"
    )
    _emit(
        args.format,
        lambda: _json(
            {
                "max_rank": args.max_rank,
                "max_part": args.max_part,
                "checks": [{"name": name, "ok": ok} for name, ok in outcomes],
                "ok": not failed,
            }
        ),
        lambda: [*(f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in outcomes), summary],
    )
    return 0 if not failed else 2


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="flc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--group", required=True, help=f"{', '.join(_CANONICAL.values())} (codes {'/'.join(_ALIASES)} accepted)")
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--lambda", dest="lam", required=True, help="comma-separated partition, zero-padded to rank")

    p_char = sub.add_parser("char", help="compute a character polynomial")
    common(p_char)
    p_char.add_argument(
        "--method",
        choices=["alternant", "jacobi-trudi", "tableaux", "all"],
        default="jacobi-trudi",
    )
    p_char.add_argument("--zero-a", action="store_true", help="set every a_j to 0")
    p_char.add_argument(
        "--eval",
        dest="eval_pairs",
        nargs="*",
        action="extend",
        metavar="VAR=INT",
        help="substitute integer values, e.g. x1=2 xb1=1 a1=0; repeated flags add to the list",
    )
    p_char.add_argument("--format", choices=["text", "json"], default="text")
    p_char.set_defaults(fn=cmd_char)

    p_tab = sub.add_parser("tableaux", help="list the tableaux behind a character")
    common(p_tab)
    p_tab.add_argument("--format", choices=["text", "json"], default="text")
    p_tab.set_defaults(fn=cmd_tableaux)

    p_ver = sub.add_parser("verify", help="run the identity verification suites")
    p_ver.add_argument("--max-rank", type=int, default=3)
    p_ver.add_argument("--max-part", type=int, default=3)
    p_ver.add_argument("--groups", help="comma-separated group filter")
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(fn=cmd_verify)

    p_dim = sub.add_parser("dim", help="dimension: a = 0 and every letter = 1")
    common(p_dim)
    p_dim.set_defaults(fn=cmd_dim)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
