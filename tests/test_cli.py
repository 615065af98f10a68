"""The command-line surface: pinned outputs, exit codes, JSON round-trips,
and the verification suite including a negative control."""

import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from itertools import cycle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import flc.characters
import flc.cli
import flc.latticepaths
import flc.tableaux
from flc.characters import Group, char_jacobi_trudi, char_spec
from flc.cli import main
from flc.polyring import ONE, pa, poly_from_json, poly_to_json, px, pxb


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# char


def test_char_gl_single_box(capsys):
    code, out, _ = run_cli(capsys, "char", "--group", "gl", "--rank", "2", "--lambda", "1")
    assert code == 0
    assert out.strip() == "x1 + x2 + a1 + a2"


def test_char_sp_zero_a(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--group", "sp", "--rank", "1", "--lambda", "1", "--zero-a"
    )
    assert code == 0
    assert out.strip() == "x1 + xb1"


def test_char_diff_degenerate_shape_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--group", "o-even-diff", "--rank", "2", "--lambda", "1,0"
    )
    assert code == 0
    assert out.strip() == "0"


def test_char_diff_degenerate_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        "char", "--group", "eod", "--rank", "2", "--lambda", "1,0", "--method", "all",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["alternant: 0", "jacobi-trudi: 0", "tableaux: 0", "AGREE"]


def test_char_all_methods_agree_for_so_even(capsys):
    code, out, _ = run_cli(
        capsys,
        "char", "--group", "so+", "--rank", "2", "--lambda", "2,1", "--method", "all",
    )
    assert code == 0
    assert out.strip().endswith("AGREE")


def test_char_eval_collapses_to_integer(capsys):
    code, out, _ = run_cli(
        capsys,
        "char", "--group", "gl", "--rank", "2", "--lambda", "1",
        "--eval", "x1=2", "x2=3", "a1=0", "a2=0",
    )
    assert code == 0
    assert out.strip() == "5"


def test_char_repeated_eval_flags_accumulate(capsys):
    """A later --eval, even an empty one, adds to the earlier assignments."""
    code, out, _ = run_cli(
        capsys,
        "char", "--group", "gl", "--rank", "2", "--lambda", "1",
        "--eval", "x1=2", "--eval", "x2=3", "a1=0", "--eval",
    )
    assert code == 0
    assert out.strip() == "a2 + 5"


@pytest.mark.parametrize(
    "pairs", [["x1=2", "x1=3"], ["x1=2", "--eval", "x1=2"], ["a1=0", "a01=1"]]
)
def test_char_eval_assigning_a_variable_twice_exits_one(capsys, pairs):
    code, out, err = run_cli(
        capsys, "char", "--group", "gl", "--rank", "2", "--lambda", "1", "--eval", *pairs
    )
    assert code == 1
    assert out == ""
    assert f"error: --eval assigns {pairs[0].split('=')[0]} more than once" in err


@pytest.mark.parametrize("pair", ["a0=5", "a-2=7"])
def test_char_eval_of_a_zero_a_letter_exits_one(capsys, pair):
    """Every a_j with j <= 0 is 0 by definition, so assigning it a value
    contradicts the ring rather than being ignored."""
    code, out, err = run_cli(
        capsys, "char", "--group", "gl", "--rank", "1", "--lambda", "1", "--eval", pair
    )
    assert code == 1
    assert out == ""
    assert f"error: --eval assigns {pair.split('=')[0]}, which is identically 0" in err


def test_char_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "char", "--group", "eo", "--rank", "2", "--lambda", "2,1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "o-even"
    assert doc["rank"] == 2
    assert doc["lambda"] == [2, 1]
    got = poly_from_json(doc["polynomial"])
    assert got == char_jacobi_trudi(char_spec(Group.EO, 2, (2, 1)))


def test_char_method_choices_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["char", "--group", "gl", "--rank", "1", "--lambda", "1", "--method", "x"])
    assert err.value.code == 1


# ---------------------------------------------------------------------------
# tableaux


def test_tableaux_gl_listing(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--group", "gl", "--rank", "2", "--lambda", "1")
    assert code == 0
    assert out.splitlines() == [
        "# 1",
        "1",
        "weight = x1 + a1",
        "zeta = 0  bar = 0  coeff = 1",
        "",
        "# 2",
        "2",
        "weight = x2 + a2",
        "zeta = 0  bar = 0  coeff = 1",
        "",
        "count = 2",
        "sum = x1 + x2 + a1 + a2",
    ]


def test_tableaux_sp_rank_one(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--group", "sp", "--rank", "1", "--lambda", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1"
    assert lines[2] == "weight = x1"
    assert lines[6] == "1~"
    assert lines[7] == "weight = xb1 + a1"
    assert "count = 2" in lines
    assert "sum = x1 + xb1 + a1" in lines


def test_tableaux_so_even_plus_lists_five(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--group", "so-even-plus", "--rank", "2", "--lambda", "2,2"
    )
    assert code == 0
    assert "count = 5" in out.splitlines()


def test_tableaux_diff_signed_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--group", "o-even-diff", "--rank", "1", "--lambda", "1"
    )
    assert code == 0
    assert "zeta = 0  bar = 0  coeff = 1" in out
    assert "zeta = 0  bar = 1  coeff = -1" in out
    assert "sum = x1 - xb1" in out


def test_tableaux_diff_needs_full_shape(capsys):
    code, _, err = run_cli(
        capsys, "tableaux", "--group", "o-even-diff", "--rank", "2", "--lambda", "1,0"
    )
    assert code == 1
    assert "error:" in err


def test_tableaux_json_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "tableaux", "--group", "sp", "--rank", "1", "--lambda", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["tableaux"][0]["rows"] == [[{"k": 1, "barred": False}]]
    assert doc["tableaux"][1]["rows"] == [[{"k": 1, "barred": True}]]
    assert poly_from_json(doc["tableaux"][0]["weight"]) == px(1)
    assert poly_from_json(doc["tableaux"][1]["weight"]) == pxb(1) + pa(1)
    assert poly_from_json(doc["sum"]) == px(1) + pxb(1) + pa(1)


# ---------------------------------------------------------------------------
# pinned bytes: SHA-256 over stdout and exit code of every shape with
# rank <= 2 and parts <= 2 (degenerate shapes included), per command and group

_PINNED_SHAPES = (
    (1, "0"), (1, "1"), (1, "2"),
    (2, "0,0"), (2, "1,0"), (2, "1,1"), (2, "2,0"), (2, "2,1"), (2, "2,2"),
)

_PINNED_COMMANDS = {
    "tableaux": ("tableaux",),
    "tableaux-json": ("tableaux", "--format", "json"),
    "char-all": ("char", "--method", "all"),
    "char-json": ("char", "--format", "json"),
    "char-all-json": ("char", "--method", "all", "--format", "json"),
}

_PINNED_DIGESTS = {
    ("tableaux", "gl"): "5a8bdf7564dcbc3becae4939e901bc22d0db2d778ef48908db1c19b0097e4c1e",
    ("tableaux", "sp"): "7ef2c51907c30785b900960c422d9d1d573f6e9f09a9e805a19ed56c952682f3",
    ("tableaux", "so-odd"): "7194ce4d06fee6f601989f138c38157a00fd185f36386800b24c9b45418a3af8",
    ("tableaux", "o-even"): "13704b93b5675bb312b2dc801102b65b1ea9738596905b030ed2e144cf5971c2",
    ("tableaux", "o-even-diff"): "51fb6c57f189d11f5c2d5ea0950cc5bf33e14bf9138e2885ba9af749831cb07e",
    ("tableaux", "so-even-plus"): "759170da761ed28d2986ec3a1ca4703ac41285b2e7e04426acb09b54773e8876",
    ("tableaux", "so-even-minus"): "639a18da5447120605aec4a4fe9656e696d725e06c2a7e6de8017f6b9c190439",
    ("tableaux-json", "gl"): "4dce53b0db71b771b7713d2d8ee708ec91cd3622d42a7873b1c0037657cf5b59",
    ("tableaux-json", "sp"): "527f1e050266dbf4c0ffc7464ff480d94461d6de075a10fc9695430089aff135",
    ("tableaux-json", "so-odd"): "94287c372236a5b8f471a046848143207d421d3d615eb4deb1a4b57271cbbee0",
    ("tableaux-json", "o-even"): "2058760a0bbed6fe3d0e2bdf6f251691beeca3dc51cbc46d034ec93b6404f5fc",
    ("tableaux-json", "o-even-diff"): "a9f9e393170ba73785499936bec35f6ebd2a33d2be2f7e3a74357a8692137997",
    ("tableaux-json", "so-even-plus"): "d567f640a4a5c1c4b3e1c3332bc223c4106e75554ebae9352be1bc564b38fb02",
    ("tableaux-json", "so-even-minus"): "b90d09abf7e37ead07c71737319500c30208b243845854f41fd7d38499431e32",
    ("char-all", "gl"): "4ab1dc8e86bf67b46320da46c60b08b9432ec428952e53f5a28bcce1b47dbc05",
    ("char-all", "sp"): "c9a8a5d8caff1d95f59259445dec210fe4d2e33ba2a373280d155961d9a409b7",
    ("char-all", "so-odd"): "af4bcb64deb5be87530462a04295a36be5f7b5feaf0ef40621bec120cbc7df75",
    ("char-all", "o-even"): "0e869076b6c9b5be16ded635397ad50e64bb10502d629bee39238c5986708bfa",
    ("char-all", "o-even-diff"): "9a5d3865abc30020fa0e0b84cfbe3940c5c9c8f36c1a4dc786672e86222427b0",
    ("char-all", "so-even-plus"): "02f861224469fed4e620138b2dc7a7762f1d70951339b3a93e5883f477caa81e",
    ("char-all", "so-even-minus"): "86dd8a9dba723677447f71922e848dabdfcd0960896642536e9337e340be6f7f",
    ("char-json", "gl"): "58a511fb36d2121711fcf90ad9b458ce94b0ce6dea4ab20f2df0154f02dc65f6",
    ("char-json", "sp"): "1b932806fdf5214314e01611722a69608c28a4a2da4ee25dcc246f77b971a6fa",
    ("char-json", "so-odd"): "bd7e3667d7a66d46caba93b0362346ef6542ccf09ac78484952b030806635455",
    ("char-json", "o-even"): "bb5d01745b2722c75bdde9441e00c4c64f523ffcff4af7b5c8e97305a7fb83ae",
    ("char-json", "o-even-diff"): "8ab3afd03f667a0049a10987ab4eb455717def2717b9e7ae781cddd93361ebbb",
    ("char-json", "so-even-plus"): "6023993e2ade5d829c638246cdd415cc0ce6d2feab8bc26a3492376034f56cbd",
    ("char-json", "so-even-minus"): "c79a0fcd4c6b53485192c226aae22e2a859526efcc2bd0422dcc6370422e13a0",
    ("char-all-json", "gl"): "82938e2e5517c90c711d2fb7f1632c61bcb06136ddba83a3ef9743848334253e",
    ("char-all-json", "sp"): "abb4130a4e37755aa956082ef648e1cc21a05724a96cda4ebfcb3f14f6b7fd58",
    ("char-all-json", "so-odd"): "ab12683f168e8d358cf99f476abb52b375cf1e46e89db63e39a581ec4b688483",
    ("char-all-json", "o-even"): "76db53031e550f809525252b288c2921244fd464621653e9d7b8854c34e441de",
    ("char-all-json", "o-even-diff"): "13298c0232ac052a2bad420731ef6a3add9a1696c6ec17ee71274d8069c733f3",
    ("char-all-json", "so-even-plus"): "e4a2ca4efc0a4fc3271ee27860c85e49149bca1eb839cb50c1e5eb59d442389f",
    ("char-all-json", "so-even-minus"): "2bcff633264c94eb4026ab54b2b5e1b5530ea9b3eb5fb05dd3e88a67bb91c457",
}


@pytest.mark.parametrize("command,group", sorted(_PINNED_DIGESTS))
def test_cli_output_digest(capsys, command, group):
    sub, *rest = _PINNED_COMMANDS[command]
    digest = hashlib.sha256()
    for rank, lam in _PINNED_SHAPES:
        code, out, _ = run_cli(
            capsys, sub, "--group", group, "--rank", str(rank), "--lambda", lam, *rest
        )
        digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == _PINNED_DIGESTS[command, group]


def test_verify_json_digest(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2", "--max-part", "2", "--format", "json")
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == "09ee02343af1947b1cd9541f74f715e0680a0b2ad87b0c974115cef250afdbd2"


# ---------------------------------------------------------------------------
# the streaming JSON writer

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


def _const(value):
    return lambda: value


def _lazily(value, bits):
    """value as the writer takes it: where the next bit is set, a list
    becomes an iterator and any other value a callable.  Dicts are
    rebuilt around lazy values; a list's items stay plain."""
    lazy = next(bits)
    if isinstance(value, dict):
        value = {k: _lazily(v, bits) for k, v in value.items()}
    if not lazy:
        return value
    return iter(value) if isinstance(value, list) else _const(value)


@given(value=_JSON, mask=st.integers(0, 2**16 - 1))
@example(value=[], mask=1)
@example(value={}, mask=1)
@example(value={"a": {}, "b": [], "c": "\u00e9\u2603"}, mask=2**16 - 1)
@example(value=[{"n": i, "s": ["\u00e9", {}]} for i in range(1)], mask=1)
@example(value={"x": {"terms": [{"n": i} for i in range(63)]}}, mask=2**16 - 1)
@example(value={"x": {"terms": [{"n": i} for i in range(64)]}}, mask=2**16 - 1)
@example(value={"x": {"terms": [{"n": i} for i in range(65)]}}, mask=2**16 - 1)
@example(value=[[i, {"k": [i]}] for i in range(200)], mask=1)
def test_json_writer_matches_json_dumps(value, mask):
    bits = cycle(bool(mask >> i & 1) for i in range(16))
    assert "".join(flc.cli._json_text(_lazily(value, bits))) == json.dumps(value, indent=2)


class _HashingSink(io.TextIOBase):
    """A stdout that hashes what is written to it and keeps none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


def test_char_json_streams_in_bounded_memory():
    """The 1 MB document of so(7) (3,3,2) is written as it is produced:
    dumping it whole peaked at 17 MB, streaming it at about 1 MB."""
    argv = ["char", "--group", "oo", "--rank", "3", "--lambda", "3,3,2", "--format", "json"]
    p = char_jacobi_trudi(char_spec(Group.OO, 3, (3, 3, 2)))
    doc = {"group": "so-odd", "rank": 3, "lambda": [3, 3, 2], "polynomial": poly_to_json(p)}
    expected = hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()
    del doc
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == expected
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# dim


@pytest.mark.parametrize(
    "group,rank,lam,expected",
    [
        ("so-odd", "2", "1", "5"),
        ("o-even", "2", "1", "4"),
        ("gl", "3", "1", "3"),
        ("so-odd", "4", "3,3,3,3", "28314"),
    ],
)
def test_dim_examples(capsys, group, rank, lam, expected):
    code, out, _ = run_cli(capsys, "dim", "--group", group, "--rank", rank, "--lambda", lam)
    assert code == 0
    assert out.strip() == expected


# ---------------------------------------------------------------------------
# errors and exit codes


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["char", "--rank", "1", "--lambda", "1"])
    assert err.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_group_exits_one(capsys):
    code, _, err = run_cli(capsys, "char", "--group", "su", "--rank", "1", "--lambda", "1")
    assert code == 1
    assert "unknown group" in err


def test_increasing_lambda_exits_one(capsys):
    code, _, err = run_cli(capsys, "char", "--group", "gl", "--rank", "2", "--lambda", "1,2")
    assert code == 1
    assert "error:" in err


def test_overlong_lambda_exits_one(capsys):
    code, _, err = run_cli(capsys, "char", "--group", "gl", "--rank", "1", "--lambda", "1,1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["char", "tableaux", "dim"])
def test_rank_zero_exits_one(capsys, command):
    code, out, err = run_cli(capsys, command, "--group", "gl", "--rank", "0", "--lambda", ",")
    assert code == 1
    assert out == ""
    assert "error: rank must be >= 1" in err


def test_bad_eval_pair_exits_one(capsys):
    """"--5" and a superscript digit pass str.isdigit but not int(); every
    bad value gets the same --eval message."""
    for pair in ("x1", "x1=--5", "x1=\u00b2"):
        code, _, err = run_cli(
            capsys, "char", "--group", "gl", "--rank", "1", "--lambda", "1", "--eval", pair
        )
        assert code == 1, pair
        assert f"--eval wants var=int, got {pair!r}" in err, pair


_INT_FLAGS = {
    "--rank": (["--rank", "{}", "--lambda", "1"], "argument --rank: invalid int value: {!r}"),
    "--lambda": (["--rank", "1", "--lambda", "{}"], "--lambda wants a comma-separated integer list, got {!r}"),
    "--eval": (["--rank", "1", "--lambda", "1", "--eval", "x1={}"], "--eval wants var=int, got 'x1={}'"),
}


@pytest.mark.parametrize("value", ["1_0", "\uff11"])
@pytest.mark.parametrize("flag", sorted(_INT_FLAGS))
def test_integers_are_ascii_digits_only(capsys, flag, value):
    """int() alone reads "1_0" as 10 and a full-width digit as 1; every
    numeric flag takes ASCII digits with an optional "-" and no more."""
    argv, message = _INT_FLAGS[flag]
    try:
        code = main(["char", "--group", "gl", *(a.format(value) for a in argv)])
    except SystemExit as exc:  # argparse rejects --rank itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert message.format(value) in err


# ---------------------------------------------------------------------------
# verify


def test_verify_small_range_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2", "--max-part", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "PASS route-agreement[gl]"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("all ") and lines[-1].endswith("checks passed")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-rank", "0"], "--max-rank must be >= 1"),
        (["--max-rank", "-2", "--max-part", "-1"], "--max-rank must be >= 1"),
        (["--max-rank", "1", "--max-part", "-1"], "--max-part must be >= 0"),
    ],
)
def test_verify_rejects_empty_range(capsys, argv, message):
    # Such a range checks no shape, so "all checks passed" would be vacuous.
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert f"error: {message}" in err


def test_verify_group_filter(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "gl", "--max-rank", "1", "--max-part", "1"
    )
    assert code == 0
    names = [line.split(" ", 1)[1] for line in out.strip().splitlines()[:-1]]
    assert names == ["route-agreement[gl]", "denominator[gl]", "lgv[gl]"]


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--groups", "sp", "--max-rank", "1", "--max-part", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])


def test_verify_detects_injected_weight_fault(capsys, monkeypatch):
    """Negative control: a shifted weight index must trip route agreement."""
    true_weight = flc.tableaux._cell_weight

    def skewed(e, i, j, group, n):
        if group is Group.GL and not e.is_zero():
            return px(e.k) + pa(e.k + j - i + 1)
        return true_weight(e, i, j, group, n)

    monkeypatch.setattr(flc.tableaux, "_cell_weight", skewed)
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "gl", "--max-rank", "1", "--max-part", "1"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert "FAIL route-agreement[gl]" in lines
    assert lines[-1].endswith("checks failed")


def test_verify_detects_a_shifted_lattice_path_weight(capsys, monkeypatch):
    """Negative control: a horizontal step into (r, c) weighted
    x_r + a_{r+c-n} in place of x_r + a_{r+c-n-1} must fail the lattice
    path check and leave the routes agreeing."""

    def shifted(path):
        w = ONE
        r, c = path.start
        for s in path.steps:
            if s == "H":
                c += 1
                w = w * (px(r) + pa(r + c - path.n))
            else:
                r += 1
        return w

    monkeypatch.setattr(flc.latticepaths.LatticePath, "weight", shifted)
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "gl", "--max-rank", "2", "--max-part", "1"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert "FAIL lgv[gl]" in lines
    assert "PASS route-agreement[gl]" in lines


def test_verify_detects_a_lengthened_jacobi_trudi_alphabet(capsys, monkeypatch):
    """Negative control: a-letters a_1..a_(N+1) in place of a_1..a_N in
    Jacobi-Trudi's factor Q must trip route agreement."""
    true_length = flc.characters._jt_alphabet
    monkeypatch.setattr(
        flc.characters, "_jt_alphabet", lambda n, part, j: true_length(n, part, j) + 1
    )
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "sp", "--max-rank", "2", "--max-part", "1"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert "FAIL route-agreement[sp]" in lines
    assert lines[-1].endswith("checks failed")


def test_verify_detects_a_skewed_so_even_plus_weight(capsys, monkeypatch):
    """Negative control: a shifted weight index for so(2n)+ alone must
    fail the so-even decomposition and leave o(2n)'s routes agreeing."""
    true_weight = flc.tableaux._cell_weight

    def skewed(e, i, j, group, n):
        if group is Group.SO_EVEN_PLUS and not e.is_zero():
            return px(e.k) + pa(e.k + j - i + 1)
        return true_weight(e, i, j, group, n)

    monkeypatch.setattr(flc.tableaux, "_cell_weight", skewed)
    code, out, _ = run_cli(
        capsys, "verify", "--groups", "o-even", "--max-rank", "2", "--max-part", "1"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert "FAIL so-even-decomposition" in lines
    assert "PASS route-agreement[o-even]" in lines


@pytest.mark.parametrize("max_rank, verdict", [("3", "FAIL"), ("2", "PASS")])
def test_verify_symmetry_checks_every_rank_up_to_max_rank(capsys, monkeypatch, max_rank, verdict):
    """Negative control: a character with a stray x3 at rank >= 3 is not
    symmetric, and the symmetry check must see it exactly when
    --max-rank reaches 3."""
    true_char = flc.cli.char_jacobi_trudi

    def skewed(spec):
        p = true_char(spec)
        return p + px(3) if spec.rank >= 3 else p

    monkeypatch.setattr(flc.cli, "char_jacobi_trudi", skewed)
    _, out, _ = run_cli(
        capsys, "verify", "--groups", "gl", "--max-rank", max_rank, "--max-part", "2"
    )
    assert f"{verdict} symmetry[gl]" in out.splitlines()


@pytest.mark.usefixtures("flipped_own_pair_factor")
def test_verify_detects_a_flipped_denominator_binomial(capsys):
    """Negative control: a denominator that differs from its binomial
    product must fail the denominator check, and verify must go on to
    report it rather than stop at the first check that raises."""
    code, out, err = run_cli(
        capsys, "verify", "--groups", "sp", "--max-rank", "2", "--max-part", "1"
    )
    assert code == 2
    lines = out.strip().splitlines()
    assert "FAIL denominator[sp]" in lines
    assert lines[-1].endswith("checks failed")
    assert "differs from its product form" in err


# ---------------------------------------------------------------------------
# the installed entry point


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "flc.cli", "char", "--group", "gl", "--rank", "1",
         "--lambda", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1^2 + x1*a1 + x1*a2 + a1*a2"


def test_closed_stdout_exits_one_without_a_traceback():
    """A reader that stops early (`flc ... | head -1`) closes the pipe
    while the 1 MB document, more than a pipe buffer, is being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "flc.cli", "char", "--group", "oo", "--rank", "3",
         "--lambda", "3,3,2", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err, err.decode()
