"""The command-line surface: pinned outputs, exit codes, JSON round-trips,
and the verification suite including a negative control."""

import hashlib
import json
import subprocess
import sys

import pytest

import flc.characters
import flc.latticepaths
import flc.tableaux
from flc.characters import Group, char_jacobi_trudi, char_spec
from flc.cli import main
from flc.polyring import ONE, pa, poly_from_json, px, pxb


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
