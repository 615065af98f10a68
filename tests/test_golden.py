"""The canonical text against the benchmark's golden digests.

``perfbench/golden.json`` holds the SHA-256 of the ``poly_to_str`` text
of every (group, n, lambda, route) cell it times, and of the
``exit {code}\\n{stdout}`` text of its ``flc verify`` run.  Criterion 1
ties the raw, alternant and tableau routes to Jacobi-Trudi, so checking
Jacobi-Trudi here pins all four routes' text.  The file is only read,
by path, so the test needs no change under ``perfbench/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flc import cli
from flc.characters import Group, char_jacobi_trudi, char_spec
from flc.polyring import poly_to_str

_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
_DIGESTS = json.loads(_GOLDEN.read_text())["digests"]
_JT = sorted(k for k in _DIGESTS if k.endswith("/jacobi-trudi"))
_VERIFY = [k for k in _DIGESTS if k.startswith("verify/")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_file_has_every_cell():
    assert len(_JT) == 137
    assert len(_VERIFY) == 1


@pytest.mark.parametrize("key", _JT)
def test_jacobi_trudi_text_matches_the_golden_digest(key):
    group, n, lam, _ = key.split("/")
    spec = char_spec(Group(group), int(n), tuple(map(int, lam.split(","))))
    assert _sha(poly_to_str(char_jacobi_trudi(spec))) == _DIGESTS[key]


def test_verify_output_matches_the_golden_digest(capsys):
    (key,) = _VERIFY
    code = cli.main(["verify", *key.removeprefix("verify/").split()])
    assert _sha(f"exit {code}\n{capsys.readouterr().out}") == _DIGESTS[key]
