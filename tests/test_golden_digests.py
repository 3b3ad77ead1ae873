"""Byte identity of the large outputs, checked in tier-1: the sha256 digests
recorded in perfbench/golden/ for B_16, commutative B_25, the
quasideterminant B_14 and Q_13 (each as its to_json_dict), and for the
stdout of `ncbell bell --nc -n 12 --format json`. The golden files are
only read here."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import ncbell
from ncbell import cli, quasidet
from ncbell.algebra import to_json_dict
from ncbell.bell import bell, bell_scaled

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# golden name -> the value it digests, as perfbench/worker.py builds it
OUTPUTS = {
    "bell_nc": lambda: bell(16, "nc"),
    "bell_c": lambda: bell(25, "c"),
    "qdet": lambda: quasidet.bell_via_quasidet(14, "nc"),
    "scaled": lambda: bell_scaled(13),
}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


@pytest.fixture
def cold():
    """Empty module caches before and after, so that B_16 is not left behind."""
    ncbell.clear_caches()
    yield
    ncbell.clear_caches()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_json_digest_matches_the_golden(name, cold):
    doc = json.dumps(to_json_dict(OUTPUTS[name]()), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == _golden("bell_deep.json")[name]


def test_cli_json_stdout_matches_the_golden(cold):
    want = _golden("cli_cold.json")["bell-nc12-json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["bell", "--nc", "-n", "12", "--format", "json"])
    data = out.getvalue().encode()
    assert (code, len(data)) == (want["exit"], want["bytes"])
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
