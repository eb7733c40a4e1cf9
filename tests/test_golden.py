"""Byte-for-byte CLI output on a fixed corpus.

Each case runs ``dpalg`` through ``cli.run`` and compares stdout with the file
recorded under ``tests/golden/``.  A refactor or speedup that claims identical
output is held to these files; a deliberate change of output rewrites them.
"""

from pathlib import Path

import pytest

from dpalg.cli import run

GOLDEN = Path(__file__).parent / "golden"

ORACLE_SETTINGS = [(1, 16, "z"), (2, 7, "z"), (3, 4, "z"), (2, 6, "zmod=6"), (2, 8, "zmod=6")]


def _oracle_cases():
    for gens, trunc, ring in ORACLE_SETTINGS:
        stem = f"oracle-omega_g{gens}_n{trunc}_{ring.replace('=', '')}"
        argv = ["oracle-omega", "--gens", str(gens), "--trunc", str(trunc), "--ring", ring]
        yield stem + ".txt", argv
        yield stem + ".json", [*argv, "--json"]


CASES = [
    *_oracle_cases(),
    ("omega-basis_g1_n4_z.txt", ["omega-basis", "--gens", "1", "--trunc", "4"]),
    ("indec_g1_n4_z.txt", ["indec", "--gens", "1", "--trunc", "4"]),
    ("diff_g4x1_g1_n4_z.txt", ["diff", "--gens", "1", "--trunc", "4", "g4(x1)"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(capsys, name, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
