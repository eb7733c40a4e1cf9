"""Byte-for-byte CLI output on a fixed corpus.

Each case runs ``dpalg`` through ``cli.run`` and compares stdout with the file
recorded under ``tests/golden/``.  A refactor or speedup that claims identical
output is held to these files; a deliberate change of output rewrites them.
"""

import json
from dataclasses import astuple
from pathlib import Path

import pytest

from dpalg.beck import corrupted_phi_module, verify_beck_axioms
from dpalg.cli import run
from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import free_spec
from dpalg.kahler import omega_as_umodule, presentation_of_omega, universal_derivation_table
from dpalg.suites import suite_axioms, suite_beck

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

DIFF_SETTINGS = [
    ("diff_g2_n8_z", ["--gens", "2", "--trunc", "8", "g3(x1)*x2 - 5*g2(x1 + x2) + 7*x1*g4(x2)"]),
    ("diff_g2_n8_zmod6", ["--gens", "2", "--ring", "zmod=6", "g4(x1) - 3*x1*g2(x2) + g6(x2)"]),
    (
        "diff_g2_w21_n9_z",
        ["--gens", "2", "--weights", "2,1", "--trunc", "9", "g3(x1)*x2 - g4(x2) + g2(x1)*g2(x2)"],
    ),
]
for stem, args in DIFF_SETTINGS:
    CASES += [(stem + ".txt", ["diff", *args]), (stem + ".json", ["diff", "--json", *args])]
_basis_args = ["omega-basis", "--gens", "2", "--weights", "2,1", "--trunc", "6", "--ring", "zmod=6"]
CASES += [
    ("omega-basis_g2_w21_n6_zmod6.txt", _basis_args),
    ("omega-basis_g2_w21_n6_zmod6.json", [*_basis_args, "--json"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(capsys, name, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def _matches_golden(name, payload):
    assert json.dumps(payload, indent=1) + "\n" == (GOLDEN / name).read_text()


def _nonzero(matrix):
    return [[i, j, v] for i, row in enumerate(matrix) for j, v in enumerate(row) if v]


@pytest.mark.parametrize(
    "name, spec",
    [("umodule_g1_n6_z.json", free_spec(ZZ, 1, 6)), ("umodule_g2_n4_zmod6.json", free_spec(Ring(6), 2, 4))],
)
def test_omega_module_tables_match_golden(name, spec):
    module = omega_as_umodule(spec)
    table = universal_derivation_table(spec)
    _matches_golden(
        name,
        {
            "annihilators": module.annihilators,
            "a_action": [[mono, _nonzero(mat)] for mono, mat in module.a_action.items()],
            "phi_action": [[p, _nonzero(mat)] for p, mat in module.phi_action.items()],
            "d": [[mono, [[i, v] for i, v in enumerate(vec) if v]] for mono, vec in table.items()],
        },
    )


def test_presentation_matches_golden():
    spec = free_spec(ZZ, 1, 6)
    _matches_golden(
        "presentation_g1_n6_z.json",
        {
            str(sign): {
                str(w): {"entries": [astuple(e) for e in s.entries], "rows": s.rows}
                for w, s in presentation_of_omega(spec, gamma_relation_sign=sign).items()
            }
            for sign in (-1, +1)
        },
    )


def _records(report):
    return [[r.law, r.passed, r.counterexample] for r in report.records]


def test_axiom_suite_records_match_golden():
    # The corrupted module fails, so its counterexamples pin the sampled
    # elements, and with them the order of the random draws.
    corrupted = corrupted_phi_module(free_spec(ZZ, 1, 6))
    _matches_golden(
        "axiom_records.json",
        {
            str(seed): {
                "axioms": _records(suite_axioms(samples=20, seed=seed)),
                "beck": _records(suite_beck(samples=20, seed=seed)),
                "corrupted": _records(verify_beck_axioms(corrupted, samples=20, seed=seed)),
            }
            for seed in (0, 101)
        },
    )
