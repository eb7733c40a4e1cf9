"""Byte-for-byte CLI output on a fixed corpus.

Each case runs ``dpalg`` through ``cli.run`` and compares stdout with the file
recorded under ``tests/golden/``.  A refactor or speedup that claims identical
output is held to these files; a deliberate change of output rewrites them.
"""

import json
from pathlib import Path

import pytest

from dpalg.beck import (
    UModule,
    corrupted_phi_module,
    mixed_torsion_module,
    trivial_module,
    u0_module,
    verify_beck_axioms,
    zero_module,
)
from dpalg.cli import run
from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import free_spec
from dpalg.kahler import (
    factor_derivation_through_d,
    is_dp_derivation,
    omega_as_umodule,
    presentation_of_omega,
    universal_derivation_table,
)
from dpalg.suites import suite_axioms, suite_beck
from test_kahler import dense_rows

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
GAMMA_SETTINGS = [
    ("gamma_g2_w21_n9_z", ["3", "--gens", "2", "--weights", "2,1", "--trunc", "9", "3*x1 + x2 - g2(x2)"]),
    ("gamma_g2_n8_zmod6", ["4", "--ring", "zmod=6", "--gens", "2", "--trunc", "8", "2*x1 + 5*x1*x2 + x2"]),
]
for command, settings in (("diff", DIFF_SETTINGS), ("gamma", GAMMA_SETTINGS)):
    for stem, args in settings:
        CASES += [(stem + ".txt", [command, *args]), (stem + ".json", [command, "--json", *args])]
_basis_args = ["omega-basis", "--gens", "2", "--weights", "2,1", "--trunc", "6", "--ring", "zmod=6"]
_weighted_oracle_args = ["oracle-omega", "--gens", "2", "--weights", "1,2", "--trunc", "6", "--ring", "zmod=4"]
# Over Z/6 the summands phi_q x_i with p = 5 invertible are dropped, and the
# JSON branch of indec prints the rest.
_indec_args = ["indec", "--gens", "2", "--weights", "1,2", "--trunc", "6", "--ring", "zmod=6"]
CASES += [
    ("omega-basis_g2_w21_n6_zmod6.txt", _basis_args),
    ("omega-basis_g2_w21_n6_zmod6.json", [*_basis_args, "--json"]),
    ("oracle-omega_g2_w12_n6_zmod4.txt", _weighted_oracle_args),
    ("oracle-omega_g2_w12_n6_zmod4.json", [*_weighted_oracle_args, "--json"]),
    ("indec_g2_w12_n6_zmod6.txt", _indec_args),
    ("indec_g2_w12_n6_zmod6.json", [*_indec_args, "--json"]),
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
    [
        ("umodule_g1_n6_z.json", free_spec(ZZ, 1, 6)),
        ("umodule_g2_n4_zmod6.json", free_spec(Ring(6), 2, 4)),
        # p = 5 <= N is invertible mod 6, so phi_5 has no table.
        ("umodule_g1_n5_zmod6.json", free_spec(Ring(6), 1, 5)),
        # Weighted generators: many (basis element, monomial) pairs act past N.
        ("umodule_g2_w12_n6_zmod4.json", free_spec(Ring(4), 2, 6, weights=(1, 2))),
        ("umodule_g2_w23_n7_z.json", free_spec(ZZ, 2, 7, weights=(2, 3))),
    ],
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


def test_u0_module_tables_match_golden():
    payload = {}
    for ring in (ZZ, Ring(6)):
        for cap in (6, 9):
            module = u0_module(free_spec(ring, 1, cap), cap)
            payload[f"{ring} cap {cap}"] = {
                "annihilators": module.annihilators,
                "phi_action": [[p, _nonzero(mat)] for p, mat in module.phi_action.items()],
            }
    _matches_golden("u0_module_tables.json", payload)


PRESENTATION_GOLDENS = [
    ("presentation_g1_n6_z.json", free_spec(ZZ, 1, 6)),
    # Twisted coefficients reduced mod gcd(p, 4), and shifts by weighted monomials.
    ("presentation_g2_w12_n6_zmod4.json", free_spec(Ring(4), 2, 6, weights=(1, 2))),
    # Two torsion primes: phi_2 coefficients are kept mod 2, phi_3 coefficients mod 3.
    ("presentation_g2_n5_zmod6.json", free_spec(Ring(6), 2, 5)),
]


def _entry_fields(entry):
    """A basis entry as the list of its fields, in constructor order."""
    return [entry.label, entry.phi, entry.amono, entry.weight, entry.annihilator]


@pytest.mark.parametrize("name, spec", PRESENTATION_GOLDENS, ids=[name for name, _ in PRESENTATION_GOLDENS])
def test_presentation_matches_golden(name, spec):
    _matches_golden(
        name,
        {
            str(sign): {
                str(w): {"entries": [_entry_fields(e) for e in s.entries], "rows": dense_rows(s)}
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


def _law_counts(report):
    """Per-law [passed, failed] counts in first-seen order, then every failure."""
    counts = {}
    for r in report.records:
        counts.setdefault(r.law, [0, 0])[0 if r.passed else 1] += 1
    return {
        "title": report.title,
        "laws": [[law, *c] for law, c in counts.items()],
        "failures": [[r.law, r.counterexample] for r in report.failures()],
    }


def _ill_defined_modules(spec):
    """The two ill-defined modules of test_module_validation_well_definedness."""
    return {
        "phi off p-torsion": UModule(spec, (3, 2), phi_action={2: [[0, 0], [1, 0]]}),
        "torsion into free": UModule(spec, (2, 0), a_action={((0, 1),): [[0, 0], [1, 0]]}),
    }


def _module_reports():
    spec = free_spec(ZZ, 1, 6)
    ill_defined = _ill_defined_modules(spec)
    modules = {
        "zero": zero_module(spec),
        "trivial (0, 2, 3)": trivial_module(spec, (0, 2, 3)),
        "u0 cap 6": u0_module(spec, 6),
        "mixed torsion": mixed_torsion_module(spec),
        "corrupted phi": corrupted_phi_module(spec),
        **ill_defined,
        "omega (1,6,Z)": omega_as_umodule(spec),
        "omega (2,4,Z/6)": omega_as_umodule(free_spec(Ring(6), 2, 4)),
        "omega (2,6,Z)": omega_as_umodule(free_spec(ZZ, 2, 6)),
    }
    yield from ((f"validate {name}", _law_counts(m.validate())) for name, m in modules.items())
    for name, module in ill_defined.items():
        yield f"beck {name}", _law_counts(verify_beck_axioms(module, samples=20, seed=3))
    omega = modules["omega (1,6,Z)"]
    table = universal_derivation_table(spec)
    doubled = dict(table)
    doubled[((0, 2),)] = tuple(2 * c for c in doubled[((0, 2),)])
    yield "derivation d", _law_counts(is_dp_derivation(table, omega, samples=40, seed=3))
    report = is_dp_derivation(doubled, omega, samples=40, seed=3)
    yield "derivation doubled gamma_2", _law_counts(report)
    values, report = factor_derivation_through_d(table, omega)
    yield "factorization of d", _law_counts(report)
    yield "factorization values", values


def test_module_records_match_golden():
    lines = [json.dumps([name, payload]) for name, payload in _module_reports()]
    # One report per line keeps the file compact and its diffs readable.
    assert "[\n" + ",\n".join(lines) + "\n]\n" == (GOLDEN / "module_records.json").read_text()
