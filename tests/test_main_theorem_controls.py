"""Negative controls for ``verify_main_theorem``: each corrupts one seam of the
oracle path or of the closed form it is compared with, and the report must
fail the law that seam feeds.  A verifier whose checks could never fail would
pass every test elsewhere; these show that each of its seven check families
can."""

import pytest

from dpalg import oracle as oracle_module
from dpalg.cli import run
from dpalg.coeff import ZZ
from dpalg.dpcore import free_spec, from_terms
from dpalg.kahler import BasisEntry
from dpalg.oracle import OmegaOracle, verify_main_theorem

SPEC = free_spec(ZZ, 2, 5)


def set_w2_phi_annihilator(monkeypatch, annihilator):
    """The closed form with the first w=2 phi entry's annihilator (2) replaced."""
    real = oracle_module.omega_free_basis

    def corrupted(spec):
        closed = dict(real(spec))
        first = next(i for i, e in enumerate(closed[2]) if e.phi)
        assert closed[2][first].annihilator == 2
        closed[2] = list(closed[2])
        e = closed[2][first]
        closed[2][first] = BasisEntry(e.label, e.phi, e.amono, e.weight, annihilator)
        return closed

    monkeypatch.setattr(oracle_module, "omega_free_basis", corrupted)


def free_w2_phi_entry(monkeypatch):
    set_w2_phi_annihilator(monkeypatch, 0)


def three_torsion_w2_phi_entry(monkeypatch):
    set_w2_phi_annihilator(monkeypatch, 3)


def doubled_universal_derivation(monkeypatch):
    real = oracle_module.universal_derivation
    monkeypatch.setattr(oracle_module, "universal_derivation", lambda a: real(a).scale(2))


def swapped_universal_derivation(monkeypatch):
    """d(x1) read as d(x2) and back: each image lands in the other generator's block."""
    real = oracle_module.universal_derivation

    def corrupted(a):
        swapped = {tuple(sorted((1 - g, e) for g, e in m)): c for m, c in a.terms.items()}
        return real(from_terms(a.spec, swapped))

    monkeypatch.setattr(oracle_module, "universal_derivation", corrupted)


def doubled_multiple_reps(monkeypatch):
    real = oracle_module._closed_form_rep

    def corrupted(oracle, entry, phi_dx, d, in_1):
        rep = real(oracle, entry, phi_dx, d, in_1)
        return rep.scale(2) if entry.amono is not None else rep

    monkeypatch.setattr(oracle_module, "_closed_form_rep", corrupted)


def shifted_phi_class(monkeypatch):
    real = OmegaOracle.phi_class

    def corrupted(self, p, element):
        target, image = real(self, p, element)
        return target, [x + 1 for x in image]

    monkeypatch.setattr(OmegaOracle, "phi_class", corrupted)


def no_phi_2(monkeypatch):
    real = oracle_module.phi_of
    monkeypatch.setattr(oracle_module, "phi_of", lambda n: None if n == 2 else real(n))


def doubled_derivation_above_weight_1(monkeypatch):
    real = OmegaOracle.derivation_rep

    def corrupted(self, a):
        rep = real(self, a)
        return rep.scale(2) if all(a.spec.monomial_weight(m) > 1 for m in a.terms) else rep

    monkeypatch.setattr(OmegaOracle, "derivation_rep", corrupted)


# (corruption, the law it must fail, the first counterexample where it names a block)
CONTROLS = [
    (free_w2_phi_entry, "invariant factors (w=2)", None),
    (
        three_torsion_w2_phi_entry,
        "comparison map well-defined (w=2)",
        "ph2*dx1 in block ((0, 2),): False != True",
    ),
    (doubled_multiple_reps, "comparison map surjective", None),
    (
        doubled_universal_derivation,
        "d matches in_2 - in_1",
        "monomial ((0, 1),) in block ((0, 1),): False != True",
    ),
    (
        shifted_phi_class,
        "phi_2 kills A_+-multiples and foreign primes",
        "x1*dx1 in block ((0, 4),): False != True",  # phi_2 of block ((0, 2),) lands in ((0, 4),)
    ),
    (
        swapped_universal_derivation,
        "d matches in_2 - in_1",
        "monomial ((0, 1),) in block ((0, 1),) and block ((1, 1),): False != True",
    ),
    (no_phi_2, "derivation gamma-law in I/I^2", None),
    (doubled_derivation_above_weight_1, "Leibniz law in I/I^2", None),
]


def test_the_uncorrupted_report_passes_every_control_law():
    report = verify_main_theorem(SPEC)
    assert report.passed, report.summary()
    laws = {r.law for r in report.records}
    for _, law, _ in CONTROLS:
        assert any(name.startswith(law) for name in laws), law


@pytest.mark.parametrize("corrupt, law, counterexample", CONTROLS, ids=[c[0].__name__ for c in CONTROLS])
def test_each_check_family_fails_under_its_corruption(monkeypatch, corrupt, law, counterexample):
    corrupt(monkeypatch)
    report = verify_main_theorem(SPEC)
    failed = [r for r in report.failures() if r.law.startswith(law)]
    assert failed, report.summary()
    if counterexample:
        assert failed[0].counterexample == counterexample


def test_oracle_omega_exits_one_under_a_corruption(monkeypatch, capsys):
    no_phi_2(monkeypatch)
    code = run(["oracle-omega", "--gens", "2", "--trunc", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] derivation gamma-law in I/I^2" in out
