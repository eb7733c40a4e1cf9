"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
enforces the stated runtime budget.  All comparisons are exact; nothing is
floating point.
"""

import json
import random
import time

from dpalg.coeff import Ring, ZZ, cartan_congruence_residue, gcd_middle_binomials, primes_up_to
from dpalg.cli import run as cli_run
from dpalg.dpcore import format_element, free_spec, random_element
from dpalg.kahler import omega_free_basis, presentation_of_omega
from dpalg.linalg import cokernel_factors, invariant_factor_chain
from dpalg.oracle import verify_indecomposables, verify_main_theorem
from dpalg.parser import parse_and_evaluate
from dpalg.suites import suite_axioms, suite_beck, suite_inversion, suite_remark54


def _conclude(number, name, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{elapsed:.2f}s / budget {budget}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    report = suite_axioms(samples=200, seed=2024)
    elapsed = time.perf_counter() - start
    _conclude(1, "DP axiom families on the full grid", report.passed, elapsed, 60)


def test_criterion_2_cartan_congruence():
    start = time.perf_counter()
    ok = all(
        cartan_congruence_residue(k, p) == 1
        for p in primes_up_to(13)
        for k in range(1, 41)
    )
    elapsed = time.perf_counter() - start
    _conclude(2, "Cartan congruence", ok, elapsed, 5)


def test_criterion_3_gcd_lemma():
    start = time.perf_counter()
    expected = {}
    for n in range(2, 65):
        m, powers = n, []
        p = 2
        while p * p <= m:
            if m % p == 0:
                powers.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            powers.append(m)
        expected[n] = powers[0] if len(powers) == 1 else 1
    ok = all(gcd_middle_binomials(n) == expected[n] for n in range(2, 65))
    elapsed = time.perf_counter() - start
    _conclude(3, "gcd of middle binomials", ok, elapsed, 1)


def test_criterion_4_main_theorem_desk_scale():
    start = time.perf_counter()
    ok = True
    for rank in (1, 2):
        for truncation in (2, 4, 6):
            for ring in (ZZ, Ring(4), Ring(6)):
                report = verify_main_theorem(free_spec(ring, rank, truncation))
                if not report.passed:
                    ok = False
                    print(report.summary())
    elapsed = time.perf_counter() - start
    _conclude(4, "main theorem: I/I^2 = U(A) (x) V gradewise", ok, elapsed, 600)


def test_criterion_5_inversion_identity():
    start = time.perf_counter()
    report = suite_inversion(truncation=12)
    elapsed = time.perf_counter() - start
    _conclude(5, "phi inversion identity up to 12", report.passed, elapsed, 10)


def test_criterion_6_indecomposables():
    start = time.perf_counter()
    spec = free_spec(ZZ, 1, 12)
    oracle_spec_table = {}
    closed = {
        1: (0,),
        2: (2,),
        3: (3,),
        4: (2,),
        5: (5,),
        6: (),
        7: (7,),
        8: (2,),
        9: (3,),
        10: (),
        11: (11,),
        12: (),
    }
    from dpalg.dpcore import basis_of_weight, coordinates, from_terms, position_index
    from itertools import combinations_with_replacement

    ok = True
    for w in range(1, 13):
        basis = basis_of_weight(spec, w)
        index = position_index(basis)
        rows = []
        for w1 in range(1, w // 2 + 1):
            w2 = w - w1
            left, right = basis_of_weight(spec, w1), basis_of_weight(spec, w2)
            pairs = (
                combinations_with_replacement(left, 2)
                if w1 == w2
                else ((m, n) for m in left for n in right)
            )
            for m, n in pairs:
                rows.append(coordinates(from_terms(spec, {m: 1}) * from_terms(spec, {n: 1}), index))
        oracle_spec_table[w] = cokernel_factors(len(basis), rows, ZZ)
        ok = ok and oracle_spec_table[w] == closed[w]
    for rank, rings in ((2, (ZZ, Ring(6))),):
        for truncation in (2, 4, 6):
            for ring in rings:
                report = verify_indecomposables(free_spec(ring, rank, truncation))
                ok = ok and report.passed
    elapsed = time.perf_counter() - start
    _conclude(6, "indecomposables A/A^2 = U(0) (x) V", ok, elapsed, 60)


def test_criterion_7_beck_modules():
    start = time.perf_counter()
    report = suite_beck(samples=200, seed=77)
    elapsed = time.perf_counter() - start
    _conclude(7, "Beck semidirect axioms + negative control", report.passed, elapsed, 60)


def test_criterion_8_derivation_consequences():
    start = time.perf_counter()
    report = suite_remark54(rank=2, truncation=8)
    elapsed = time.perf_counter() - start
    _conclude(8, "derivation consequence identities", report.passed, elapsed, 30)


def test_criterion_9_presentation_consistency():
    start = time.perf_counter()
    spec = free_spec(ZZ, 1, 6)
    omega = omega_free_basis(spec)
    slices = presentation_of_omega(spec, gamma_relation_sign=-1)
    ok = True
    for w in range(1, 7):
        s = slices[w]
        got = cokernel_factors(
            len(s.entries), s.rows, ZZ, column_annihilators=[e.annihilator for e in s.entries]
        )
        expected = invariant_factor_chain([e.annihilator for e in omega[w]], ZZ)
        ok = ok and got == expected
    # the alternative sign is observably wrong at the odd prime 3
    alt = presentation_of_omega(spec, gamma_relation_sign=+1)[3]
    alt_factors = cokernel_factors(
        len(alt.entries), alt.rows, ZZ, column_annihilators=[e.annihilator for e in alt.entries]
    )
    ok = ok and alt_factors != invariant_factor_chain([e.annihilator for e in omega[3]], ZZ)
    elapsed = time.perf_counter() - start
    _conclude(9, "presentation SNF = closed form (sign decision)", ok, elapsed, 60)


def test_criterion_10_cli(capsys):
    start = time.perf_counter()
    ok = True
    rng = random.Random(1234)
    for _ in range(200):
        spec = free_spec(rng.choice([ZZ, Ring(4), Ring(6)]), rng.choice([1, 2]), 8)
        el = random_element(spec, rng, max_terms=4)
        ok = ok and parse_and_evaluate(format_element(el), spec) == el
    code = cli_run(["normalize", "--ring", "z", "--gens", "1", "--trunc", "8", "g2(x1)*g3(x1)"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out.strip() == "10*g5(x1)"
    code = cli_run(["oracle-omega", "--ring", "zmod=6", "--gens", "1", "--trunc", "4", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = ok and code == 0 and payload["passed"] is True
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _conclude(10, "CLI round-trip, normalize, oracle", ok, elapsed, 10)
