"""Named property suites shared by the CLI `check` command and the tests.

Each suite returns a CheckReport; configurations are pinned here so that a
given suite means the same thing everywhere.
"""

from functools import partial

from .coeff import (
    Ring,
    ZZ,
    cartan_congruence_residue,
    gcd_middle_binomials,
    prime_power_decomposition,
    primes_up_to,
)
from .beck import (
    corrupted_phi_module,
    mixed_torsion_module,
    trivial_module,
    u0_module,
    verify_beck_axioms,
    zero_module,
)
from .dpcore import divided_power, dp_axiom_report, free_spec, gamma_gen, random_element
from .envelope import UElement
from .kahler import omega_as_umodule, phi_consequences_report, phi_inversion
from .report import CheckReport

AXIOM_RINGS = (ZZ, Ring(4), Ring(5), Ring(6))
AXIOM_RANKS = (1, 2)
AXIOM_TRUNCATIONS = (6, 10)


def suite_axioms(samples=200, seed=0):
    """The five DP axiom families over the pinned configuration grid."""
    report = CheckReport(f"DP axiom grid ({samples} samples per configuration)")
    for ring in AXIOM_RINGS:
        for rank in AXIOM_RANKS:
            for truncation in AXIOM_TRUNCATIONS:
                spec = free_spec(ring, rank, truncation)
                inner = dp_axiom_report(
                    ring, partial(random_element, spec), divided_power, samples, seed
                )
                failures = inner.failures()
                report.record(
                    f"axioms @ {ring}, rank {rank}, N={truncation}",
                    inner.passed,
                    failures[0].counterexample if failures else "",
                )
    return report


def suite_congruence(k_max=40, p_max=13):
    report = CheckReport(f"Cartan congruence, primes <= {p_max}, k <= {k_max}")
    for p in primes_up_to(p_max):
        bad = [k for k in range(1, k_max + 1) if cartan_congruence_residue(k, p) != 1]
        report.record(f"(kp)!/(k!(p!)^k) = 1 mod {p}", not bad, f"failing k: {bad}" if bad else "")
    return report


def suite_gcd(n_max=64):
    report = CheckReport(f"gcd of middle binomials, 2 <= n <= {n_max}")
    for n in range(2, n_max + 1):
        decomposition = prime_power_decomposition(n)
        expected = 1 if decomposition is None else decomposition[0]
        report.check(
            "gcd C(n,1..n-1) is 1 off prime powers, p at n=p^e",
            gcd_middle_binomials(n),
            expected,
            context=f"n={n}",
        )
    return report


def suite_inversion(truncation=12):
    """phi_n = d gamma_n - gamma_1 d gamma_{n-1} + ... resolves to a basis
    vector at prime powers and to 0 elsewhere."""
    spec = free_spec(ZZ, 1, truncation)
    x = gamma_gen(spec, 0, 1)
    report = CheckReport(f"phi inversion identity at N={truncation} over Z")
    for n in range(2, truncation + 1):
        result = phi_inversion(n, x)
        decomposition = prime_power_decomposition(n)
        if decomposition is None:
            report.check("inversion vanishes off prime powers", result.is_zero(), True, f"n={n}")
        else:
            expected = UElement(spec, {(((0, 1),), decomposition, None): 1})
            report.check(
                "inversion recovers 1 (x) phi_n (x) dx at prime powers",
                result,
                expected,
                context=f"n={n}",
            )
    return report


def beck_module_zoo(spec):
    """Structurally distinct valid modules, torsion mixtures included."""
    return [
        zero_module(spec),
        trivial_module(spec, (0, 2, 3)),
        u0_module(spec, spec.truncation),
        mixed_torsion_module(spec),
        trivial_module(spec, (4, 9, 0, 0, 2)),
        # the free rank-1 U(A)-module: Omega of the rank-1 free algebra
        omega_as_umodule(free_spec(spec.ring, 1, min(spec.truncation, 4))),
    ]


def suite_beck(samples=200, seed=0):
    spec = free_spec(ZZ, 1, 6)
    report = CheckReport(f"Beck semidirect axioms ({samples} samples per module)")
    for module in beck_module_zoo(spec):
        inner = verify_beck_axioms(module, samples=samples, seed=seed)
        failures = inner.failures()
        report.record(
            f"A (+) M axioms, annihilators {module.annihilators}",
            inner.passed,
            failures[0].counterexample if failures else "",
        )
    mod6 = free_spec(Ring(6), 1, 6)
    inner = verify_beck_axioms(trivial_module(mod6, (0, 2, 4)), samples=samples, seed=seed)
    report.record("A (+) M axioms over Z/6", inner.passed)
    corrupted = verify_beck_axioms(corrupted_phi_module(spec), samples=samples, seed=seed)
    report.record(
        "corrupted phi table is detected",
        not corrupted.passed,
        "" if not corrupted.passed else "corruption went unnoticed",
    )
    return report


def suite_remark54(rank=2, truncation=8):
    return phi_consequences_report(free_spec(ZZ, rank, truncation))


SUITES = {
    "axioms": suite_axioms,
    "congruence": suite_congruence,
    "gcd": suite_gcd,
    "inversion": suite_inversion,
    "beck": suite_beck,
    "remark54": suite_remark54,
}
