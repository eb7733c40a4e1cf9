from math import comb, factorial, gcd

import pytest

from dpalg.coeff import (
    Ring,
    ZZ,
    cartan_congruence_residue,
    gamma_compose_coeff,
    gcd_middle_binomials,
    is_prime,
    prime_power_decomposition,
    prime_powers_up_to,
    primes_up_to,
)


def test_ring_validation():
    Ring(0)
    Ring(2)
    Ring(6)
    with pytest.raises(ValueError):
        Ring(1)
    with pytest.raises(ValueError):
        Ring(-3)


def test_canonical_residues():
    r6 = Ring(6)
    assert r6.normalize(-1) == 5
    assert ZZ.normalize(-7) == -7


def test_effective_annihilator():
    assert ZZ.effective_annihilator(0) == 0
    assert ZZ.effective_annihilator(4) == 4
    r6 = Ring(6)
    assert r6.effective_annihilator(0) == 6
    assert r6.effective_annihilator(2) == 2
    assert r6.effective_annihilator(5) == 1
    assert r6.effective_annihilator(4) == 2


@pytest.mark.parametrize("m,n,expected", [(2, 2, 3), (3, 2, 15), (4, 1, 1), (7, 1, 1)])
def test_gamma_compose_coeff_examples(m, n, expected):
    assert gamma_compose_coeff(m, n) == expected


def test_gamma_compose_matches_product_expansion():
    # gamma_n(x)^m carries coefficient (mn)!/(n!)^m when expanded by the
    # product rule one factor at a time; composing instead divides by m!.
    for m in range(1, 13):
        for n in range(1, 13):
            expansion = 1
            for s in range(1, m):
                expansion *= comb((s + 1) * n, n)
            assert expansion == factorial(m * n) // factorial(n) ** m
            assert gamma_compose_coeff(m, n) * factorial(m) == expansion


@pytest.mark.parametrize("n,expected", [(6, 1), (8, 2)])
def test_gcd_middle_binomials_examples(n, expected):
    assert gcd_middle_binomials(n) == expected


def test_gcd_middle_binomials_nine():
    # Independent route: direct gcd over C(9, 1..8).
    direct = 0
    for i in range(1, 9):
        direct = gcd(direct, comb(9, i))
    assert direct == 3
    assert gcd_middle_binomials(9) == 3


def test_gcd_middle_binomials_prime_power_dichotomy():
    for n in range(2, 65):
        decomposition = prime_power_decomposition(n)
        if decomposition is None:
            assert gcd_middle_binomials(n) == 1, n
        else:
            assert gcd_middle_binomials(n) == decomposition[0], n


def test_cartan_congruence_examples():
    assert factorial(6) // (factorial(2) * factorial(3) ** 2) == 10
    assert cartan_congruence_residue(2, 3) == 1
    for p in (2, 3, 5, 7):
        assert cartan_congruence_residue(1, p) == 1
    assert cartan_congruence_residue(4, 5) == 1


def test_cartan_congruence_full_range():
    for p in primes_up_to(13):
        for k in range(1, 41):
            assert cartan_congruence_residue(k, p) == 1


def test_cartan_rejects_composite():
    with pytest.raises(ValueError):
        cartan_congruence_residue(3, 6)
    with pytest.raises(ValueError):
        cartan_congruence_residue(3, 1)


def test_prime_helpers():
    assert primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    assert not is_prime(1)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(13) == (13, 1)
    assert prime_powers_up_to(12) == [2, 3, 4, 5, 7, 8, 9, 11]
