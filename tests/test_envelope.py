import random
from math import gcd

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import basis_up_to, free_spec, from_terms, gamma_gen, random_element
from dpalg.envelope import (
    UNIT,
    UElement,
    env_algebra,
    env_phi,
    env_unit,
    phi_degree,
    phi_mul,
    phi_of,
    u0_basis_up_to,
)
from dpalg.kahler import generator_labels

SPEC = free_spec(ZZ, 1, 6)


def a_plus(r, a, phi=UNIT):
    """(a + r) (x) phi in U(A), for a in A and a scalar r."""
    return UElement(a.spec, {((), phi, None): r, **{((), phi, m): c for m, c in a.terms.items()}})


def a_plus_part(u, phi=UNIT):
    """The A_+ coefficient of phi in u, as (scalar, element of A)."""
    scalar = u.terms.get(((), phi, None), 0)
    alg = {m: c for (_, mu, m), c in u.terms.items() if mu == phi and m is not None}
    return scalar, from_terms(u.spec, alg)


def test_phi_of():
    assert phi_of(1) == UNIT
    assert phi_of(8) == (2, 3)
    assert phi_of(6) is None
    assert phi_of(49) == (7, 2)
    with pytest.raises(ValueError):
        phi_of(0)


def test_phi_monomial_product_and_degree():
    assert phi_mul(UNIT, (3, 2)) == (3, 2)
    assert phi_mul((2, 1), (2, 3)) == (2, 4)
    assert phi_mul((2, 1), (3, 1)) is None
    assert phi_degree(UNIT) == 1
    assert phi_degree((2, 3)) == 8
    # degree multiplicativity on nonzero products
    for a in (UNIT, (2, 1), (2, 2), (3, 1), (5, 2)):
        for b in (UNIT, (2, 1), (2, 2), (3, 1)):
            product = phi_mul(a, b)
            if product is not None:
                assert phi_degree(product) == phi_degree(a) * phi_degree(b)


def test_aug_product_is_unitalization():
    x = gamma_gen(SPEC, 0, 1)
    one = env_unit(SPEC)
    a = env_algebra(x)
    assert one * a == a  # (0,1) is the unit
    assert a * one == a
    assert a_plus_part(a * a) == (0, x * x)
    mixed = a_plus(2, x)
    # (x + 2)(x + 2) = x^2 + 4x + 4
    square = mixed * mixed
    assert a_plus_part(square) == (4, x * x + x.scale(4))


def test_envelope_mul_paper_rules():
    x = gamma_gen(SPEC, 0, 1)
    xe = env_algebra(x)
    f2 = env_phi(SPEC, 2)
    f3 = env_phi(SPEC, 3)
    # (a x 1)(1 x phi_2) = a x phi_2
    assert (xe * f2).terms == {((), (2, 1), ((0, 1),)): 1}
    # (1 x phi_2)(a x 1) = 0
    assert (f2 * xe).is_zero()
    # distinct primes annihilate
    assert (f2 * f3).is_zero()
    assert (f3 * f2).is_zero()
    # twist: (1 x phi_2)(5 x 1) = 5^2 x phi_2 = 1 x phi_2 after mod-2 reduction
    five = env_unit(SPEC, 5)
    assert f2 * five == f2
    # same-prime powers multiply
    assert (f2 * f2).terms == {((), (2, 2), None): 1}


def test_envelope_coefficients_reduced_mod_p():
    f2 = env_phi(SPEC, 2, scalar=4)
    assert f2.is_zero()
    assert env_phi(SPEC, 2, scalar=5) == env_phi(SPEC, 2)
    x = gamma_gen(SPEC, 0, 1)
    el = a_plus(0, x.scale(7), (3, 1))
    assert el == a_plus(0, x, (3, 1))  # 7 = 1 mod 3


def test_envelope_over_zmod_drops_invertible_primes():
    spec3 = free_spec(Ring(3), 1, 6)
    assert env_phi(spec3, 2).is_zero()  # 2 invertible mod 3
    assert not env_phi(spec3, 3).is_zero()
    spec6 = free_spec(Ring(6), 1, 6)
    assert not env_phi(spec6, 2).is_zero()
    assert not env_phi(spec6, 3).is_zero()
    assert env_phi(spec6, 5).is_zero()


def test_unit_terms_multiply_as_a_plus():
    rng = random.Random(2)
    for _ in range(50):
        a = random_element(SPEC, rng)
        b = random_element(SPEC, rng)
        ra, rb = rng.randint(-9, 9), rng.randint(-9, 9)
        u = env_algebra(a) + env_unit(SPEC, ra)
        v = env_algebra(b) + env_unit(SPEC, rb)
        assert u * v == v * u
        # (a + ra)(b + rb) = (ab + rb a + ra b) + ra rb
        expected = (ra * rb, a * b + a.scale(rb) + b.scale(ra))
        assert a_plus_part(u * v) == expected


def _random_envelope(spec, rng):
    el = UElement(spec)
    for _ in range(rng.randint(0, 3)):
        phi = rng.choice([UNIT, (2, 1), (2, 2), (3, 1), (5, 1)])
        el = el + a_plus(rng.randint(-6, 6), random_element(spec, rng, max_terms=2), phi)
    return el


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)])
def test_envelope_mul_associative(ring):
    spec = free_spec(ring, 1, 5)
    rng = random.Random(31)
    for _ in range(200):
        u = _random_envelope(spec, rng)
        v = _random_envelope(spec, rng)
        w = _random_envelope(spec, rng)
        assert (u * v) * w == u * (v * w)


def test_p_torsion_of_stored_terms():
    rng = random.Random(8)
    for _ in range(100):
        el = _random_envelope(SPEC, rng)
        for (_, phi, amono), c in el.terms.items():
            if phi != UNIT:
                assert 0 < c < phi[0]
                assert (c * phi[0]) % phi[0] == 0
                scaled = el.scale(phi[0])
                assert all(key[1] != phi for key in scaled.terms)


def _random_low_weight(spec, rng, labels):
    """A random element of the free U(A)-module on ``labels`` with phi-parts
    of degree <= 3 and A_+ parts of weight <= 2, so products rarely vanish."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        label = rng.choice(labels)
        phi = rng.choice([UNIT, UNIT, (2, 1), (3, 1)])
        amono = rng.choice([None, *basis_up_to(spec, 2)])
        terms[(label, phi, amono)] = rng.randint(-6, 6)
    return UElement(spec, terms)


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=str)
@pytest.mark.parametrize("module", ["omega", "ambient"])
def test_module_action_is_associative(ring, module):
    spec = free_spec(ring, 2, 8)
    labels = generator_labels(spec) if module == "omega" else basis_up_to(spec, 2)
    rng = random.Random(47)
    nonzero = 0
    for _ in range(300):
        u = _random_low_weight(spec, rng, [()])
        v = _random_low_weight(spec, rng, [()])
        m = _random_low_weight(spec, rng, labels)
        lhs = (u * v) * m
        assert lhs == u * (v * m)
        nonzero += not lhs.is_zero()
    assert nonzero > 20  # the law is not checked on zeros alone


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=str)
def test_phi_p_is_p_semilinear_on_modules(ring):
    spec = free_spec(ring, 2, 6)
    rng = random.Random(53)
    labels = generator_labels(spec) + basis_up_to(spec, 2)
    for _ in range(100):
        m = _random_low_weight(spec, rng, labels)
        r = rng.randint(-9, 9)
        for p in (2, 3, 5):
            assert m.scale(r).act_phi(p) == m.act_phi(p).scale(ring.pow(ring.normalize(r), p))


def test_product_refuses_module_left_factors_and_foreign_specs():
    dx = UElement(SPEC, {(((0, 1),), UNIT, None): 1})
    with pytest.raises(ValueError):
        dx * dx
    with pytest.raises(ValueError):
        dx * env_unit(SPEC)
    with pytest.raises(ValueError):
        env_unit(free_spec(Ring(6), 1, 6)) * dx
    with pytest.raises(ValueError):
        env_unit(free_spec(ZZ, 1, 5)) + env_unit(SPEC)
    assert env_phi(SPEC, 2) * dx == UElement(SPEC, {(((0, 1),), (2, 1), None): 1})


def test_phi_p_phi_q_vanishing_is_forced():
    # p*(phi_p phi_q) = 0 from the left relation, and q^p*(phi_p phi_q) = 0
    # from pushing q phi_q = 0 through the twist; Bezout then kills the
    # element over Z since gcd(p, q^p) = 1.
    for p, q in [(2, 3), (3, 2), (2, 5), (5, 3)]:
        assert gcd(p, q**p) == 1


def test_u0_basis():
    assert u0_basis_up_to(5, ZZ) == [
        (UNIT, 0),
        ((2, 1), 2),
        ((3, 1), 3),
        ((2, 2), 2),
        ((5, 1), 5),
    ]
    assert u0_basis_up_to(1, ZZ) == [(UNIT, 0)]
    assert u0_basis_up_to(4, Ring(3)) == [(UNIT, 0), ((3, 1), 3)]
    assert u0_basis_up_to(6, Ring(6)) == [
        (UNIT, 0),
        ((2, 1), 2),
        ((3, 1), 3),
        ((2, 2), 2),
    ]


def test_u0_basis_closed_under_multiplication():
    # Products of basis monomials land in the Z-span of the basis (or 0).
    cap = 9
    basis = [phi for phi, _ in u0_basis_up_to(cap, ZZ)]
    for a in basis:
        for b in basis:
            product = phi_mul(a, b)
            assert product is None or phi_degree(product) > cap or product in basis
