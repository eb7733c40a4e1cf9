import random

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import divided_power, free_spec, from_terms, gamma_gen, random_element
from dpalg.envelope import UNIT, UElement
from dpalg.kahler import (
    basis_index,
    factor_derivation_through_d,
    indecomposables,
    is_dp_derivation,
    omega_as_umodule,
    omega_basis_all,
    omega_coordinates,
    omega_free_basis,
    phi_inversion,
    presentation_of_omega,
    universal_derivation,
    universal_derivation_table,
)
from dpalg.linalg import cokernel_factors, invariant_factor_chain

RANK1 = free_spec(ZZ, 1, 8)
RANK2 = free_spec(ZZ, 2, 8)


def omega_single(spec, gen, phi, amono, coeff=1):
    return UElement(spec, {(((gen, 1),), phi, amono): coeff})


def test_d_of_generator():
    assert universal_derivation(gamma_gen(RANK1, 0, 1)) == omega_single(RANK1, 0, UNIT, None)


def test_d_of_gamma2():
    d = universal_derivation(gamma_gen(RANK1, 0, 2))
    expected = omega_single(RANK1, 0, UNIT, ((0, 1),)) + omega_single(RANK1, 0, (2, 1), None)
    assert d == expected


def test_d_of_gamma4():
    d = universal_derivation(gamma_gen(RANK1, 0, 4))
    expected = (
        omega_single(RANK1, 0, UNIT, ((0, 3),))
        + omega_single(RANK1, 0, (2, 1), ((0, 2),))
        + omega_single(RANK1, 0, (3, 1), ((0, 1),))
        + omega_single(RANK1, 0, (2, 2), None)
    )
    assert d == expected


def test_d_leibniz_on_product():
    x, y = gamma_gen(RANK2, 0, 1), gamma_gen(RANK2, 1, 1)
    d = universal_derivation(x * y)
    expected = omega_single(RANK2, 0, UNIT, ((1, 1),)) + omega_single(RANK2, 1, UNIT, ((0, 1),))
    assert d == expected


def test_d_is_linear_and_satisfies_leibniz_randomly():
    rng = random.Random(4)
    for ring in (ZZ, Ring(4), Ring(6)):
        spec = free_spec(ring, 2, 8)
        for _ in range(200):
            a = random_element(spec, rng, max_terms=2)
            b = random_element(spec, rng, max_terms=2)
            lhs = universal_derivation(a * b)
            rhs = universal_derivation(b).act_algebra(a) + universal_derivation(a).act_algebra(b)
            assert lhs == rhs, (ring, str(a), str(b))


def test_d_gamma_law_randomly():
    rng = random.Random(6)
    for ring in (ZZ, Ring(4), Ring(6)):
        spec = free_spec(ring, 2, 8)
        for _ in range(200):
            a = random_element(spec, rng, max_terms=2)
            n = rng.randint(2, 6)
            lhs = universal_derivation(divided_power(n, a))
            da = universal_derivation(a)
            rhs = da.act_phi_n(n)
            for i in range(1, n):
                rhs = rhs + da.act_phi_n(n - i).act_algebra(divided_power(i, a))
            assert lhs == rhs, (ring, str(a), n)


def test_omega_basis_weight_slices_rank1():
    slices = omega_free_basis(RANK1)
    w1 = [(e.phi, e.amono, e.annihilator) for e in slices[1]]
    assert w1 == [(UNIT, None, 0)]
    w2 = [(e.phi, e.amono, e.annihilator) for e in slices[2]]
    assert w2 == [(UNIT, ((0, 1),), 0), ((2, 1), None, 2)]
    w6 = [(e.phi, e.amono, e.annihilator) for e in slices[6]]
    assert w6 == [
        (UNIT, ((0, 5),), 0),
        ((2, 1), ((0, 4),), 2),
        ((3, 1), ((0, 3),), 3),
        ((2, 2), ((0, 2),), 2),
        ((5, 1), ((0, 1),), 5),
    ]


def test_omega_basis_drops_invertible_primes():
    spec = free_spec(Ring(2), 1, 4)
    slices = omega_free_basis(spec)
    assert all(e.phi == UNIT or e.phi[0] == 2 for w in slices for e in slices[w])


def test_omega_coordinates_roundtrip():
    entries = omega_basis_all(RANK2)
    index = basis_index(entries)
    rng = random.Random(12)
    for _ in range(30):
        a = random_element(RANK2, rng, max_terms=2)
        coords = omega_coordinates(universal_derivation(a), index)
        rebuilt = UElement(RANK2)
        for c, entry in zip(coords, entries):
            if c:
                rebuilt = rebuilt + entry.element(RANK2).scale(c)
        assert rebuilt == universal_derivation(a)


def test_phi_inversion_identity():
    from dpalg.coeff import prime_power_decomposition

    spec = free_spec(ZZ, 1, 12)
    x = gamma_gen(spec, 0, 1)
    for n in (2, 3, 4, 5, 7, 8, 9, 11):
        expected = omega_single(spec, 0, prime_power_decomposition(n), None)
        assert phi_inversion(n, x) == expected, n
    for n in (6, 10, 12):
        assert phi_inversion(n, x).is_zero(), n


def test_phi_inversion_agrees_with_action_route():
    # phi_n(da) computed by the U(A)-action equals the alternating sum.
    rng = random.Random(19)
    spec = free_spec(ZZ, 1, 10)
    for _ in range(40):
        a = random_element(spec, rng, max_terms=2)
        n = rng.randint(2, 8)
        assert phi_inversion(n, a) == universal_derivation(a).act_phi_n(n), (str(a), n)


def test_omega_module_is_valid_and_d_is_a_derivation():
    spec = free_spec(ZZ, 2, 6)
    module = omega_as_umodule(spec)
    assert module.validate().passed
    table = universal_derivation_table(spec)
    report = is_dp_derivation(table, module, samples=60, seed=21)
    assert report.passed, report.summary()


def test_is_dp_derivation_negative_control():
    spec = free_spec(ZZ, 1, 6)
    module = omega_as_umodule(spec)
    table = dict(universal_derivation_table(spec))
    corrupted = list(table[((0, 2),)])
    corrupted[0] += 1  # break s(gamma_2 x)
    table[((0, 2),)] = tuple(corrupted)
    report = is_dp_derivation(table, module, samples=40, seed=21)
    assert not report.passed
    failed = {r.law for r in report.failures()}
    assert "s(gamma_n a) = phi_n(sa) + sum gamma_i(a) phi_j(sa)" in failed


def test_factorization_through_d():
    spec = free_spec(ZZ, 2, 6)
    module = omega_as_umodule(spec)
    table = universal_derivation_table(spec)
    values, report = factor_derivation_through_d(table, module)
    assert report.passed, report.summary()
    # f composed with a U(A)-module map is again checked by construction:
    # scale the generator images and verify the scaled derivation factors.
    scaled_table = {m: module.scale_vec(3, v) for m, v in table.items()}
    values3, report3 = factor_derivation_through_d(scaled_table, module)
    assert report3.passed
    assert values3 == [module.scale_vec(3, v) for v in values]


def test_factorization_from_arbitrary_generator_images():
    # Any choice of generator images m_i induces a U(A)-map f on Omega, and
    # s = f o d is then a DP derivation whose factorization recovers the m_i.
    spec = free_spec(ZZ, 2, 6)
    module = omega_as_umodule(spec)
    entries = omega_basis_all(spec)
    index = basis_index(entries)
    rng = random.Random(41)
    from dpalg.dpcore import basis_up_to, from_terms

    for _ in range(5):
        images = [module.random_vec(rng) for _ in range(spec.generator_count)]

        def f(omega_el):
            out = module.zero_vec()
            for c, entry in zip(omega_coordinates(omega_el, index), entries):
                if not c:
                    continue
                vec = images[entry.label[0][0]]
                if entry.phi != ():
                    p, e = entry.phi
                    for _ in range(e):
                        vec = module.phi_p(p, vec)
                if entry.amono is not None:
                    vec = module.act_monomial(entry.amono, vec)
                out = module.add_vec(out, module.scale_vec(c, vec))
            return out

        table = {
            mono: f(universal_derivation(from_terms(spec, {mono: 1})))
            for mono in basis_up_to(spec)
        }
        derivation_report = is_dp_derivation(table, module, samples=40, seed=rng.randint(0, 999))
        assert derivation_report.passed, derivation_report.summary()
        recovered, factor_report = factor_derivation_through_d(table, module)
        assert factor_report.passed, factor_report.summary()
        assert recovered == images


def test_presentation_weight2_rank1():
    slices = presentation_of_omega(free_spec(ZZ, 1, 4))
    slice2 = slices[2]
    anns = [e.annihilator for e in slice2.entries]
    factors = cokernel_factors(len(slice2.entries), slice2.rows, ZZ, column_annihilators=anns)
    assert factors == (2, 0)


@pytest.mark.parametrize(
    "ring,rank", [(ZZ, 1), (ZZ, 2), (Ring(6), 2), (Ring(4), 1)], ids=str
)
def test_presentation_matches_omega(ring, rank):
    spec = free_spec(ring, rank, 6)
    slices = presentation_of_omega(spec)
    omega = omega_free_basis(spec)
    for w in range(1, 7):
        s = slices[w]
        got = cokernel_factors(
            len(s.entries), s.rows, ring, column_annihilators=[e.annihilator for e in s.entries]
        )
        expected = invariant_factor_chain([e.annihilator for e in omega[w]], ring)
        assert got == expected, f"weight {w}: {got} != {expected}"


def test_presentation_weight1_has_no_relations():
    slices = presentation_of_omega(free_spec(ZZ, 2, 4))
    assert slices[1].rows == []
    assert len(slices[1].entries) == 2


def test_presentation_sign_decision_observable_at_weight3():
    # With the alternative (paper-typeset) plus sign the weight-3 slice over Z
    # fails to match Omega; the implemented minus sign matches.
    spec = free_spec(ZZ, 1, 6)
    omega = omega_free_basis(spec)
    expected3 = invariant_factor_chain([e.annihilator for e in omega[3]], ZZ)
    minus = presentation_of_omega(spec, gamma_relation_sign=-1)[3]
    plus = presentation_of_omega(spec, gamma_relation_sign=+1)[3]
    got_minus = cokernel_factors(
        len(minus.entries), minus.rows, ZZ, column_annihilators=[e.annihilator for e in minus.entries]
    )
    got_plus = cokernel_factors(
        len(plus.entries), plus.rows, ZZ, column_annihilators=[e.annihilator for e in plus.entries]
    )
    assert got_minus == expected3
    assert got_plus != expected3


def test_indecomposables_rank1_N12():
    spec = free_spec(ZZ, 1, 12)
    q = indecomposables(spec)
    table = {w: sorted(q.annihilators_of_weight(w)) for w in range(1, 13)}
    assert table[1] == [0]
    assert table[2] == [2] and table[4] == [2] and table[8] == [2]
    assert table[3] == [3] and table[9] == [3]
    assert table[5] == [5] and table[7] == [7] and table[11] == [11]
    assert table[6] == [] and table[10] == [] and table[12] == []


def test_indecomposables_rank1_N1():
    q = indecomposables(free_spec(ZZ, 1, 1))
    assert q.summands == [(1, 0, 0)]


def test_indecomposables_rank2_mod2():
    spec = free_spec(Ring(2), 2, 3)
    q = indecomposables(spec)
    assert sorted(q.annihilators_of_weight(1)) == [0, 0]
    assert sorted(q.annihilators_of_weight(2)) == [2, 2]
    assert q.annihilators_of_weight(3) == []  # phi_3 dies over Z/2


def test_format_omega():
    d4 = universal_derivation(gamma_gen(RANK1, 0, 4))
    assert str(d4) == "g3(x1)*dx1 + g2(x1)*ph2*dx1 + x1*ph3*dx1 + ph2^2*dx1"
    assert str(UElement(RANK1)) == "0"
    assert str(omega_single(RANK1, 0, UNIT, None)) == "dx1"
