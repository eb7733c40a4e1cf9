import random

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.beck import trivial_module
from dpalg.dpcore import (
    basis_of_weight,
    divided_power,
    dp_axiom_report,
    dp_map_apply,
    free_spec,
    from_terms,
    gamma_gen,
    random_element,
)
from dpalg.oracle import (
    OmegaOracle,
    ProductElement,
    coproduct,
    fold_kernel,
    unital_product_collapse,
    verify_indecomposables,
    verify_main_theorem,
)

RANK1 = free_spec(ZZ, 1, 6)


def test_coproduct_spec_and_inclusions():
    co = coproduct(RANK1, RANK1)
    assert co.spec.generator_count == 2
    assert co.spec.truncation == 6
    x = gamma_gen(RANK1, 0, 1)
    assert co.include_left(x) == gamma_gen(co.spec, 0, 1)
    assert co.include_right(x) == gamma_gen(co.spec, 1, 1)
    with pytest.raises(ValueError):
        coproduct(RANK1, free_spec(Ring(5), 1, 6))


@pytest.mark.parametrize("ring", [ZZ, Ring(6)], ids=["Z", "Z/6"])
def test_inclusions_match_the_dp_map_on_generators(ring):
    rng = random.Random(11)
    # Equal ranks 1-3, and weights (1, 2) beside a rank-1 summand of lower
    # truncation, so both the offset and the truncation cut show.
    for a_spec, b_spec in (
        (free_spec(ring, 1, 6), free_spec(ring, 1, 6)),
        (free_spec(ring, 2, 5), free_spec(ring, 2, 5)),
        (free_spec(ring, 3, 4), free_spec(ring, 3, 4)),
        (free_spec(ring, 2, 6, weights=(1, 2)), free_spec(ring, 1, 4)),
    ):
        co = coproduct(a_spec, b_spec)
        offset = a_spec.generator_count
        left_images = [gamma_gen(co.spec, i, 1) for i in range(a_spec.generator_count)]
        right_images = [gamma_gen(co.spec, offset + i, 1) for i in range(b_spec.generator_count)]
        for _ in range(40):
            a = random_element(a_spec, rng, max_terms=4)
            b = random_element(b_spec, rng, max_terms=4)
            assert co.include_left(a) == dp_map_apply(left_images, a)
            assert co.include_right(b) == dp_map_apply(right_images, b)


def test_inclusions_refuse_elements_of_the_wrong_summand():
    a_spec = free_spec(ZZ, 2, 5, weights=(1, 2))
    b_spec = free_spec(ZZ, 1, 5)
    co = coproduct(a_spec, b_spec)
    from_a = gamma_gen(a_spec, 1, 1)
    from_b = gamma_gen(b_spec, 0, 2)
    other_ring = gamma_gen(free_spec(Ring(6), 2, 5, weights=(1, 2)), 0, 1)
    for include, element in (
        (co.include_left, from_b),
        (co.include_right, from_a),
        (co.include_left, other_ring),
        (co.include_left, gamma_gen(co.spec, 0, 1)),
        (co.include_right, gamma_gen(co.spec, 2, 1)),
    ):
        with pytest.raises(ValueError):
            include(element)


def test_coproduct_weight2_component_split():
    co = coproduct(RANK1, RANK1)
    split = [co.component(m) for m in basis_of_weight(co.spec, 2)]
    assert split == ["left", "mixed", "right"]


def test_coproduct_component_partition_counts():
    a = free_spec(ZZ, 2, 5)
    b = free_spec(ZZ, 1, 5)
    co = coproduct(a, b)
    for w in range(1, 6):
        groups = {"left": 0, "mixed": 0, "right": 0}
        for m in basis_of_weight(co.spec, w):
            groups[co.component(m)] += 1
        assert groups["left"] == len(basis_of_weight(a, w))
        assert groups["right"] == len(basis_of_weight(b, w))
        assert sum(groups.values()) == len(basis_of_weight(co.spec, w))


def test_gamma_of_mixed_monomial_stays_mixed():
    co = coproduct(RANK1, RANK1)
    mixed = gamma_gen(co.spec, 0, 1) * gamma_gen(co.spec, 1, 1)
    g2 = divided_power(2, mixed)
    assert g2.terms == {((0, 2), (1, 2)): 2}
    assert all(co.component(m) == "mixed" for m in g2.terms)


def test_fold_matrix_and_kernel_rank1():
    co, slices = fold_kernel(RANK1)
    assert slices[1].matrix == [[1, 1]]
    assert slices[1].kernel == [[1, -1]]
    assert slices[2].matrix == [[1, 2, 1]]
    assert len(slices[2].kernel) == 2


def test_fold_section_identities():
    co, _ = fold_kernel(RANK1)
    k = RANK1.generator_count
    images = [gamma_gen(RANK1, i % k, 1) for i in range(2 * k)]
    rng = random.Random(2)
    for _ in range(30):
        a = random_element(RANK1, rng)
        assert dp_map_apply(images, co.include_left(a)) == a
        assert dp_map_apply(images, co.include_right(a)) == a


def test_i_mod_i_squared_rank1_N2():
    oracle = OmegaOracle(free_spec(ZZ, 1, 2))
    assert oracle.slices[1].factors == (0,)
    assert oracle.slices[2].factors == (2, 0)


def test_induced_phi2_on_weight1_class():
    # gamma_2(x' - x'') = gamma_2 x' - x'x'' + gamma_2 x'' = v1 - v2 in the
    # Hermite kernel basis v1 = g2x' - g2x'', v2 = x'x'' - 2 g2x''.
    oracle = OmegaOracle(free_spec(ZZ, 1, 2))
    assert oracle.slices[1].kernel == [[1, -1]]
    assert oracle.slices[2].kernel == [[1, 0, -1], [0, 1, -2]]
    assert oracle.phi_tables[(1, 2)] == [[1, -1]]


def test_verify_main_theorem_small():
    report = verify_main_theorem(free_spec(ZZ, 1, 4))
    assert report.passed, report.summary()


def test_verify_main_theorem_trivial_truncation():
    report = verify_main_theorem(free_spec(ZZ, 1, 1))
    assert report.passed


def test_verify_main_theorem_mod6_rank1():
    report = verify_main_theorem(free_spec(Ring(6), 1, 4))
    assert report.passed, report.summary()


def test_verify_indecomposables_rank1_N12():
    report = verify_indecomposables(free_spec(ZZ, 1, 12))
    assert report.passed, report.summary()


def test_verify_indecomposables_weight1_free():
    for rank in (1, 2, 3):
        report = verify_indecomposables(free_spec(ZZ, rank, 2))
        assert report.passed


def test_verify_indecomposables_mod2():
    report = verify_indecomposables(free_spec(Ring(2), 1, 3))
    assert report.passed, report.summary()


def test_direct_product_componentwise_axioms():
    spec_a, spec_b = free_spec(ZZ, 1, 5), free_spec(ZZ, 2, 5)

    def sample(rng):
        a = random_element(spec_a, rng, max_terms=2)
        return ProductElement(a, random_element(spec_b, rng, max_terms=2))

    report = dp_axiom_report(ZZ, sample, lambda n, u: u.gamma(n), samples=40, seed=3)
    assert report.passed, report.summary()


def test_direct_product_terminal_factor():
    # 0 x A behaves as A: the nonzero component carries everything.
    spec = free_spec(ZZ, 1, 5)
    rng = random.Random(7)
    from dpalg.dpcore import zero

    for _ in range(20):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        u = ProductElement(zero(spec), a)
        v = ProductElement(zero(spec), b)
        assert (u * v).b == a * b
        assert u.gamma(3).b == divided_power(3, a)
        assert (u * v).a.is_zero()


def test_unital_product_collapse_on_trivial_algebra():
    module = trivial_module(RANK1, (0, 2, 3))
    report = unital_product_collapse(module, samples=50, seed=1)
    assert report.passed


def test_unital_product_fails_for_nontrivial_product():
    # On the free algebra the forced candidate mu = addition is not an
    # algebra map: mu((a,0)(0,b)) = mu(0,0) = 0 but mu(a,0) mu(0,b) = ab.
    from dpalg.dpcore import zero

    def mu(pair):
        return pair.a + pair.b

    a = gamma_gen(RANK1, 0, 1)
    b = gamma_gen(RANK1, 0, 2)
    u = ProductElement(a, zero(RANK1))
    v = ProductElement(zero(RANK1), b)
    assert mu(u * v).is_zero()
    assert not (mu(u) * mu(v)).is_zero()  # the algebra-map law fails


def test_verify_main_theorem_weighted_generators():
    report = verify_main_theorem(free_spec(ZZ, 2, 6, weights=(1, 2)))
    assert report.passed, report.summary()
    report = verify_indecomposables(free_spec(Ring(6), 2, 6, weights=(1, 2)))
    assert report.passed, report.summary()


def test_induced_phi_is_semilinear_on_classes():
    # gamma_p(c v) = c^p gamma_p(v) modulo I^2, for kernel vectors v.
    spec = free_spec(ZZ, 1, 6)
    oracle = OmegaOracle(spec)
    rng = random.Random(14)
    for w, p in ((1, 2), (1, 3), (2, 2), (3, 2), (2, 3)):
        for row in oracle.slices[w].kernel:
            v = oracle.kernel_element(w, row)
            c = rng.randint(-5, 5)
            lhs = divided_power(p, v.scale(c))
            rhs = divided_power(p, v).scale(c**p)
            assert oracle.class_is_zero(lhs - rhs, p * w)


def test_induced_phi_is_additive_on_classes():
    # gamma_p(u + v) - gamma_p(u) - gamma_p(v) is a sum of products, so it
    # lies in I^2: the induced operator on I/I^2 is additive.
    spec = free_spec(ZZ, 1, 6)
    oracle = OmegaOracle(spec)
    for w, p in ((1, 2), (2, 2), (1, 3), (3, 2)):
        kernel = oracle.slices[w].kernel
        for i in range(len(kernel)):
            for j in range(i, len(kernel)):
                u = oracle.kernel_element(w, kernel[i])
                v = oracle.kernel_element(w, kernel[j])
                mixed = divided_power(p, u + v) - divided_power(p, u) - divided_power(p, v)
                assert oracle.class_is_zero(mixed, p * w)


def test_gradewise_stability_under_deeper_truncation():
    small = free_spec(ZZ, 1, 4)
    big = free_spec(ZZ, 1, 6)
    _, fold_small = fold_kernel(small)
    _, fold_big = fold_kernel(big)
    for w in range(1, 5):
        assert fold_small[w].matrix == fold_big[w].matrix
        assert fold_small[w].kernel == fold_big[w].kernel
    oracle_small = OmegaOracle(small)
    oracle_big = OmegaOracle(big)
    for w in range(1, 5):
        assert oracle_small.slices[w].factors == oracle_big.slices[w].factors
        assert sorted(oracle_small.slices[w].relation_rows) == sorted(oracle_big.slices[w].relation_rows)


@pytest.mark.parametrize("rank, truncation, ring", [(2, 9, ZZ), (2, 8, Ring(6))])
def test_main_theorem_at_larger_settings(rank, truncation, ring):
    report = verify_main_theorem(free_spec(ring, rank, truncation))
    assert report.passed, report.summary()
