import gc
import random
import re
from collections import Counter

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.beck import (
    SemidirectElement,
    UModule,
    corrupted_phi_module,
    mixed_torsion_module,
    semidirect_gamma,
    trivial_module,
    u0_module,
    verify_abelian_structure,
    verify_beck_axioms,
    zero_module,
)
from dpalg.dpcore import (
    DPElement,
    basis_up_to,
    divided_power,
    free_spec,
    from_terms,
    gamma_gen,
    random_element,
    zero,
)
from dpalg.kahler import is_dp_derivation, omega_as_umodule, universal_derivation_table
from dpalg.suites import beck_module_zoo, suite_beck

SPEC = free_spec(ZZ, 1, 6)


def test_vector_reduction():
    m = UModule(SPEC, (0, 2, 3))
    assert m.reduce((5, 5, 5)) == (5, 1, 2)
    m6 = UModule(free_spec(Ring(6), 1, 6), (0, 4))
    # over Z/6 a free coordinate is mod 6 and an order-4 one collapses to gcd 2
    assert m6.moduli == (6, 2)
    assert m6.reduce((7, 7)) == (1, 1)


def test_semidirect_mul_formula():
    m = mixed_torsion_module(SPEC)
    a = random_element(SPEC, random.Random(1))
    y = (1, 1, 1)
    u = SemidirectElement(m, a, m.zero_vec())
    v = SemidirectElement(m, zero(SPEC), y)
    assert (u * v).a.is_zero()
    assert (u * v).x == m.act(a, y)
    # products of two pure module elements vanish
    w = SemidirectElement(m, zero(SPEC), (1, 0, 2))
    assert (v * w).a.is_zero()
    assert (v * w).x == m.zero_vec()


def test_semidirect_square_example():
    m = mixed_torsion_module(SPEC)
    x = gamma_gen(SPEC, 0, 1)
    e1 = (1, 0, 0)  # the generator of the free summand
    u = SemidirectElement(m, x, e1)
    square = u * u
    assert square.a == divided_power(2, x).scale(2)
    assert square.x == m.scale_vec(2, m.act(x, e1))


def test_semidirect_gamma_small_cases():
    m = mixed_torsion_module(SPEC)
    x = gamma_gen(SPEC, 0, 1)
    u = SemidirectElement(m, x, (1, 0, 1))
    assert semidirect_gamma(1, u) == u
    g2 = semidirect_gamma(2, u)
    assert g2.a == divided_power(2, x)
    expected = m.add_vec(m.phi_p(2, (1, 0, 1)), m.act(x, (1, 0, 1)))
    assert g2.x == expected
    # phi_6 = 0: gamma_6 of a pure module element vanishes
    v = SemidirectElement(m, zero(SPEC), (1, 1, 1))
    g6 = semidirect_gamma(6, v)
    assert g6.a.is_zero() and g6.x == m.zero_vec()


def _gamma_by_index(n, u):
    """gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i=1}^{n-1} gamma_i(a) phi_{n-i}(x)),
    one index at a time, each gamma_i of a fresh copy of ``a``."""
    mod = u.module

    def gamma_a(i):
        return divided_power(i, DPElement(u.a.spec, dict(u.a.terms)))

    vec = mod.phi_n(n, u.x)
    for i in range(1, n):
        vec = mod.add_vec(vec, mod.act(gamma_a(i), mod.phi_n(n - i, u.x)))
    return SemidirectElement(mod, gamma_a(n), vec)


@pytest.mark.parametrize(
    "module",
    [
        *beck_module_zoo(SPEC),
        trivial_module(free_spec(Ring(6), 1, 6), (0, 2, 4)),
        corrupted_phi_module(SPEC),
    ],
    ids=lambda m: f"{m.spec.ring}-{m.annihilators}",
)
def test_semidirect_gamma_sequence_matches_per_index_formula(module):
    rng = random.Random(29)
    for _ in range(12):
        a = random_element(module.spec, rng, max_terms=2)
        x = module.random_vec(rng)
        ascending = SemidirectElement(module, a, x)
        descending = SemidirectElement(module, DPElement(a.spec, dict(a.terms)), x)
        for n in range(1, 7):
            assert semidirect_gamma(n, ascending) == _gamma_by_index(n, ascending), (str(a), x, n)
        for n in range(6, 0, -1):
            assert semidirect_gamma(n, descending) == _gamma_by_index(n, descending), (str(a), x, n)


def test_semidirect_gamma_extends_its_kept_sequence():
    m = mixed_torsion_module(SPEC)
    u = SemidirectElement(m, gamma_gen(SPEC, 0, 1), (1, 0, 1))
    short = [semidirect_gamma(n, u) for n in range(1, 4)]
    kept = u._gammas
    longer = [semidirect_gamma(n, u) for n in range(6, 0, -1)][::-1]
    assert all(a is b for a, b in zip(short, longer))
    assert len(kept) == 3  # extended on a copy, not in place
    assert longer == [_gamma_by_index(n, u) for n in range(1, 7)]
    assert all(entry is not u for entry in u._gammas)  # gamma_1 is a copy: no cycle


def test_beck_suite_leaves_no_element_to_the_cyclic_collector():
    # Elements keep their divided powers; none may come to refer to itself,
    # or each would wait for the cyclic collector to be freed.
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        suite_beck(5, 0)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage if isinstance(o, (SemidirectElement, DPElement))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not cyclic, Counter(cyclic)


def test_module_validation():
    assert mixed_torsion_module(SPEC).validate().passed
    assert u0_module(SPEC, 6).validate().passed
    assert trivial_module(SPEC, (0, 2, 3)).validate().passed
    assert not corrupted_phi_module(SPEC).validate().passed


def test_module_validation_without_tables_is_not_vacuous():
    # An absent table acts as the zero table: a module with no table at all
    # still meets the product law on every pair of basis monomials, and the
    # well-definedness law on every monomial and torsion coordinate.
    for module in (zero_module(SPEC), trivial_module(SPEC, (0, 2, 3))):
        report = module.validate()
        assert report.passed and report.records
    laws = {r.law for r in trivial_module(SPEC, (0, 2, 3)).validate().records}
    assert laws == {"a_action respects products", "a_action defined on torsion coordinates"}


def test_module_validation_well_definedness():
    # phi_2 out of a Z/3 coordinate is not well defined (3x = 0 but
    # phi_2(3x) = 9 phi_2(x) = phi_2(x) on a 2-torsion target).
    bad_phi = UModule(SPEC, (3, 2), phi_action={2: [[0, 0], [1, 0]]})
    report = bad_phi.validate()
    assert not report.passed
    assert any("off p-torsion" in r.law for r in report.failures())
    # an action sending a torsion line into a free one is not linear
    bad_a = UModule(SPEC, (2, 0), a_action={((0, 1),): [[0, 0], [1, 0]]})
    report = bad_a.validate()
    assert not report.passed
    assert any("torsion coordinates" in r.law for r in report.failures())
    # the semidirect axiom suite also notices (bilinearity breaks)
    assert not verify_beck_axioms(bad_a, samples=80, seed=3).passed


def test_module_validation_meets_absent_tables_in_the_product_law():
    # Only x1^[2] has a table, so x1 acts as 0: x1 (x1 e0) = 0, while
    # (x1 x1) e0 = 2 x1^[2] e0 = 2 e1.  A product law read only between
    # stored tables never meets this pair.
    spec = free_spec(ZZ, 1, 4)
    module = UModule(spec, (0, 0), a_action={((0, 2),): [[0, 0], [1, 0]]})
    report = module.validate()
    assert not report.passed
    assert [(r.law, r.counterexample) for r in report.failures()] == [
        ("a_action respects products", "((0, 1),) * ((0, 1),): False != True")
    ]
    assert not verify_beck_axioms(module).passed


MODULE_ZOO = [
    zero_module(SPEC),
    trivial_module(SPEC, (0, 2, 3)),
    u0_module(SPEC, 6),
    mixed_torsion_module(SPEC),
    trivial_module(free_spec(Ring(6), 1, 6), (0, 2, 4)),
]


@pytest.mark.parametrize("module", MODULE_ZOO, ids=lambda m: f"rank{m.rank}-{m.spec.ring}")
def test_beck_axioms_pass_on_valid_modules(module):
    report = verify_beck_axioms(module, samples=60, seed=5)
    assert report.passed, report.summary()


def test_beck_axioms_detect_corruption():
    report = verify_beck_axioms(corrupted_phi_module(SPEC), samples=60, seed=5)
    assert not report.passed
    failed_laws = {r.law for r in report.failures()}
    assert "product rule gamma_m gamma_n" in failed_laws


def test_zero_module_is_just_A():
    report = verify_beck_axioms(zero_module(SPEC), samples=40, seed=9)
    assert report.passed


def test_abelian_structure_u0():
    report = verify_abelian_structure(u0_module(SPEC, 9), samples=40, seed=3)
    assert report.passed, report.summary()


def test_abelian_structure_zero_algebra():
    report = verify_abelian_structure(zero_module(SPEC), samples=10, seed=3)
    assert report.passed


def test_abelian_structure_negative_control():
    # 2*phi_2 != 0 on the free summand breaks the DP axioms of 0 (+) M.
    report = verify_abelian_structure(corrupted_phi_module(SPEC), samples=40, seed=3)
    assert not report.passed
    failed = {r.law for r in report.failures()}
    assert {"product rule gamma_m gamma_n", "gamma_n(a+b) addition rule"} <= failed


def test_dp_structure_of_A_plays_no_role():
    # The same action tables form a Beck module over different truncations
    # of the free algebra (whose divided powers differ).
    for trunc in (2, 4, 6):
        spec = free_spec(ZZ, 1, trunc)
        module = mixed_torsion_module(spec)
        assert verify_beck_axioms(module, samples=40, seed=11).passed


def test_phi_kills_A_multiples_sampled():
    rng = random.Random(13)
    m = mixed_torsion_module(SPEC)
    for _ in range(100):
        a = random_element(SPEC, rng)
        y = m.random_vec(rng)
        assert m.phi_p(2, m.act(a, y)) == m.zero_vec()
        assert m.phi_p(3, m.act(a, y)) == m.zero_vec()


def test_gamma_prime_power_is_iterated_gamma_p():
    m = u0_module(SPEC, 8)
    rng = random.Random(17)
    for _ in range(50):
        x = m.random_vec(rng)
        u = SemidirectElement(m, zero(SPEC), x)
        for p, e in [(2, 2), (2, 3)]:
            lhs = semidirect_gamma(p**e, u)
            rhs = u
            for _ in range(e):
                rhs = semidirect_gamma(p, rhs)
            assert lhs == rhs


def _dense_apply(module, rows, vec):
    """Reference: row-times-vector over every entry, reduced once."""
    return module.reduce(tuple(sum(w * v for w, v in zip(row, vec)) for row in rows))


def _random_module(spec, rank, seed):
    rng = random.Random(seed)

    def table():
        return [[rng.choice((0, 0, 0, 1, -1, 2, 5)) for _ in range(rank)] for _ in range(rank)]

    annihilators = [rng.choice((0, 2, 3, 4, 6)) for _ in range(rank)]
    monomials = rng.sample(basis_up_to(spec), 3)
    a_action = {mono: table() for mono in monomials}
    return UModule(spec, annihilators, a_action=a_action, phi_action={2: table(), 3: table()})


RANDOM_MODULES = [
    _random_module(free_spec(ZZ, 2, 4), 6, seed=1),
    _random_module(free_spec(Ring(6), 2, 4), 6, seed=2),
]


@pytest.mark.parametrize(
    "module",
    RANDOM_MODULES + [omega_as_umodule(free_spec(Ring(6), 2, 4))],
    ids=["random-Z", "random-Z/6", "omega-2-4-Z/6"],
)
def test_sparse_actions_match_dense_reference(module):
    spec = module.spec
    rng = random.Random(23)
    zero_rows = [[0] * module.rank for _ in range(module.rank)]
    a_action, phi_action = module.a_action, module.phi_action  # each read builds the view
    for _ in range(30):
        # unreduced coordinates, so the reference and the kernel both reduce
        vec = tuple(rng.choice((0, 0, rng.randint(-20, 20))) for _ in range(module.rank))
        for mono in basis_up_to(spec):
            rows = a_action.get(mono, zero_rows)
            assert module.act(from_terms(spec, {mono: 1}), vec) == _dense_apply(module, rows, vec), mono
        a = random_element(spec, rng)
        expected = module.zero_vec()
        for mono, c in a.terms.items():
            rows = a_action.get(mono, zero_rows)
            expected = module.add_vec(expected, module.scale_vec(c, _dense_apply(module, rows, vec)))
        assert module.act(a, vec) == expected, str(a)
        for p in (2, 3, 5):
            rows = phi_action.get(p, zero_rows)
            powered = tuple(v**p for v in vec)
            assert module.phi_p(p, vec) == _dense_apply(module, rows, powered), p


@pytest.mark.parametrize(
    "module",
    RANDOM_MODULES + MODULE_ZOO,
    ids=["random-Z", "random-Z/6"] + [f"zoo-rank{m.rank}-{m.spec.ring}" for m in MODULE_ZOO],
)
def test_module_rebuilt_from_its_columns_acts_the_same(module):
    spec = module.spec
    rebuilt = UModule.from_columns(spec, module.annihilators, module._a_columns, module._phi_columns)
    assert rebuilt.a_action == module.a_action
    assert rebuilt.phi_action == module.phi_action
    rng = random.Random(29)
    for _ in range(20):
        vec = module.random_vec(rng)
        a = random_element(spec, rng)
        assert rebuilt.act(a, vec) == module.act(a, vec), str(a)
        for p in (2, 3, 5):
            assert rebuilt.phi_p(p, vec) == module.phi_p(p, vec), p


def test_dense_views_give_back_the_rows():
    rng = random.Random(31)
    tables = [[[rng.choice((0, 0, 0, 1, -1, 2, 5)) for _ in range(6)] for _ in range(6)] for _ in range(3)]
    x, y = basis_up_to(SPEC)[:2]
    module = UModule(SPEC, (0, 2, 3, 0, 4, 6), a_action={y: tables[0], x: tables[1]}, phi_action={3: tables[2]})
    assert module.a_action == {y: [tuple(row) for row in tables[0]], x: [tuple(row) for row in tables[1]]}
    assert list(module.a_action) == [y, x]
    assert module.phi_action == {3: [tuple(row) for row in tables[2]]}


@pytest.mark.parametrize(
    "a_columns, phi_columns, message",
    [
        ({((0, 1),): [[], []]}, {}, "table ((0, 1),) has 2 columns, not 3"),
        ({}, {2: [[], [(3, 1)], []]}, "table 2, column 1: a row index lies outside 0..2"),
        ({}, {3: [[(-1, 1)], [], []]}, "table 3, column 0: a row index lies outside 0..2"),
        ({((0, 1),): [[], [], [(0, 1), (0, 2)]]}, {}, "table ((0, 1),), column 2: rows are not strictly ascending"),
        ({}, {2: [[(2, 1), (1, 1)], [], []]}, "table 2, column 0: rows are not strictly ascending"),
        ({}, {2: [[], [(0, 1), (1, 0)], []]}, "table 2, column 1: a value is 0"),
        ({((0, 7),): [[], [], []]}, {}, "a_action key ((0, 7),) is not a basis monomial"),
        ({}, {4: [[], [], []]}, "phi_action key 4 is not a prime"),
    ],
    ids=["count", "row-high", "row-negative", "row-repeated", "rows-descending", "zero", "monomial", "prime"],
)
def test_from_columns_rejects_malformed_tables(a_columns, phi_columns, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        UModule.from_columns(SPEC, (0, 2, 3), a_columns, phi_columns)


def test_omega_and_u0_modules_build_no_dense_rows(monkeypatch):
    def refuse(self, key, rows):
        raise AssertionError(f"table {key} went through dense rows")

    monkeypatch.setattr(UModule, "_columns", refuse)
    assert omega_as_umodule(free_spec(Ring(6), 2, 4)).rank == 40
    assert u0_module(SPEC, 6).phi_action.keys() == {2, 3, 5}


def test_tables_must_be_rank_by_rank():
    x = ((0, 1),)
    with pytest.raises(ValueError, match=re.escape(str(x))):
        UModule(SPEC, (0, 0), a_action={x: [[0, 1]]})
    with pytest.raises(ValueError, match="table 2 is not 2 x 2"):
        UModule(SPEC, (0, 0), phi_action={2: [[0], [1]]})


def test_annihilators_must_be_nonnegative():
    with pytest.raises(ValueError, match="must be >= 0"):
        UModule(free_spec(ZZ, 1, 4), (-3, 1))
    with pytest.raises(ValueError, match="must be >= 0"):
        UModule(free_spec(Ring(6), 1, 4), (0, -2))


def test_a_action_keys_must_be_basis_monomials():
    for key in (((0, 7),), ((1, 1),), ()):
        with pytest.raises(ValueError, match=re.escape(f"a_action key {key}")):
            UModule(SPEC, (0,), a_action={key: [[1]]})


def test_phi_action_keys_must_be_prime():
    for key in (4, 1, 6):
        with pytest.raises(ValueError, match=f"phi_action key {key} is not a prime"):
            UModule(SPEC, (2,), phi_action={key: [[1]]})


@pytest.mark.parametrize("ring", [ZZ, Ring(6)], ids=["Z", "Z/6"])
@pytest.mark.parametrize("weights", [(2, 3), (3, 2)])
def test_verifiers_sample_algebras_with_an_empty_weight(weights, ring):
    # No monomial has weight 1, so a sampler that draws the weight first
    # must draw again rather than pick from an empty basis.
    spec = free_spec(ring, 2, 6, weights=weights)
    report = verify_beck_axioms(trivial_module(spec, (0, 2)))
    assert report.passed, report.summary()
    report = is_dp_derivation(universal_derivation_table(spec), omega_as_umodule(spec))
    assert report.passed, report.summary()
