import random
from functools import partial
from math import factorial

import pytest

from dpalg import dpcore
from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import (
    AlgebraSpec,
    DPElement,
    basis_of_weight,
    coordinates,
    divided_power,
    divided_powers,
    dp_axiom_report,
    dp_map_apply,
    free_spec,
    from_terms,
    gamma_gen,
    mono_mul,
    position_index,
    random_element,
    zero,
)

RANK1 = free_spec(ZZ, 1, 8)
RANK2 = free_spec(ZZ, 2, 8)


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(ZZ, (), 4)
    with pytest.raises(ValueError):
        AlgebraSpec(ZZ, (0,), 4)
    with pytest.raises(ValueError):
        AlgebraSpec(ZZ, (3,), 2)


def test_gamma_gen_basics():
    x = gamma_gen(RANK1, 0, 1)
    assert x.terms == {((0, 1),): 1}
    assert gamma_gen(RANK1, 0, 9).is_zero()  # beyond truncation
    weighted = free_spec(ZZ, 2, 9, weights=(1, 3))
    assert gamma_gen(weighted, 1, 3).terms == {((1, 3),): 1}
    assert gamma_gen(weighted, 1, 4).is_zero()  # weight 12 > 9
    with pytest.raises(ValueError):
        gamma_gen(RANK1, 0, 0)
    with pytest.raises(ValueError):
        gamma_gen(RANK1, 5, 1)


def test_mul_examples():
    g2 = gamma_gen(RANK1, 0, 2)
    g3 = gamma_gen(RANK1, 0, 3)
    assert (g2 * g3).terms == {((0, 5),): 10}
    x = gamma_gen(RANK1, 0, 1)
    assert (x * x).terms == {((0, 2),): 2}
    mod6 = free_spec(Ring(6), 1, 8)
    h2 = gamma_gen(mod6, 0, 2)
    assert (h2 * h2).is_zero()  # C(4,2) = 6 = 0 mod 6


def test_mul_cross_generators():
    x, y = gamma_gen(RANK2, 0, 1), gamma_gen(RANK2, 1, 1)
    assert (x * y).terms == {((0, 1), (1, 1)): 1}
    assert (y * x).terms == {((0, 1), (1, 1)): 1}


def test_spec_mismatch_errors():
    with pytest.raises(ValueError):
        gamma_gen(RANK1, 0, 1) * gamma_gen(RANK2, 0, 1)
    with pytest.raises(ValueError):
        gamma_gen(RANK1, 0, 1) + gamma_gen(RANK2, 0, 1)


def test_divided_power_examples():
    x, y = gamma_gen(RANK2, 0, 1), gamma_gen(RANK2, 1, 1)
    expanded = divided_power(2, x + y)
    assert expanded == divided_power(2, x) + x * y + divided_power(2, y)
    assert divided_power(1, x + y) == x + y
    x1 = gamma_gen(RANK1, 0, 1)
    assert divided_power(3, x1.scale(2)).terms == {((0, 3),): 8}
    assert divided_power(2, gamma_gen(RANK1, 0, 2)).terms == {((0, 4),): 3}
    with pytest.raises(ValueError):
        divided_power(0, x1)


def test_divided_power_multi_factor_monomial():
    # gamma_2 of the mixed monomial x1*x2: gamma_2(ab) = a^2 gamma_2(b).
    x, y = gamma_gen(RANK2, 0, 1), gamma_gen(RANK2, 1, 1)
    lhs = divided_power(2, x * y)
    assert lhs == (x * x) * divided_power(2, y)
    assert lhs.terms == {((0, 2), (1, 2)): 2}


def test_power_equals_factorial_times_gamma():
    # a^n = n! gamma_n(a) on random single monomials, an independent route
    # through repeated multiplication only.
    rng = random.Random(5)
    for _ in range(60):
        w = rng.randint(1, 4)
        mono = rng.choice(basis_of_weight(RANK2, w))
        el = from_terms(RANK2, {mono: 1})
        n = rng.randint(1, 8 // w)
        power = el
        for _ in range(n - 1):
            power = power * el
        assert power == divided_power(n, el).scale(factorial(n))


def test_power_identity_on_general_elements():
    # Every entry of divided_powers against independent routes: over Z,
    # k! gamma_k(a) = a^k by repeated multiplication; over Z/4 and Z/6, the
    # entries are those of the lifted element over Z, reduced.  Elements of up
    # to four terms with arbitrary coefficients exercise the exact division by
    # k and, over Z/m, the recurrence on the Z-lift rather than the residues.
    rng = random.Random(77)
    for weights in ((1, 1), (1, 2)):
        spec = free_spec(ZZ, 2, 8, weights=weights)
        for _ in range(40):
            a = random_element(spec, rng, max_terms=4)
            n = rng.randint(2, 5)
            gammas = divided_powers(n, a)
            assert len(gammas) == n
            power = a
            for k, gamma in enumerate(gammas, 1):
                assert power == gamma.scale(factorial(k))
                power = power * a
            m = rng.randint(1, n)
            assert divided_powers(m, a) == gammas[:m]
        for modulus in (4, 6):
            reduced = free_spec(Ring(modulus), 2, 8, weights=weights)
            for _ in range(20):
                a = random_element(reduced, rng, max_terms=4)
                n = rng.randint(2, 5)
                lifted = divided_powers(n, DPElement(spec, a.terms))
                assert divided_powers(n, a) == [DPElement(reduced, g.terms) for g in lifted]


def test_basis_of_weight():
    assert basis_of_weight(RANK1, 4) == [((0, 4),)]
    assert basis_of_weight(RANK2, 2) == [((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]
    with pytest.raises(ValueError):
        basis_of_weight(RANK1, 9)
    weighted = free_spec(ZZ, 2, 6, weights=(1, 2))
    assert basis_of_weight(weighted, 2) == [((0, 2),), ((1, 1),)]


def test_basis_of_weight_counts_rank2():
    # Exhaustive check: numbers of monomials x1^a x2^b with a+b = w.
    for w in range(1, 9):
        assert len(basis_of_weight(RANK2, w)) == w + 1


def test_dp_map_identity_and_fold():
    identity = [gamma_gen(RANK2, i, 1) for i in range(2)]
    rng = random.Random(1)
    for _ in range(30):
        a = random_element(RANK2, rng)
        assert dp_map_apply(identity, a) == a

    # fold: both copies of the rank-1 generator map to x.
    double = free_spec(ZZ, 2, 8)
    fold = [gamma_gen(RANK1, 0, 1), gamma_gen(RANK1, 0, 1)]
    g2x1 = gamma_gen(double, 0, 2)
    assert dp_map_apply(fold, g2x1) == gamma_gen(RANK1, 0, 2)
    mixed = gamma_gen(double, 0, 1) * gamma_gen(double, 1, 1)
    assert dp_map_apply(fold, mixed).terms == {((0, 2),): 2}
    with pytest.raises(ValueError):
        dp_map_apply([gamma_gen(RANK1, 0, 1)], g2x1)


def test_mul_ring_axioms_random():
    rng = random.Random(9)
    for spec in (RANK2, free_spec(Ring(6), 2, 6)):
        for _ in range(60):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            c = random_element(spec, rng)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_axiom_suite_small_grid():
    for ring in (ZZ, Ring(4), Ring(5), Ring(6)):
        for rank in (1, 2):
            spec = free_spec(ring, rank, 6)
            report = dp_axiom_report(ring, partial(random_element, spec), divided_power, 40, 42)
            assert report.passed, report.summary()


def test_composition_order_independence():
    # The implementation peels the first factor of a monomial; peeling the
    # last factor instead (gamma_n(m' * f) = f^n * gamma_n(m')) must agree.
    spec = free_spec(ZZ, 3, 12)
    rng = random.Random(17)

    def power(el, n):
        out = el
        for _ in range(n - 1):
            out = out * el
        return out

    for _ in range(60):
        exps = [rng.randint(0, 2) for _ in range(3)]
        mono = tuple((i, e) for i, e in enumerate(exps) if e)
        if len(mono) < 2:
            continue
        w = spec.monomial_weight(mono)
        n = rng.randint(1, max(1, 12 // w))
        last = from_terms(spec, {mono[-1:]: 1})
        rest = from_terms(spec, {mono[:-1]: 1})
        whole = from_terms(spec, {mono: 1})
        assert divided_power(n, whole) == power(last, n) * divided_power(n, rest)


def test_truncation_soundness():
    # Results of weight <= N agree whether computed at truncation N or N+3.
    rng = random.Random(23)
    small = free_spec(ZZ, 2, 5)
    big = free_spec(ZZ, 2, 8)

    def lift(el):
        return DPElement(big, el.terms)

    def cut(el):
        kept = {m: c for m, c in el.terms.items() if big.monomial_weight(m) <= 5}
        return DPElement(small, kept)

    for _ in range(60):
        a = random_element(small, rng)
        b = random_element(small, rng)
        n = rng.randint(1, 5)
        assert cut(lift(a) * lift(b)) == a * b
        assert cut(divided_power(n, lift(a))) == divided_power(n, a)


def test_format_element():
    x = gamma_gen(RANK1, 0, 1)
    g5 = gamma_gen(RANK1, 0, 5)
    assert str(g5.scale(10)) == "10*g5(x1)"
    assert str(zero(RANK1)) == "0"
    assert str(x - gamma_gen(RANK1, 0, 2)) == "x1 - g2(x1)"
    assert str(-x) == "-x1"
    mod = free_spec(Ring(6), 1, 4)
    assert str(gamma_gen(mod, 0, 1).scale(-1)) == "5*x1"


def test_coordinates():
    basis = basis_of_weight(RANK2, 2)
    a = divided_power(2, gamma_gen(RANK2, 0, 1) + gamma_gen(RANK2, 1, 1))
    assert coordinates(a, position_index(basis)) == [1, 1, 1]


def test_divided_powers_compute_only_indices_that_can_be_nonzero():
    # At N = 4, gamma_k(x1) is zero for k > 4: a request for 10 computes and
    # keeps 4 entries and pads with zeros, and a longer request reads the
    # kept entries instead of recomputing them.  Zero computes nothing.
    spec = free_spec(ZZ, 1, 4)
    x = gamma_gen(spec, 0, 1)
    first = divided_powers(10, x)
    assert len(x._gammas) == 4
    assert [str(g) for g in first] == ["x1", "g2(x1)", "g3(x1)", "g4(x1)"] + ["0"] * 6
    later = divided_powers(12, x)
    assert len(later) == 12 and all(a is b for a, b in zip(first[:4], later))
    assert all(g.is_zero() for g in later[4:])
    nothing = zero(spec)
    assert divided_powers(5, nothing) == [zero(spec)] * 5 and not hasattr(nothing, "_gammas")


def test_divided_powers_extend_the_kept_sequence_in_place(monkeypatch):
    # A longer request keeps every earlier entry as the same object and
    # computes only the new indices: it makes as many monomial products as a
    # fresh equal element needs for the longer request, less those for the
    # shorter one.  gamma_1 is kept as a copy: no entry is the element itself.
    spec = free_spec(Ring(6), 2, 9, weights=(1, 2))
    x, y = gamma_gen(spec, 0, 1), gamma_gen(spec, 1, 1)
    a = x.scale(5) + y + x * y.scale(3)
    products = []
    monkeypatch.setattr(dpcore, "mono_mul", lambda m1, m2: products.append(1) or mono_mul(m1, m2))

    def products_of(n, element):
        before = len(products)
        divided_powers(n, element)
        return len(products) - before

    def fresh():
        return DPElement(spec, dict(a.terms))

    assert products_of(2, a) > 0 and len(a._gammas) == 2
    earlier = list(a._gammas)
    extension = products_of(5, a)
    assert len(a._gammas) == 5 and all(g is h for g, h in zip(earlier, a._gammas))
    assert extension == products_of(5, fresh()) - products_of(2, fresh()) > 0
    assert products_of(4, a) == 0
    assert all(g is not a for g in a._gammas) and a._gammas[0] == a


@pytest.mark.parametrize("weights", [(1, 1), (1, 2)])
@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=str)
def test_kept_divided_powers_match_a_fresh_element(ring, weights):
    # An element keeps its longest sequence; indices asked out of order must
    # read and extend it exactly as a fresh equal element computes them.
    spec = free_spec(ring, 2, 8, weights=weights)
    rng = random.Random(17)
    for _ in range(25):
        a = random_element(spec, rng)
        for k in (3, 1, 6, 2, 5, 4):
            assert divided_power(k, a) == divided_power(k, DPElement(spec, dict(a.terms))), (str(a), k)
        fresh = divided_powers(6, DPElement(spec, dict(a.terms)))
        # the returned lists are copies: changing them leaves the element's sequence alone
        divided_powers(6, a).clear()
        divided_powers(8, a)[:] = [zero(spec)] * 8
        assert divided_powers(6, a) == fresh
        assert a == DPElement(spec, dict(a.terms)) and hash(a) == hash(DPElement(spec, dict(a.terms)))
