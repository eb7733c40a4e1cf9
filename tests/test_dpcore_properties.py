"""Property tests of divided_powers, drawn and shrunk by hypothesis.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dpalg.coeff import Ring, ZZ, gamma_compose_coeff
from dpalg.dpcore import DPElement, basis_up_to, divided_power, divided_powers, free_spec


@st.composite
def element_pairs(draw):
    """Two elements of one algebra over Z, Z/4 or Z/6, of rank 1 or 2 with weights 1 or 2."""
    ring = draw(st.sampled_from((ZZ, Ring(4), Ring(6))))
    weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    spec = free_spec(ring, len(weights), draw(st.integers(4, 8)), weights=weights)
    terms = st.dictionaries(st.sampled_from(basis_up_to(spec)), st.integers(-9, 9), max_size=3)
    return DPElement(spec, draw(terms)), DPElement(spec, draw(terms))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(element_pairs(), st.integers(1, 6))
def test_exponential_law_and_product_rule(pair, n):
    a, b = pair
    gamma_a, gamma_b = divided_powers(n, a), divided_powers(n, b)
    gamma_sum = divided_powers(n, a + b)
    for k in range(1, n + 1):
        expected = gamma_a[k - 1] + gamma_b[k - 1]
        for i in range(1, k):
            expected = expected + gamma_a[i - 1] * gamma_b[k - i - 1]
        assert gamma_sum[k - 1] == expected, f"gamma_{k}(a + b)"
    for i in range(1, n):
        for j in range(1, n - i + 1):
            product = gamma_a[i - 1] * gamma_a[j - 1]
            assert product == gamma_a[i + j - 1].scale(comb(i + j, i)), f"gamma_{i} gamma_{j}"


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(element_pairs(), st.integers(-9, 9), st.integers(1, 6), st.integers(1, 6))
def test_scalar_product_and_composition_laws(pair, r, n, m):
    a, b = pair
    ring = a.spec.ring
    r = ring.normalize(r)
    power = a
    for _ in range(n - 1):
        power = power * a
    assert divided_power(n, a * b) == power * divided_power(n, b), "gamma_n(ab)"
    assert divided_power(n, b.scale(r)) == divided_power(n, b).scale(ring.pow(r, n)), "gamma_n(rb)"
    coeff = ring.normalize(gamma_compose_coeff(m, n))
    assert divided_power(m, divided_power(n, a)) == divided_power(m * n, a).scale(coeff), "gamma_m(gamma_n)"
