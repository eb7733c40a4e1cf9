"""Property tests of divided_powers, drawn and shrunk by hypothesis.

``divided_powers`` builds each entry by k gamma_k(a) = a gamma_{k-1}(a), so
the product rule gamma_1 gamma_{k-1} = k gamma_k holds by construction.  The
exponential law, computed here by ``exponential_law_divided_powers``, is the
independent reference every entry is compared with.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dpalg.coeff import Ring, ZZ, gamma_compose_coeff
from dpalg.dpcore import DPElement, basis_up_to, divided_power, divided_powers, free_spec, mono_mul, zero


def exponential_law_divided_powers(n, element):
    """[gamma_1(a), ..., gamma_n(a)] in one pass by the exponential law; keeps nothing.

    gamma_k(a + b) = sum_{i+j=k} gamma_i(a) gamma_j(b) makes the sequence of
    a sum the truncated product of its terms' sequences.  A term c*m with
    m = prod gamma_{e_i}(x_i) has gamma_j(c m) = g_j prod gamma_{j e_i}(x_i),
    where g_j = g_{j-1} * c * prod C(j e_i, e_i) / j, both sides being
    c^j m^j / j!.  One dict per index absorbs the terms of ``a`` one at a
    time; it is updated from index live down, so that seq[k - j] still holds
    the earlier terms only.  Those reach index ``reach`` at most (the sum of
    their ``top``s), so j starts at k - reach.  Indices past live =
    min(n, N // least term weight) are zero.  Coefficients stay in Z until
    the end, so over Z/m the entries are those of the Z-lift, reduced.
    """
    spec = element.spec
    cap = spec.truncation
    live = min(n, cap // min(map(spec.monomial_weight, element.terms), default=cap + 1))
    seq = [{} for _ in range(live + 1)]  # seq[k]: raw terms of gamma_k; seq[0] unused
    weight = {}
    reach = 0  # seq[k] is empty for every k > reach
    for mono, c in element.terms.items():
        w = spec.monomial_weight(mono)
        top = min(live, cap // w)
        gammas = [None]
        g = 1
        for j in range(1, top + 1):
            for _, e in mono:
                g *= comb(j * e, e)
            g = g // j * c
            gammas.append((g, tuple((gen, j * e) for gen, e in mono), j * w))
        for k in range(live, 0, -1):
            out = seq[k]
            for j in range(max(1, k - reach), min(k - 1, top) + 1):
                gcoeff, gmono, gweight = gammas[j]
                for m, v in seq[k - j].items():
                    total = weight[m] + gweight
                    if total > cap:
                        continue
                    binom, merged = mono_mul(m, gmono)
                    weight[merged] = total
                    out[merged] = out.get(merged, 0) + v * gcoeff * binom
            if k <= top:  # gamma_k(c m) itself, times gamma_0 of the earlier terms
                gcoeff, gmono, gweight = gammas[k]
                weight[gmono] = gweight
                out[gmono] = out.get(gmono, 0) + gcoeff
        reach = min(live, reach + top)
    return [DPElement(spec, terms) for terms in seq[1:]] + [zero(spec)] * (n - live)


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


@st.composite
def requests_on_one_element(draw):
    """An element over Z, Z/4, Z/6 or Z/9 with weights (1, 1), (1, 2) or (2, 3),
    and the indices 1..top, asked in ascending, descending or shuffled order."""
    ring = draw(st.sampled_from((ZZ, Ring(4), Ring(6), Ring(9))))
    weights = draw(st.sampled_from(((1, 1), (1, 2), (2, 3))))
    spec = free_spec(ring, 2, draw(st.integers(3, 10)), weights=weights)
    terms = st.dictionaries(st.sampled_from(basis_up_to(spec)), st.integers(-9, 9), max_size=4)
    indices = list(range(1, draw(st.integers(1, 8)) + 1))
    order = draw(st.sampled_from(("ascending", "descending", "shuffled")))
    if order == "descending":
        indices.reverse()
    elif order == "shuffled":
        indices = draw(st.permutations(indices))
    return DPElement(spec, draw(terms)), indices


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(requests_on_one_element())
def test_divided_powers_match_the_exponential_law(case):
    # Each request reads or extends the element's kept sequence; every entry
    # it returns must equal the reference's, computed on a fresh equal element.
    a, indices = case
    reference = exponential_law_divided_powers(max(indices), DPElement(a.spec, dict(a.terms)))
    for n in indices:
        assert divided_powers(n, a) == reference[:n], f"divided_powers({n}, {a})"
        assert divided_power(n, a) == reference[n - 1], f"divided_power({n}, {a})"
