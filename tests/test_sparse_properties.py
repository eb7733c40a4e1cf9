"""Property tests of the sparse element core shared by DPElement and UElement.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import DPElement, basis_up_to, free_spec
from dpalg.envelope import UNIT, UElement, term_weight
from dpalg.parser import parse_and_evaluate

PHIS = (UNIT, (2, 1), (3, 1), (2, 2), (5, 1))


def _keys(spec, kind):
    monomials = basis_up_to(spec)
    if kind is DPElement:
        return monomials
    # Labels () for U(A), dx_i for Omega and every monomial for U(A) (x) A.
    keys = [
        (label, phi, amono)
        for label in [(), *monomials]
        for phi in PHIS
        for amono in [None, *monomials]
    ]
    return [key for key in keys if term_weight(spec, key) <= spec.truncation]


@st.composite
def element_pairs(draw, kinds=(DPElement, UElement)):
    """Two elements of one type over Z, Z/4 or Z/6, rank 1 or 2, weights 1 or 2."""
    kind = draw(st.sampled_from(kinds))
    ring = draw(st.sampled_from((ZZ, Ring(4), Ring(6))))
    weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    spec = free_spec(ring, len(weights), draw(st.integers(4, 8)), weights=weights)
    terms = st.dictionaries(st.sampled_from(_keys(spec, kind)), st.integers(-9, 9), max_size=4)
    return kind(spec, draw(terms)), kind(spec, draw(terms))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(element_pairs(), st.integers(-7, 7), st.integers(-7, 7))
def test_group_laws_scaling_and_hashing(pair, r, s):
    a, b = pair
    assert (a - b) + b == a
    assert (a + (-a)).is_zero()
    assert a.scale(r).scale(s) == a.scale(r * s)
    for same in ((a - b) + b, type(a)(a.spec, dict(a.terms))):
        assert same == a and hash(same) == hash(a)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(element_pairs(kinds=(DPElement,)))
def test_printed_algebra_elements_parse_back(pair):
    for a in pair:
        assert parse_and_evaluate(str(a), a.spec) == a
