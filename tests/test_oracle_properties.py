"""Property test of the oracle's I^2 = J * I construction against the
all-pairs product of kernel rows, on drawn settings.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import free_spec
from dpalg.oracle import OmegaOracle
from test_oracle import assert_relations_match_all_pairs


@st.composite
def oracle_settings(draw):
    """(weights, truncation, modulus): rank <= 3, weights in 1..3, N <= 7
    and at least the largest weight, modulus 0 (over Z) or 2..30."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    truncation = draw(st.integers(max(weights), 7))
    modulus = draw(st.sampled_from([0, *range(2, 31)]))
    return weights, truncation, modulus


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(oracle_settings())
def test_relations_match_all_pairs_on_drawn_settings(case):
    weights, truncation, modulus = case
    ring = Ring(modulus) if modulus else ZZ
    assert_relations_match_all_pairs(OmegaOracle(free_spec(ring, len(weights), truncation, weights=weights)))
