"""Property test of Omega's U(A)-module tables against the dense reference,
on drawn settings.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import basis_up_to, free_spec
from test_kahler import _assert_tables_match_reference


@st.composite
def _small_specs(draw):
    """Rank 1-3 with weights in 1..3 (gaps included), N <= 7 and at least
    every weight, over Z or Z/m with m in 2..12.  Settings with more than 60
    monomials are dropped: (3,7,Z) with unit weights has 119, and its
    reference and dense views take about 2 s."""
    rank = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank)))
    ring = draw(st.one_of(st.just(ZZ), st.builds(Ring, st.integers(2, 12))))
    spec = free_spec(ring, rank, draw(st.integers(max(weights), 7)), weights=weights)
    assume(len(basis_up_to(spec)) <= 60)
    return spec


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_small_specs())
def test_omega_module_tables_match_dense_reference_on_drawn_settings(spec):
    _assert_tables_match_reference(spec)
