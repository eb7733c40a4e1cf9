"""Property tests of hermite_form, smith_diagonal and kernel_basis_mod
against references that run no elimination from ``dpalg.linalg``: a dense
Hermite loop kept here, determinantal divisors from Bareiss determinants, and
kernels by enumerating a box of vectors.  cokernel_factors over Z/m is held
to the direct route, which adjoins every m*e_j before one Smith form, and
invariant_factor_chain to merging the orders by gcd and lcm.

Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import random
from itertools import combinations, product
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from dpalg.coeff import Ring
from dpalg.linalg import (
    cokernel_factors,
    hermite_form,
    invariant_factor_chain,
    kernel_basis_mod,
    smith_diagonal,
    solve_in_lattice,
    spans_full_lattice,
    spans_full_lattice_with,
)
from test_linalg import _reference_cokernel_factors, densify, determinant


@st.composite
def matrices(draw, max_rows, max_cols, min_cols=1):
    """Matrices with entries in [-6, 6] as (rows, ncols); some rows are copied
    over others, so rank-deficient matrices come up often, and zero ones
    shrink out."""
    ncols = draw(st.integers(min_cols, max_cols))
    entries = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(entries, max_size=max_rows))
    if len(rows) > 1:
        for dst, src in draw(st.lists(st.tuples(*[st.integers(0, len(rows) - 1)] * 2), max_size=2)):
            rows[dst] = list(rows[src])
    return rows, ncols


def dense_hermite_form(rows, ncols):
    """Reference Hermite form: (rows, pivots, supports) by a dense loop that
    rescans every remaining row for each column."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    pivots = []
    col = 0
    while col < ncols and work:
        live, rest = [], []
        for r in work:
            (live if r[col] else rest).append(r)
        if not live:
            col += 1
            continue
        touched = live
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(col, ncols):
                    r[j] -= q * pivot[j]
            live = [r for r in live if r[col] != 0]
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(col, ncols):
                pivot[j] = -pivot[j]
        work = rest + [r for r in touched if r is not pivot and any(r)]
        basis.append(pivot)
        pivots.append(col)
        col += 1
    for i, (pcol, prow) in enumerate(zip(pivots, basis)):
        for above in basis[:i]:
            q = above[pcol] // prow[pcol]
            for j in range(pcol, ncols):
                above[j] -= q * prow[j]
    supports = [tuple(j for j in range(ncols) if row[j]) for row in basis]
    return basis, tuple(pivots), tuple(supports)


@st.composite
def sparse_matrices(draw):
    """Wide matrices, up to 30 x 60, with 0-3 nonzeros per row and entries up
    to 10^6 in size, so gcd chains run long; some rows are repeated, some are
    tuples, and some are dicts {column: value}, which may be empty or hold an
    explicit zero.  The entries come from one seeded generator, which draws
    far faster than one strategy per entry."""
    ncols = draw(st.integers(1, 60))
    nrows = draw(st.integers(1, 30))
    rng = draw(st.randoms(use_true_random=True))
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for _ in range(rng.randint(0, 3)):
            row[rng.randrange(ncols)] = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 6))
        rows.append(row)
    for _ in range(rng.randint(0, 3)):
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(nrows)
        rows[i] = tuple(rows[i])
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(nrows)
        row = {j: v for j, v in enumerate(rows[i]) if v}
        if rng.random() < 0.5:
            row[rng.randrange(ncols)] = 0  # may also zero out a nonzero entry
        rows[i] = row
    return rows, ncols


def _dense(row, ncols):
    if not isinstance(row, dict):
        return list(row)
    out = [0] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def _copies(rows):
    return [dict(r) if isinstance(r, dict) else list(r) for r in rows]


def _assert_matches_dense_loop(rows, ncols):
    before = _copies(rows)
    hnf = hermite_form(rows, ncols)
    assert _copies(rows) == before  # the input is left alone
    basis, pivots, supports = dense_hermite_form([_dense(r, ncols) for r in rows], ncols)
    assert densify(hnf, ncols) == basis
    assert hnf.pivots == pivots
    assert hnf.supports == supports
    # Only nonzero values are stored, over strictly ascending columns.
    assert all(all(row) for row in hnf)
    assert all(list(support) == sorted(set(support)) for support in hnf.supports)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sparse_matrices())
@example(([], 4))
@example(([[0, 0, 0], (0, 0, 0)], 3))
@example(([[0, 6, 0, 4], (0, 6, 0, 4), [0, 0, 0, 0], [0, 10, 15, 0]], 4))
@example(([{}, {2: 0}, {3: 4, 1: 6, 0: 0}, [0, 10, 15, 0], {1: 6, 3: 4}], 4))
def test_hermite_form_matches_dense_loop_on_sparse_rows(case):
    _assert_matches_dense_loop(*case)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(matrices(max_rows=6, max_cols=6, min_cols=0))
@example(([[2, 4, 6], [1, 2, 3], [3, 6, 9]], 3))
@example(([(-3, 5), (0, 0), (-3, 5)], 2))
def test_hermite_form_matches_dense_loop_on_small_dense_rows(case):
    _assert_matches_dense_loop(*case)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(matrices(max_rows=8, max_cols=6, min_cols=0), st.integers(0, 2**32 - 1))
@example(([[2, 1, 0], [2, 0, 1], [-2, 0, 0], [2, 3, 5]], 3), 0)
@example(([[1, 4, 0, 0], [1, 0, 0, 3], [1, 0, 2, 0], [0, 1, 1, 1]], 4), 7)
def test_hermite_form_is_the_same_in_any_row_order_and_form(case, seed):
    # The pivot of a column is a least entry, ties going to the row whose
    # next entry lies furthest right; the basis is the lattice's unique
    # Hermite form, so neither the row order nor the row form can change it.
    rows, ncols = case
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    hnf = hermite_form(rows, ncols)
    assert hermite_form([{j: v for j, v in enumerate(r) if v} for r in rows], ncols) == hnf
    assert hermite_form(rows[::-1], ncols) == hnf
    assert hermite_form(shuffled, ncols) == hnf


def minors(rows, ncols, k):
    return [
        determinant([[rows[i][j] for j in cols] for i in picked])
        for picked in combinations(range(len(rows)), k)
        for cols in combinations(range(ncols), k)
    ]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(matrices(max_rows=4, max_cols=5))
@example(([], 3))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[2, 4, 6], [1, 2, 3], [3, 6, 9]], 3))
@example(([[2, 0], [0, 3]], 2))
def test_smith_diagonal_matches_determinantal_divisors(case):
    rows, ncols = case
    diagonal = smith_diagonal(hermite_form(rows, ncols), ncols)
    rank = max(k for k in range(min(len(rows), ncols) + 1) if any(minors(rows, ncols, k)))
    assert len(diagonal) == rank
    assert all(d > 0 for d in diagonal)
    # d_1 ... d_k is the gcd of the k x k minors, which fixes every d_k.
    for k in range(1, rank + 1):
        assert prod(diagonal[:k]) == gcd(*minors(rows, ncols, k)), (k, diagonal)


def _image(rows, v):
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((4, 6, 12)), matrices(max_rows=2, max_cols=3, min_cols=0))
@example(4, ([[1, 2]], 2))
@example(6, ([[0, 0, 0]], 3))
def test_kernel_mod_m_is_every_solution_in_a_box(modulus, case):
    rows, ncols = case
    basis = kernel_basis_mod(rows, ncols, modulus)
    for v in densify(basis, ncols):
        assert all(x % modulus == 0 for x in _image(rows, v))
    # The lattice holds m Z^n, so the box [0, m)^n meets every residue class.
    for i in range(ncols):
        assert solve_in_lattice(basis, [modulus if j == i else 0 for j in range(ncols)]) is not None
    for v in product(range(modulus), repeat=ncols):
        solves = all(x % modulus == 0 for x in _image(rows, v))
        assert (solve_in_lattice(basis, v) is not None) == solves, v


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(matrices(max_rows=2, max_cols=3, min_cols=0))
@example(([[1, 2, 1]], 3))
def test_integer_kernel_holds_every_solution_in_a_box(case):
    rows, ncols = case
    basis = kernel_basis_mod(rows, ncols, 0)
    for v in densify(basis, ncols):
        assert not any(_image(rows, v))
    for v in product(range(-3, 4), repeat=ncols):
        assert (solve_in_lattice(basis, v) is not None) == (not any(_image(rows, v))), v


@st.composite
def annihilated_matrices(draw):
    """A sparse matrix with column annihilators, about half of them nonzero."""
    rows, ncols = draw(sparse_matrices())
    anns = draw(st.lists(st.sampled_from((0, 0, 0, 2, 3, 4, 6, 9, 10)), min_size=ncols, max_size=ncols))
    return rows, ncols, anns


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((2, 4, 6, 9, 12, 30)), annihilated_matrices())
@example(6, ([], 4, [0, 0, 0, 0]))
@example(12, ([], 3, [0, 8, 9]))
@example(30, ([[2, 0, 3], {0: 5, 2: 10}], 3, [0, 0, 0]))  # column 1 is zero
@example(4, ([[1, 0, 3], [0, 2, 1]], 3, [0, 6, 0]))
def test_cokernel_factors_mod_m_match_adjoining_every_m_e_j(modulus, case):
    """M/mM has the factors of M, each d sent to gcd(d, m) and each free
    summand to m: the same chain as the Smith form with every m*e_j adjoined."""
    rows, ncols, anns = case
    ring = Ring(modulus)
    expected = _reference_cokernel_factors(ncols, [_dense(r, ncols) for r in rows], ring, anns)
    assert cokernel_factors(ncols, rows, ring, anns) == expected


@st.composite
def lattices_with_images(draw):
    """(relation rows, image rows, ncols): relations with entries in [-6, 6],
    whose Hermite forms often have unit pivots, and up to three image rows
    with entries in [-2, 2]."""
    rows, ncols = draw(matrices(8, 6))
    entries = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    return rows, draw(st.lists(entries, max_size=3)), ncols


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(lattices_with_images())
@example(([], [], 3))
@example(([[1, 2, 0], [0, 2, 1]], [], 3))  # one unit pivot, and a core of 2
@example(([[1, 2, 0], [0, 2, 1]], [[0, 1, 0]], 3))  # e_1 closes the core
@example(([[1, 0, 2], [0, 3, 1]], [[1, 1, 2]], 3))  # spans only after the unit reduction
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], 3))  # all unit pivots: no core
def test_spans_full_lattice_with_matches_stacking_the_rows(case):
    """Deciding on the non-unit-pivot core, after reducing the images by the
    unit pivot rows, agrees with one Hermite form of everything stacked."""
    relations, images, ncols = case
    hnf = hermite_form(relations, ncols)
    assert spans_full_lattice_with(hnf, images, ncols) == spans_full_lattice([*images, *densify(hnf, ncols)], ncols)


def merged_invariant_factor_chain(cyclic_orders, ring):
    """The chain by merging: each order d goes along the chain built so far
    by Z/c + Z/d = Z/gcd(c, d) + Z/lcm(c, d), which keeps it a chain and
    factors nothing, at O(orders x chain length) gcds."""
    orders = [ring.effective_annihilator(d) for d in cyclic_orders]
    chain = []
    for d in orders:
        if d > 1:
            for i, c in enumerate(chain):
                g = gcd(c, d)
                chain[i], d = g, c // g * d
            chain.append(d)
    return tuple([c for c in chain if c != 1] + [0] * orders.count(0))


ORDERS = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 30, 36, 49, 60, 2**61 - 1))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from((0, 4, 6, 9, 12, 30)), st.lists(ORDERS, max_size=14))
@example(0, [])
@example(0, [0, 2, 3])
@example(0, [4 * (2**61 - 1), 6])  # a prime too large to find stays a base element
@example(12, [8, 9, 0, 0, 6])
@example(30, [4, 6, 9, 25, 2**61 - 1])
def test_invariant_factor_chain_matches_the_merge(modulus, orders):
    """Prime powers sorted per prime and multiplied position by position give
    the chain that merging order by order gives."""
    ring = Ring(modulus)
    assert invariant_factor_chain(orders, ring) == merged_invariant_factor_chain(orders, ring)
