import random

from dpalg import linalg
from dpalg.coeff import Ring, ZZ
from dpalg.linalg import (
    HermiteBasis,
    cokernel_factors,
    hermite_form,
    invariant_factor_chain,
    kernel_basis_mod,
    smith_diagonal,
    solve_in_lattice,
    spans_full_lattice,
)


def determinant(rows):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def densify(hnf, ncols):
    """The rows of the ``HermiteBasis`` ``hnf`` as dense lists of ``ncols`` ints."""
    out = []
    for support, row in zip(hnf.supports, hnf):
        assert len(support) == len(row)
        dense = [0] * ncols
        for j, v in zip(support, row):
            dense[j] = v
        out.append(dense)
    return out


def smith(rows, ncols):
    """The Smith diagonal of the lattice spanned by ``rows``, reduced first."""
    return smith_diagonal(hermite_form(rows, ncols), ncols)


def test_smith_examples():
    assert smith([[2, -2]], 2) == [2]
    assert smith([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == [1, 1, 1]
    assert smith([[2, 0], [0, 3]], 2) == [1, 6]


def test_smith_divisibility_chain_and_determinant():
    rng = random.Random(7)
    for _ in range(200):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag = smith(rows, 4)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        det = determinant(rows)
        if det != 0:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)
        else:
            assert len(diag) < 4


def test_smith_rectangular():
    assert smith([[2, 4, 4]], 3) == [2]
    assert smith([[0, 0], [0, 0]], 2) == []
    assert smith([[6, 0], [0, 10], [0, 0]], 2) == [2, 30]


def test_smith_alternation_transposes_to_the_current_shape(monkeypatch):
    # Each step hands hermite_form the transpose of the basis it holds: one
    # row per column of that basis, and as many columns as it has rows.
    calls = []

    def spy(rows, ncols):
        result = hermite_form(rows, ncols)
        calls.append((len(rows), ncols, len(result)))
        return result

    monkeypatch.setattr(linalg, "hermite_form", spy)
    # Entries sharing factors 2 and 3 make the alternation run more than once.
    rng = random.Random(23)
    entries = (0, 0, 2, 3, 4, 6, -2, -3)
    repeated = 0
    for _ in range(200):
        ncols = rng.randint(2, 6)
        hnf = hermite_form([[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randint(1, 3))], ncols)
        calls.clear()
        diagonal = smith_diagonal(hnf, ncols)
        shape = (ncols, len(hnf))  # (columns, rows) of the basis to transpose
        for nrows, width, rank in calls:
            assert (nrows, width) == shape
            shape = (width, rank)
        assert len(diagonal) == len(hnf)
        repeated += len(calls) > 1 and len(hnf) < ncols
    assert repeated > 10


def test_hermite_membership():
    rows = hermite_form([[2, 0, 4], [0, 3, 1], [2, 3, 5]], 3)
    assert solve_in_lattice(rows, [2, 0, 4]) is not None
    assert solve_in_lattice(rows, [4, 3, 9]) is not None
    assert solve_in_lattice(rows, [1, 0, 0]) is None
    coeffs = solve_in_lattice(rows, [2, 3, 5])
    assert coeffs is not None
    rebuilt = [0, 0, 0]
    for c, row in zip(coeffs, densify(rows, 3)):
        for j in range(3):
            rebuilt[j] += c * row[j]
    assert rebuilt == [2, 3, 5]


def test_hermite_basis_equality_reads_values_and_supports():
    hnf = hermite_form([[1, 0, 2], [0, 3, 0]], 3)
    assert hnf == HermiteBasis([[1, 2], [3]], [[0, 2], [1]])
    assert not hnf != HermiteBasis([[1, 2], [3]], [[0, 2], [1]])
    assert hnf.pivots == (0, 1)
    assert repr(hnf) == "HermiteBasis([{0: 1, 2: 2}, {1: 3}])"
    # The same values over other columns span another lattice.
    moved = HermiteBasis([[1, 2], [3]], [[0, 1], [2]])
    assert hnf != moved and not hnf == moved
    # A basis never equals plain rows, dense or as it stores them, either way round.
    for rows in ([[1, 0, 2], [0, 3, 0]], [(1, 2), (3,)], [[1, 2], [3]]):
        assert hnf != rows and rows != hnf
        assert not hnf == rows and not rows == hnf
    assert densify(hnf, 3) == [[1, 0, 2], [0, 3, 0]]


def test_kernel_basis():
    # x + 2y + z = 0 has a rank-2 kernel.
    basis = kernel_basis_mod([[1, 2, 1]], 3, 0)
    assert len(basis) == 2
    for v in densify(basis, 3):
        assert v[0] + 2 * v[1] + v[2] == 0
    assert solve_in_lattice(basis, [1, 0, -1]) is not None
    assert solve_in_lattice(basis, [0, 1, -2]) is not None
    assert solve_in_lattice(basis, [1, 0, 0]) is None


def test_kernel_basis_random_consistency():
    rng = random.Random(11)
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        basis = kernel_basis_mod(rows, 5, 0)
        for v in densify(basis, 5):
            assert all(sum(r[j] * v[j] for j in range(5)) == 0 for r in rows)
        assert len(basis) == 5 - len(smith(rows, 5))


def test_kernel_basis_mod():
    # Over Z/4: kernel of [1 2] contains (2, 1), (0, 2) and 4Z^2.
    basis = kernel_basis_mod([[1, 2]], 2, 4)
    assert solve_in_lattice(basis, [2, 1]) is not None
    assert solve_in_lattice(basis, [4, 0]) is not None
    assert solve_in_lattice(basis, [0, 4]) is not None
    assert solve_in_lattice(basis, [1, 0]) is None
    for v in densify(basis, 2):
        assert (v[0] + 2 * v[1]) % 4 == 0


def test_cokernel_factors():
    # Z^3 / <(2,0,0)> = Z/2 + Z^2
    assert cokernel_factors(3, [[2, 0, 0]], ZZ) == (2, 0, 0)
    # identity relations kill everything
    assert cokernel_factors(2, [[1, 0], [0, 1]], ZZ) == ()
    # over Z/6 a free column becomes Z/6
    assert cokernel_factors(1, [], Ring(6)) == (6,)
    # column annihilators participate
    assert cokernel_factors(2, [], ZZ, column_annihilators=[2, 0]) == (2, 0)


def _reference_cokernel_factors(ncols, rows, ring, column_annihilators=None):
    """The full Smith step over the Hermite form, with no unit pivots split off."""
    rows = [list(r) for r in rows]
    for j, d in enumerate(column_annihilators or ()):
        if d:
            rows.append([d if i == j else 0 for i in range(ncols)])
    if ring.modulus:
        rows.extend([ring.modulus if i == j else 0 for i in range(ncols)] for j in range(ncols))
    diagonal = smith_diagonal(hermite_form(rows, ncols), ncols)
    chain = [d for d in diagonal if d != 1]
    chain.extend([0] * (ncols - len(diagonal)))
    return tuple(chain)


def _mostly_unit_rows(rng, n):
    """Unit upper-triangular rows with a few non-unit pivots, then row mixing."""
    rows = []
    for i in range(n):
        row = [0] * i + [rng.choice([1, 1, 1, 2, 3, 4])] + [rng.randint(-3, 3) for _ in range(n - i - 1)]
        rows.append(row)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_unit_pivot_split_matches_full_smith():
    rng = random.Random(17)
    units_seen = cores_seen = 0
    for trial in range(240):
        n = rng.randint(2, 7)
        kind = trial % 3
        if kind == 0:  # full rank, with extra rows
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + rng.randint(0, 3))]
        elif kind == 1:  # rank deficient: combinations of fewer base rows
            base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
            rows = [
                [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)]
                for _ in range(rng.randint(0, n + 2))
            ]
        else:
            rows = _mostly_unit_rows(rng, n)
        ring = rng.choice([ZZ, ZZ, Ring(6)])
        anns = [rng.choice([0, 0, 2, 3, 4]) for _ in range(n)] if rng.random() < 0.3 else None
        expected = _reference_cokernel_factors(n, rows, ring, anns)
        assert cokernel_factors(n, rows, ring, column_annihilators=anns) == expected, (rows, ring, anns)
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        assert cokernel_factors(n, sparse, ring, column_annihilators=anns) == expected, (rows, ring, anns)
        hnf = hermite_form(rows, n)
        # A Hermite basis, with the annihilators adjoined when there are any.
        assert cokernel_factors(n, hnf, ring, column_annihilators=anns) == expected, (rows, ring, anns)
        units = sum(row[0] == 1 for row in hnf)
        units_seen += units > 0
        cores_seen += units < len(hnf)
    assert units_seen > 100 and cores_seen > 60


def test_unit_pivot_split_edge_cases():
    # Every pivot a unit: nothing is left.
    assert cokernel_factors(3, [[1, 2, 3], [0, 1, 5], [0, 0, 1]], ZZ) == ()
    # No rows: every column is free.
    assert cokernel_factors(3, [], ZZ) == (0, 0, 0)
    # One unit pivot splits off; the core [[2, 1]] has Smith form [1].
    assert cokernel_factors(3, [[1, 0, 3], [0, 2, 1]], ZZ) == (0,)
    # A non-unit pivot with a nonzero entry above it stays in the core.
    rows = [[1, 1, 0], [0, 2, 0]]
    hnf = hermite_form(rows, 3)
    assert hnf.pivots == (0, 1) and densify(hnf, 3)[0][1] == 1
    assert cokernel_factors(3, rows, ZZ) == (2, 0)
    # Dict rows with column annihilators over Z/6: column 1 dies (gcd(3, 4, 6)
    # = 1), and e_2 = -2 e_0 leaves one Z/6.
    sparse = cokernel_factors(3, [{0: 2, 2: 1}, {1: 3}], Ring(6), column_annihilators=[0, 4, 0])
    assert sparse == _reference_cokernel_factors(3, [[2, 0, 1], [0, 3, 0]], Ring(6), [0, 4, 0]) == (6,)


def test_invariant_factor_chain():
    assert invariant_factor_chain([0, 2, 3], ZZ) == (6, 0)
    assert invariant_factor_chain([2, 2, 3], ZZ) == (2, 6)
    assert invariant_factor_chain([1, 1], ZZ) == ()
    assert invariant_factor_chain([0], Ring(6)) == (6,)
    assert invariant_factor_chain([5], Ring(6)) == ()
    assert invariant_factor_chain([2, 0], Ring(4)) == (2, 4)
    # A large prime order is a coprime-base element of its own: it is never factored.
    mersenne = 2**61 - 1
    assert invariant_factor_chain([4 * mersenne, 6], ZZ) == (2, 12 * mersenne)


def test_chain_matches_cokernel_presentation():
    # The same module described by annihilators and by relation rows.
    rng = random.Random(3)
    for _ in range(100):
        orders = [rng.choice([0, 0, 2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randint(0, 4))]
        ring = rng.choice([ZZ, Ring(4), Ring(6)])
        rows = []
        n = len(orders)
        for j, d in enumerate(orders):
            if d:
                rows.append([d if i == j else 0 for i in range(n)])
        assert cokernel_factors(n, rows, ring) == invariant_factor_chain(orders, ring)


def _reference_solve(hnf_rows, target):
    """Back substitution that finds each pivot by scanning its row."""
    residue = list(target)
    coeffs = []
    for row in hnf_rows:
        pcol = next(j for j, v in enumerate(row) if v != 0)
        q, r = divmod(residue[pcol], row[pcol])
        if r != 0:
            return None
        coeffs.append(q)
        for j in range(pcol, len(residue)):
            residue[j] -= q * row[j]
    return coeffs if not any(residue) else None


def _combine(coeffs, rows, ncols):
    out = [0] * ncols
    for c, row in zip(coeffs, rows):
        for j in range(ncols):
            out[j] += c * row[j]
    return out


def test_cached_pivot_solve_matches_reference():
    rng = random.Random(2024)
    lattices = []
    for _ in range(60):
        ncols = rng.randint(1, 7)
        full_rank = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(ncols + 2)]
        # Rank-deficient: every row is a combination of two seed rows.
        seeds = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(2)]
        deficient = [
            [rng.randint(-3, 3) * a + rng.randint(-3, 3) * b for a, b in zip(*seeds)]
            for _ in range(ncols + 1)
        ]
        matrix = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        lattices.append((hermite_form(full_rank, ncols), ncols))
        lattices.append((hermite_form(deficient, ncols), ncols))
        lattices.append((kernel_basis_mod(matrix, ncols, 6), ncols))
    members = non_members = 0
    for hnf, ncols in lattices:
        rows = densify(hnf, ncols)
        for _ in range(8):
            if hnf and rng.random() < 0.5:
                coeffs = [rng.randint(-4, 4) for _ in hnf]
                target = _combine(coeffs, rows, ncols)
            else:
                target = [rng.randint(-9, 9) for _ in range(ncols)]
            got = solve_in_lattice(hnf, target)
            assert got == _reference_solve(rows, target)
            if got is None:
                non_members += 1
            else:
                members += 1
                assert _combine(got, rows, ncols) == target
    assert members > 100 and non_members > 100


def test_kernel_mod6_solve_rejects_non_members():
    # v = (1, 0, 0) has M v = 1 != 0 mod 6 for M = [[1, 2, 3]].
    basis = kernel_basis_mod([[1, 2, 3]], 3, 6)
    assert solve_in_lattice(basis, [1, 0, 0]) is None
    assert solve_in_lattice(basis, [0, 0, 1]) is None
    coeffs = solve_in_lattice(basis, [6, 0, 0])
    assert coeffs is not None and _combine(coeffs, densify(basis, 3), 3) == [6, 0, 0]


def test_spans_full_lattice_identity_test():
    assert spans_full_lattice([[1, 2], [0, 1]], 2)
    assert spans_full_lattice([[2, 1], [1, 1], [5, 7]], 2)
    assert spans_full_lattice([], 0)
    # Negative control: (2, 0), (0, 1) and (2, 1) span an index-2 sublattice.
    assert not spans_full_lattice([[2, 0], [0, 1], [2, 1]], 2)
    assert not spans_full_lattice([[1, 1], [1, -1]], 2)
    # Rank-deficient rows never span.
    assert not spans_full_lattice([[1, 0, 0], [0, 1, 0]], 3)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        diag = smith(rows, n)
        assert spans_full_lattice(rows, n) == (diag == [1] * n)
