"""Exact integer linear algebra: Hermite and Smith normal forms, integer
kernels, and invariant factors of finitely generated quotients.

Everything works on lists of lists of Python ints; no floating point.  The
one elimination is ``hermite_form``.  A kernel is read off one Hermite form
of the augmented transpose, and a Smith form off Hermite forms of a matrix
and its transpose, alternated until diagonal (Kannan and Bachem, SIAM J.
Comput. 8, 1979).
"""

from math import gcd

from .coeff import ZZ


class HermiteBasis(list):
    """The rows of a Hermite normal form, with the pivot column of each row.

    ``supports`` lists, for each row, the columns from its pivot on where the
    row is nonzero, so every solve against the lattice is a triangular
    substitution that touches only nonzero entries.  The rows are read-only:
    ``pivots`` and ``supports`` describe them as built.
    """

    def __init__(self, rows, pivots):
        super().__init__(rows)
        self.pivots = tuple(pivots)
        self.supports = tuple(
            tuple(j for j in range(pcol, len(row)) if row[j]) for pcol, row in zip(self.pivots, self)
        )


def hermite_form(rows, ncols):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns a ``HermiteBasis`` of rows in echelon form with positive pivots
    and entries above each pivot reduced to [0, pivot).  Zero rows are dropped.
    """
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
        # Reduce the column to a single nonzero entry by gcd steps.
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            support = [j for j in range(col, ncols) if pivot[j]]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in support:
                    r[j] -= q * pivot[j]
            live = [r for r in live if r[col] != 0]
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(col, ncols):
                pivot[j] = -pivot[j]
        # Only the rows reduced in this column can have become zero.
        work = rest + [r for r in touched if r is not pivot and any(r)]
        basis.append(pivot)
        pivots.append(col)
        col += 1
    # Reduce entries above each pivot.
    for i, (pcol, prow) in enumerate(zip(pivots, basis)):
        support = [j for j in range(pcol, len(prow)) if prow[j]]
        for above in basis[:i]:
            q = above[pcol] // prow[pcol]
            if q:
                for j in support:
                    above[j] -= q * prow[j]
    return HermiteBasis(basis, pivots)


def spans_full_lattice(rows, ncols):
    """Whether ``rows`` span all of Z^ncols.

    The Hermite normal form of a lattice is unique, and that of Z^ncols is the
    identity, so one reduction decides it.
    """
    hnf = hermite_form(rows, ncols)
    return len(hnf) == ncols and all(row[i] == 1 for i, row in enumerate(hnf))


def kernel_basis_mod(rows, ncols, modulus):
    """Hermite basis of the lattice {v in Z^ncols : M v = 0 mod ``modulus``}.

    ``modulus`` 0 gives the integer right kernel of M.  One Hermite reduction
    of [M^T | I], with [m I | 0] below it when m > 0: a row combination with
    coefficients v over the first block and w over the second is
    (M v + m w, v), so the rows whose M^T part vanished span the lattice.  In
    echelon form they are the last rows, and already its Hermite basis.

    >>> kernel_basis_mod([[1, 2]], 2, 4)
    [[2, 1], [0, 2]]
    """
    nrows = len(rows)
    augmented = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    if modulus:
        augmented += [[modulus if i == j else 0 for i in range(nrows)] + [0] * ncols for j in range(nrows)]
    reduced = hermite_form(augmented, nrows + ncols)
    first = sum(pcol < nrows for pcol in reduced.pivots)
    return HermiteBasis([row[nrows:] for row in reduced[first:]], [p - nrows for p in reduced.pivots[first:]])


def solve_in_lattice(hnf, target):
    """Integer coefficients expressing ``target`` over the rows of ``hnf``, or None.

    ``hnf`` is a ``HermiteBasis`` from ``hermite_form``.  Back substitution
    runs over its cached pivots; a row whose pivot entry in the residue is
    already 0 gets coefficient 0 and is skipped.
    """
    residue = list(target)
    coeffs = [0] * len(hnf)
    for i, (pcol, row, support) in enumerate(zip(hnf.pivots, hnf, hnf.supports)):
        value = residue[pcol]
        if not value:
            continue
        q, r = divmod(value, row[pcol])
        if r:
            return None
        coeffs[i] = q
        for j in support:
            residue[j] -= q * row[j]
    return coeffs if not any(residue) else None


def in_lattice(hnf, target):
    return solve_in_lattice(hnf, target) is not None


def smith_diagonal(hnf, ncols):
    """Positive diagonal d_1 | d_2 | ... of the Smith normal form (length = rank).

    ``hnf`` is a ``HermiteBasis`` as ``hermite_form`` returns it, with
    ``ncols`` columns (which its rows do not show when there are none).
    Alternates Hermite forms of its transpose and of the matrix until every
    row has one nonzero entry (Kannan and Bachem 1979), then merges that
    diagonal into a divisibility chain, padded with 1s up to the rank.

    >>> smith_diagonal(hermite_form([[2, 0], [0, 3]], 2), 2)
    [1, 6]
    """
    while any(len(support) > 1 for support in hnf.supports):
        hnf = hermite_form(list(zip(*hnf)), len(hnf))
    chain = invariant_factor_chain([row[pcol] for pcol, row in zip(hnf.pivots, hnf)], ZZ)
    return [1] * (len(hnf) - len(chain)) + list(chain)


def cokernel_factors(ncols, relation_rows, ring, column_annihilators=None):
    """Invariant factors of Z^ncols (with per-column annihilators) modulo rows.

    Over Z/m the m*identity relations are adjoined before the SNF, so a free
    column contributes a Z/m summand.  The result is the canonical chain
    d_1 | d_2 | ... with 1s dropped and one 0 per free summand.

    In the Hermite form of the relations a pivot equal to 1 is the only
    nonzero entry of its column (entries above it are reduced into [0, 1),
    echelon form puts zeros below it), so column operations clear its row
    without touching any other: the row and its column split off as a Z/1
    summand.  The Smith step sees only the core, the non-unit-pivot rows
    restricted to the remaining columns: deleting those rows and columns
    keeps a Hermite form, with its pivots renumbered.
    """
    rows = [list(r) for r in relation_rows]
    if column_annihilators:
        for j, d in enumerate(column_annihilators):
            if d:
                rows.append([d if i == j else 0 for i in range(ncols)])
    if ring.modulus:
        for j in range(ncols):
            rows.append([ring.modulus if i == j else 0 for i in range(ncols)])
    # Hermite reduction first: cheap, and it caps the row count at ncols
    # before the quadratic Smith elimination runs.
    hnf = hermite_form(rows, ncols)
    units = {pcol for pcol, row in zip(hnf.pivots, hnf) if row[pcol] == 1}
    kept = [j for j in range(ncols) if j not in units]
    position = {j: i for i, j in enumerate(kept)}
    rest = [(position[pcol], row) for pcol, row in zip(hnf.pivots, hnf) if pcol in position]
    core = HermiteBasis([[row[j] for j in kept] for _, row in rest], [p for p, _ in rest])
    diagonal = smith_diagonal(core, len(kept))
    chain = [d for d in diagonal if d != 1]
    chain.extend([0] * (len(kept) - len(diagonal)))
    return tuple(chain)


def invariant_factor_chain(cyclic_orders, ring):
    """Canonical chain for a direct sum of cyclic modules of given orders.

    ``cyclic_orders`` uses the annihilator convention (0 = free summand);
    orders are first collapsed through ``ring.effective_annihilator``, trivial
    summands dropped, and the rest merged into the divisibility chain, so the
    output is directly comparable with ``cokernel_factors``.  Each order d is
    merged by Z/c + Z/d = Z/gcd(c, d) + Z/lcm(c, d) along the chain so far,
    which keeps it a chain and needs no factoring.
    """
    orders = [ring.effective_annihilator(d) for d in cyclic_orders]
    chain = []
    for d in orders:
        if d > 1:
            for i, c in enumerate(chain):
                g = gcd(c, d)
                chain[i], d = g, c // g * d
            chain.append(d)
    return tuple([c for c in chain if c != 1] + [0] * orders.count(0))
