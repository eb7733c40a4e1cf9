"""Exact integer linear algebra: Hermite and Smith normal forms, integer
kernels, and invariant factors of finitely generated quotients.

Everything works on lists of lists of Python ints; no floating point.  The
algorithms are the classical elementary-operation ones (see e.g.
https://en.wikipedia.org/wiki/Smith_normal_form#Algorithm), which are entirely
adequate at desk scale.
"""

from math import prod


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


def hermite_form(rows, ncols=None):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns a ``HermiteBasis`` of rows in echelon form with positive pivots
    and entries above each pivot reduced to [0, pivot).  Zero rows are dropped.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
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


def kernel_basis(rows, ncols):
    """Basis of the integer right kernel {v : M v = 0} of the matrix ``rows``.

    Uses the standard trick: row-reduce [M^T | I] and collect the I-parts of
    the rows whose M^T-part vanished.
    """
    nrows = len(rows)
    augmented = []
    for j in range(ncols):
        augmented.append([rows[i][j] for i in range(nrows)] + [int(i == j) for i in range(ncols)])
    reduced = hermite_form(augmented, nrows + ncols)
    kernel = [row[nrows:] for row in reduced if not any(row[:nrows])]
    # hermite_form dropped fully-zero rows, but a kernel vector is never zero
    # here because the identity block keeps every augmented row nonzero.
    return hermite_form(kernel, ncols)


def kernel_basis_mod(rows, ncols, modulus):
    """Lattice L of v in Z^ncols with M v = 0 mod ``modulus`` (L contains mZ^n)."""
    if modulus == 0:
        return kernel_basis(rows, ncols)
    nrows = len(rows)
    padded = [list(r) + [modulus if i == j else 0 for j in range(nrows)] for i, r in enumerate(rows)]
    lifted = kernel_basis(padded, ncols + nrows)
    return hermite_form([v[:ncols] for v in lifted], ncols)


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


def smith_diagonal(rows, ncols=None):
    """Positive diagonal d_1 | d_2 | ... of the Smith normal form (length = rank)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = [list(r) for r in rows if any(r)]
    diagonal = []
    t = 0  # column offset of the untreated block
    while m and t < ncols:
        while True:
            # Clear column t below the pivot (gcd loop via row operations).
            while True:
                live = [i for i in range(1, len(m)) if m[i][t] != 0]
                if m[0][t] == 0:
                    if not live:
                        break
                    m[0], m[live[0]] = m[live[0]], m[0]
                    continue
                if not live:
                    break
                for i in live:
                    q = m[i][t] // m[0][t]
                    for j in range(t, ncols):
                        m[i][j] -= q * m[0][j]
                    if m[i][t]:
                        m[0], m[i] = m[i], m[0]
            if m[0][t] == 0:
                # Whole column is zero: swap in a later column with content.
                swap = next(
                    (j for j in range(t + 1, ncols) if any(row[j] for row in m)), None
                )
                if swap is None:
                    return diagonal
                for row in m:
                    row[t], row[swap] = row[swap], row[t]
                continue
            # Clear row 0 right of the pivot (gcd loop via column operations).
            row_clear = True
            for j in range(t + 1, ncols):
                while m[0][j]:
                    q = m[0][j] // m[0][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[0][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        row_clear = False
            # Column swaps may have reintroduced entries below the pivot.
            if row_clear and all(m[i][t] == 0 for i in range(1, len(m))):
                break
        pivot = abs(m[0][t])
        # The pivot must divide every remaining entry; otherwise fold the
        # offending row into the pivot row and redo this step.
        culprit = next(
            (row for row in m[1:] if any(v % pivot for v in row[t:])), None
        )
        if culprit is not None:
            for j in range(t, ncols):
                m[0][j] += culprit[j]
            continue
        diagonal.append(pivot)
        m = [row for row in m[1:] if any(row[t + 1 :])]
        t += 1
    return diagonal


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
    restricted to the remaining columns.
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
    core = [[row[j] for j in kept] for pcol, row in zip(hnf.pivots, hnf) if pcol not in units]
    diagonal = smith_diagonal(core, len(kept))
    chain = [d for d in diagonal if d != 1]
    chain.extend([0] * (len(kept) - len(diagonal)))
    return tuple(chain)


def _factorize(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factor_chain(cyclic_orders, ring):
    """Canonical chain for a direct sum of cyclic modules of given orders.

    ``cyclic_orders`` uses the annihilator convention (0 = free summand);
    orders are first collapsed through ``ring.effective_annihilator``, trivial
    summands dropped, and the rest merged into the divisibility chain, so the
    output is directly comparable with ``cokernel_factors``.
    """
    free = 0
    by_prime = {}
    for d in cyclic_orders:
        order = ring.effective_annihilator(d)
        if order == 0:
            free += 1
        elif order > 1:
            for p, e in _factorize(order).items():
                by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for level in range(depth, 0, -1):
        factor = prod(p ** sorted(es, reverse=True)[level - 1] for p, es in by_prime.items() if len(es) >= level)
        chain.append(factor)
    chain.extend([0] * free)
    return tuple(chain)


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
