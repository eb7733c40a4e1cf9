"""Exact integer linear algebra: Hermite and Smith normal forms, integer
kernels, and invariant factors of finitely generated quotients.

Matrices are lists of rows of Python ints; no floating point.  A row handed
in may be a dense sequence or a dict {column: value}; a basis handed back is
a ``HermiteBasis``, which stores each row's nonzero values and their columns
only.  The one elimination is ``hermite_form``.  It works on sparse
rows, dicts of their nonzero entries bucketed by leading column, so a
column's gcd steps see only the rows that start there and touch only nonzero
entries (sparse elimination as in Dumas, Saunders and Villard, J. Symb.
Comput. 32, 2001).  Each step pivots on a least entry of the column, ties
going to the row whose next nonzero column lies furthest right, which keeps
fill out of the reduced rows; the Hermite form is unique, so the rule never
changes a basis.  A kernel is read off one Hermite form of the augmented
transpose, and a Smith form off Hermite forms of a matrix and its transpose,
alternated until diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).
"""

from collections import Counter
from itertools import compress
from math import gcd

from .coeff import ZZ


class HermiteBasis(list):
    """The rows of a Hermite normal form, each the tuple of its nonzero
    values in ascending column order; ``supports[i]`` holds the columns of row
    i, so its pivot column is ``supports[i][0]`` and its pivot ``row[0]``, and
    solves against the lattice touch nonzero entries only.  The rows are
    read-only.  Bases are equal when values and supports are, and never equal
    a plain list; a basis goes back into ``hermite_form`` as ``row_dicts()``.
    """

    def __init__(self, rows, supports):
        super().__init__(map(tuple, rows))
        self.supports = tuple(map(tuple, supports))

    @property
    def pivots(self):
        return tuple(support[0] for support in self.supports)

    def row_dicts(self):
        """The rows as dicts {column: value}, a form ``hermite_form`` reads."""
        return [dict(zip(support, row)) for support, row in zip(self.supports, self)]

    def __eq__(self, other):
        return isinstance(other, HermiteBasis) and self.supports == other.supports and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __repr__(self):
        return f"HermiteBasis({self.row_dicts()})"


def hermite_form(rows, ncols):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Each of ``rows`` is a dense sequence of ``ncols`` ints or a dict
    {column: value} with columns below ``ncols``; a dict may hold zero values,
    which are ignored.  The input is left unmodified.  Returns the rows in
    echelon form with positive pivots and entries above each pivot reduced to
    [0, pivot), as a ``HermiteBasis``.  Zero rows are dropped.

    The elimination touches nonzero entries only.  Each row becomes a fresh
    dict {column: value} of its nonzeros, kept in the bucket of its leading
    column.  Column ``col`` takes its bucket, and gcd steps leave one row
    with an entry there, the pivot; a reduced row whose leading entry
    vanished moves to the bucket of its new leading column.  Each step
    pivots on a row with the least |entry| at ``col``; when rows tie, on
    the one whose next nonzero column lies furthest right (found for the
    tied rows only), as the fill it brings into each reduced row then
    starts latest.  The result is the lattice's unique Hermite form
    whichever row pivots.  Then each pivot
    reduces the rows above it that have an entry in its column, found from a
    column index that grows as entries fill in.  Each output row is read off
    its dict: its sorted columns, and the values at them.
    """
    cols = list(range(ncols))  # a list, so compress makes no int objects
    buckets = {}
    for r in rows:
        if isinstance(r, dict):
            row = {j: v for j, v in r.items() if v}
        else:
            row = {j: r[j] for j in compress(cols, r)}
        if row:
            buckets.setdefault(min(row), []).append(row)
    basis = {}  # pivot column -> its row, in column order
    for col in cols:
        if not buckets:
            break
        live = buckets.pop(col, None)
        if live is None:
            continue
        # Reduce the column to a single nonzero entry by gcd steps.
        while len(live) > 1:
            sizes = [abs(r[col]) for r in live]
            least = min(sizes)
            pivot = live[sizes.index(least)]
            if sizes.count(least) > 1:
                # Of the tied rows, the one whose next entry lies furthest
                # right brings the least fill into the rows it reduces.
                furthest = -1
                for r, size in zip(live, sizes):
                    if size == least and (nxt := min(filter(col.__ne__, r), default=ncols)) > furthest:
                        furthest, pivot = nxt, r
            p = pivot[col]
            items = [(j, v) for j, v in pivot.items() if j != col]
            kept = [pivot]
            for r in live:
                if r is pivot:
                    continue
                q, x = divmod(r[col], p)
                for j, v in items:
                    y = r.get(j, 0) - q * v
                    if y:
                        r[j] = y
                    else:
                        del r[j]
                if x:
                    r[col] = x
                    kept.append(r)
                else:
                    del r[col]
                    if r:
                        buckets.setdefault(min(r), []).append(r)
            live = kept
        pivot = live[0]
        if pivot[col] < 0:
            for j in pivot:
                pivot[j] = -pivot[j]
        basis[col] = pivot
    # Reduce entries above each pivot, in pivot order: a row below a pivot
    # never has an entry in its column, and a later pivot leaves it alone.
    holders = {pcol: [] for pcol in basis}
    for row in basis.values():
        for j in row.keys() & holders.keys():
            holders[j].append(row)
    for pcol, prow in basis.items():
        p = prow[pcol]
        items = prow.items()
        for above in holders[pcol]:
            q = above.get(pcol, 0) // p
            if q and above is not prow:
                for j, v in items:
                    x = above.get(j)
                    if x is None:
                        above[j] = -q * v
                        if j in holders:
                            holders[j].append(above)
                    elif x == q * v:
                        del above[j]
                    else:
                        above[j] = x - q * v
    supports = [sorted(row) for row in basis.values()]
    return HermiteBasis([map(row.__getitem__, s) for row, s in zip(basis.values(), supports)], supports)


def spans_full_lattice(rows, ncols):
    """Whether ``rows`` span all of Z^ncols.

    The Hermite normal form of a lattice is unique, and that of Z^ncols is the
    identity, so one reduction decides it.
    """
    hnf = hermite_form(rows, ncols)
    return len(hnf) == ncols and all(row[0] == 1 for row in hnf)


def spans_full_lattice_with(hnf, rows, ncols):
    """Whether ``rows`` together with the ``HermiteBasis`` ``hnf`` span all
    of Z^ncols: ``spans_full_lattice([*rows, *hnf.row_dicts()], ncols)``,
    decided on the non-unit-pivot core of ``hnf`` (see ``unit_pivot_split``).

    A unit pivot row e_c + (entries off the unit pivot columns) splits off
    with its column, so each row is reduced by the unit pivot rows at its
    unit-pivot-column entries, which leaves those entries 0, and projected
    onto the remaining columns, where it joins the core.
    """
    units, kept, core = unit_pivot_split(hnf, ncols)
    reduced = []
    for r in rows:
        v = list(r)
        for support, row in units:
            if q := v[support[0]]:
                for j, x in zip(support, row):
                    v[j] -= q * x
        reduced.append([v[j] for j in kept])
    return spans_full_lattice([*reduced, *core.row_dicts()], len(kept))


def kernel_basis_mod(rows, ncols, modulus):
    """Hermite basis of the lattice {v in Z^ncols : M v = 0 mod ``modulus``}.

    ``modulus`` 0 gives the integer right kernel of M.  One Hermite reduction
    of [M^T | I], with [m I | 0] below it when m > 0: a row combination with
    coefficients v over the first block and w over the second is
    (M v + m w, v), so the rows whose M^T part vanished span the lattice.  In
    echelon form they are the last rows, and already its Hermite basis: their
    supports lie past the first ``len(rows)`` columns, and shift down by that.

    >>> kernel_basis_mod([[1, 2]], 2, 4)
    HermiteBasis([{0: 2, 1: 1}, {1: 2}])
    """
    nrows = len(rows)
    augmented = [{i: row[j] for i, row in enumerate(rows)} | {nrows + j: 1} for j in range(ncols)]
    if modulus:
        augmented += [{j: modulus} for j in range(nrows)]
    reduced = hermite_form(augmented, nrows + ncols)
    first = sum(pcol < nrows for pcol in reduced.pivots)
    return HermiteBasis(reduced[first:], [[j - nrows for j in support] for support in reduced.supports[first:]])


def solve_in_lattice(hnf, target):
    """Integer coefficients expressing ``target`` over the rows of ``hnf``, or None.

    ``hnf`` is a ``HermiteBasis`` from ``hermite_form``.  Back substitution
    walks each row's columns and values; a row whose pivot entry in the
    residue is already 0 gets coefficient 0 and is skipped.
    """
    residue = list(target)
    coeffs = [0] * len(hnf)
    for i, (support, row) in enumerate(zip(hnf.supports, hnf)):
        value = residue[support[0]]
        if not value:
            continue
        q, r = divmod(value, row[0])
        if r:
            return None
        coeffs[i] = q
        for j, v in zip(support, row):
            residue[j] -= q * v
    return coeffs if not any(residue) else None


def smith_diagonal(hnf, ncols):
    """Positive diagonal d_1 | d_2 | ... of the Smith normal form (length = rank).

    ``hnf`` is a ``HermiteBasis`` as ``hermite_form`` returns it, with
    ``ncols`` columns.  Alternates Hermite forms of its transpose and of the
    matrix until every row has one nonzero entry (Kannan and Bachem 1979),
    then merges that diagonal into a divisibility chain, padded with 1s up to
    the rank.  The transpose is built sparsely, one dict {row: value} per
    column.

    >>> smith_diagonal(hermite_form([[2, 0], [0, 3]], 2), 2)
    [1, 6]
    """
    while any(len(support) > 1 for support in hnf.supports):
        columns = [{} for _ in range(ncols)]
        for i, (support, row) in enumerate(zip(hnf.supports, hnf)):
            for j, v in zip(support, row):
                columns[j][i] = v
        hnf, ncols = hermite_form(columns, len(hnf)), len(hnf)
    chain = invariant_factor_chain([row[0] for row in hnf], ZZ)
    return [1] * (len(hnf) - len(chain)) + list(chain)


def unit_pivot_split(hnf, ncols):
    """Split the ``HermiteBasis`` ``hnf`` at its unit pivots: (units, kept,
    core).

    A pivot equal to 1 is the only nonzero entry of its column (entries above
    it are reduced into [0, 1), echelon form puts zeros below it), so column
    operations clear its row without touching any other: the row and its
    column split off as a Z/1 summand.  ``units`` lists (support, row) of
    those rows, ``kept`` the other columns, and ``core`` the other rows,
    which have no entry in a unit pivot column: deleting those rows and
    columns keeps a Hermite form, whose rows keep their values and whose
    supports are renumbered.
    """
    units = [(support, row) for support, row in zip(hnf.supports, hnf) if row[0] == 1]
    unit_cols = {support[0] for support, _ in units}
    kept = [j for j in range(ncols) if j not in unit_cols]
    position = {j: i for i, j in enumerate(kept)}
    rest = [(support, row) for support, row in zip(hnf.supports, hnf) if row[0] != 1]
    core = HermiteBasis([row for _, row in rest], [[position[j] for j in support] for support, _ in rest])
    return units, kept, core


def cokernel_factors(ncols, relation_rows, ring, column_annihilators=None):
    """Invariant factors of R^ncols (with per-column annihilators) modulo rows.

    ``relation_rows`` takes rows in either form ``hermite_form`` accepts:
    dense sequences of ``ncols`` ints, or dicts {column: value}.  Each nonzero
    column annihilator d_j is adjoined as the one-entry row {j: d_j}, and the
    cokernel M is reduced over Z.  Over R = Z/m the module is M/mM, whose
    factors are those of M, each mapped by ``ring.effective_annihilator``, so
    ``invariant_factor_chain`` gives the canonical chain d_1 | d_2 | ... over
    R, with 1s dropped and one 0 per free summand.  Relations handed in as a
    ``HermiteBasis`` with nothing adjoined are used as they are: the Hermite
    form of a Hermite form is itself; with annihilators adjoined, they are
    reduced again from their ``row_dicts()``.

    A unit pivot of the Hermite form of the relations splits off its row and
    column as a Z/1 summand, so the Smith step sees only the core
    (``unit_pivot_split``).
    """
    adjoined = [{j: d} for j, d in enumerate(column_annihilators or ()) if d]
    hnf = relation_rows
    if adjoined or not isinstance(hnf, HermiteBasis):
        # Hermite reduction first: cheap, and it caps the row count at ncols
        # before the Smith alternation runs.
        rows = hnf.row_dicts() if isinstance(hnf, HermiteBasis) else relation_rows
        hnf = hermite_form([*rows, *adjoined], ncols)
    _, kept, core = unit_pivot_split(hnf, ncols)
    diagonal = smith_diagonal(core, len(kept))
    return invariant_factor_chain(diagonal + [0] * (len(kept) - len(diagonal)), ring)


def invariant_factor_chain(cyclic_orders, ring):
    """Canonical chain for a direct sum of cyclic modules of given orders.

    ``cyclic_orders`` uses the annihilator convention (0 = free summand);
    orders are first collapsed through ``ring.effective_annihilator``, trivial
    summands dropped, and the rest arranged into the divisibility chain, so
    the output is directly comparable with ``cokernel_factors``.  Each order
    is split into prime powers, each prime's powers are sorted, and the chain
    is their product position by position, the largest powers at the end:
    the elementary divisors regrouped into invariant factors.  The "primes"
    are a coprime base of the distinct orders, found by gcds, so no order is
    factored: an order whose prime factors are out of reach stays whole.
    """
    orders = [ring.effective_annihilator(d) for d in cyclic_orders]
    counts = Counter(d for d in orders if d > 1)
    powers = {b: [] for b in _coprime_base(counts)}  # b -> its exponent in each order
    for d, count in counts.items():
        for b, exponents in powers.items():
            e = 0
            while d % b == 0:
                d //= b
                e += 1
            exponents += [e] * count
    chain = [1] * sum(counts.values())
    for b, exponents in powers.items():
        exponents.sort()
        for i, e in enumerate(exponents):
            chain[i] *= b**e
    return tuple([c for c in chain if c != 1] + [0] * orders.count(0))


def _coprime_base(values):
    """Pairwise coprime integers > 1 of which each of ``values`` is a product.

    An element meeting a new value in a gcd g > 1 is split into g and its
    cofactors, which go back through the refinement; the product of what is
    left to place drops by g each time, so the refinement ends.
    """
    base = []
    for value in values:
        pending = [value]
        while pending:
            x = pending.pop()
            if x == 1:
                continue
            for i, b in enumerate(base):
                g = gcd(x, b)
                if g > 1:
                    del base[i]
                    pending += [g, b // g, x // g]
                    break
            else:
                base.append(x)
    return base
