"""Beck modules as finite action tables, and semidirect extensions A (+) M.

A UModule is a left U(A)-module on an explicit finite basis: per-basis
annihilators (0 = free cyclic summand), one integer table per algebra basis
monomial, and one table per prime p for the phi_p operator.  Columns are the
one stored form of a table: column j holds the nonzero (row, value) pairs of
the image of basis vector j, and the actions and every law read them.  A
module is built from columns (UModule.from_columns) or from dense rows, which
are turned into columns once; a_action and phi_action are dense views built
on read.
phi_p is additive and p-semilinear; semilinearity is enforced structurally by
raising coordinates to the p-th power before the table is applied, so
phi_p(r x) = r^p phi_p(x) holds by construction.

The semidirect product A (+) M carries the multiplication
(a, x)(b, y) = (ab, ay + bx) and divided powers

    gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i+j=n} gamma_i(a) phi_j(x)),

which make it a DP algebra precisely when the action tables form a genuine
U(A)-module; verify_beck_axioms exercises that through the generic axiom
suite.  Over the zero algebra a module is an abelian DP algebra (trivial
product, gamma_n = phi_n), so its structure laws are the DP axioms of
0 (+) M, and verify_abelian_structure runs the same suite on (0, x).
"""

from itertools import compress

from .coeff import is_prime
from .dpcore import basis_up_to, divided_powers, dp_axiom_report, from_terms, random_element, zero
from .envelope import (
    UNIT,
    phi_mul,
    phi_of,
    u0_basis_up_to,
)
from .report import CheckReport

RANDOM_VEC_BOUND = 9  # random_vec draws each coordinate from -9..9


def _nonzero(vec):
    """The nonzero (index, value) pairs of a vector."""
    return [(j, v) for j, v in enumerate(vec) if v]


def _image(columns, pairs, out=None):
    """Add into ``out`` the unreduced image {target: value}, under the table with
    ``columns``, of the vector whose nonzero (source, value) pairs are ``pairs``."""
    out = {} if out is None else out
    for j, v in pairs:
        for i, w in columns[j]:
            out[i] = out.get(i, 0) + v * w
    return out


class UModule:
    """Finitely generated U(A)-module whose tables are stored as nonzero columns.

    ``UModule(spec, annihilators, a_action=rows, phi_action=rows)`` takes each
    table as rank x rank rows; ``from_columns`` takes the stored form itself.
    """

    def __init__(self, spec, annihilators, a_action=None, phi_action=None):
        self._build(spec, annihilators, a_action or {}, phi_action or {}, self._columns)

    @classmethod
    def from_columns(cls, spec, annihilators, a_columns=None, phi_columns=None):
        """A module from its stored form: per key, ``rank`` columns, column j
        the nonzero (row, value) pairs of the image of basis vector j in
        ascending row order."""
        module = object.__new__(cls)
        module._build(spec, annihilators, a_columns or {}, phi_columns or {}, module._checked_columns)
        return module

    def _build(self, spec, annihilators, a_tables, phi_tables, columns):
        """Check the annihilators and the table keys, then store each table as
        ``columns(key, table)``."""
        self.spec = spec
        self.annihilators = tuple(annihilators)
        if any(d < 0 for d in self.annihilators):
            raise ValueError(f"annihilators {self.annihilators} must be >= 0 (0 = free)")
        self.moduli = tuple(spec.ring.effective_annihilator(d) for d in self.annihilators)
        self._torsion = tuple((i, d) for i, d in enumerate(self.moduli) if d)
        monomials = set(basis_up_to(spec)) if a_tables else set()
        for mono in a_tables:
            if mono not in monomials:
                raise ValueError(f"a_action key {mono} is not a basis monomial of the algebra")
        for p in phi_tables:
            if not is_prime(p):
                raise ValueError(f"phi_action key {p} is not a prime")
        self._a_columns = {m: columns(m, table) for m, table in a_tables.items()}
        self._phi_columns = {p: columns(p, table) for p, table in phi_tables.items()}

    def _columns(self, key, rows):
        """Column j as its nonzero (row, entry) pairs: the image of basis vector j."""
        n = self.rank
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"table {key} is not {n} x {n}")
        positions = list(range(n))  # a list, so compress makes no int objects
        columns = [[] for _ in positions]
        for i, row in enumerate(rows):
            for j in compress(positions, row):
                columns[j].append((i, row[j]))
        return columns

    def _checked_columns(self, key, columns):
        """``columns`` as a list, once each column is checked to be nonzero
        pairs with rows ascending in 0..rank-1."""
        n = self.rank
        if len(columns) != n:
            raise ValueError(f"table {key} has {len(columns)} columns, not {n}")
        for j in compress(range(n), columns):
            column = columns[j]
            rows = [i for i, _ in column]
            if any(not 0 <= i < n for i in rows):
                raise ValueError(f"table {key}, column {j}: a row index lies outside 0..{n - 1}")
            if rows != sorted(set(rows)):
                raise ValueError(f"table {key}, column {j}: rows are not strictly ascending")
            if not all(v for _, v in column):
                raise ValueError(f"table {key}, column {j}: a value is 0")
        return list(columns)

    def _rows(self, columns):
        """The dense rank x rank rows, as tuples, of a table given by columns."""
        rows = [[0] * self.rank for _ in columns]
        for j, column in enumerate(columns):
            for i, v in column:
                rows[i][j] = v
        return [tuple(row) for row in rows]

    @property
    def a_action(self):
        """Dense view, built on each read: monomial -> the table's rows."""
        return {m: self._rows(columns) for m, columns in self._a_columns.items()}

    @property
    def phi_action(self):
        """Dense view, built on each read: prime -> the table's rows."""
        return {p: self._rows(columns) for p, columns in self._phi_columns.items()}

    @property
    def rank(self):
        return len(self.annihilators)

    def _reduced(self, vec):
        """``vec``, a fresh list, with its torsion coordinates reduced, as a tuple."""
        for i, d in self._torsion:
            vec[i] %= d
        return tuple(vec)

    def reduce(self, vec):
        return self._reduced(list(vec))

    def zero_vec(self):
        return (0,) * self.rank

    def add_vec(self, x, y):
        return self._reduced([a + b for a, b in zip(x, y)])

    def scale_vec(self, c, x):
        return self._reduced([c * a for a in x])

    def _vector(self, image):
        """The reduced vector of an unreduced image {index: value}."""
        moduli = self.moduli
        vec = [0] * len(moduli)
        for i, v in image.items():
            d = moduli[i]
            vec[i] = v % d if d else v
        return tuple(vec)

    def _vanishes(self, image):
        moduli = self.moduli
        return all(not (v % moduli[i] if moduli[i] else v) for i, v in image.items())

    def _act_image(self, a, pairs, image):
        """Add into ``image`` the unreduced image, under the action of ``a``, of
        the vector whose nonzero pairs are ``pairs``."""
        for mono, c in a.terms.items():
            if mono in self._a_columns:
                _image(self._a_columns[mono], [(j, c * v) for j, v in pairs], image)
        return image

    def act(self, a, vec):
        return self._vector(self._act_image(a, _nonzero(vec), {}))

    def phi_p(self, p, vec):
        columns = self._phi_columns.get(p)
        if columns is None:
            return self.zero_vec()
        return self._vector(_image(columns, [(j, v**p) for j, v in enumerate(vec) if v]))

    def phi_n(self, n, vec):
        """phi_n: identity for n=1, phi_p^e for n = p^e, zero otherwise."""
        phi = phi_of(n)
        if phi is None:
            return self.zero_vec()
        if phi == UNIT:
            return self.reduce(vec)
        p, e = phi
        for _ in range(e):
            vec = self.phi_p(p, vec)
        return vec

    def random_vec(self, rng):
        bound = RANDOM_VEC_BOUND
        return self.reduce(tuple(rng.randint(-bound, bound) for _ in range(self.rank)))

    def _kills(self, columns, vectors):
        """True when the table kills every vector, each given by its nonzero pairs."""
        return all(self._vanishes(_image(columns, pairs)) for pairs in vectors)

    def validate(self):
        """Structural invariants of a U(A)-module presentation.

        A basis monomial without a table acts as the zero table, so the
        torsion well-definedness law and the product law have an instance
        for every basis monomial and every pair of them, whichever tables
        are stored.
        """
        report = CheckReport(f"UModule structure (rank {self.rank} over {self.spec.ring})")
        tables = self._a_columns
        zero_columns = [[] for _ in range(self.rank)]
        basis = {m: from_terms(self.spec, {m: 1}) for m in basis_up_to(self.spec)}
        phi_tables = sorted(self._phi_columns.items())
        # Well-definedness: each action must kill what the source coordinate's
        # annihilator kills.  For phi_p the coordinate enters through its p-th
        # power, so sources with annihilator prime to p must map to zero.
        for mono in sorted(basis):
            columns = tables.get(mono, zero_columns)
            for j, d in enumerate(self.moduli):
                if d:
                    report.check(
                        "a_action defined on torsion coordinates",
                        self._kills(columns, [[(j, d)]]),
                        True,
                        context=f"monomial {mono}, coordinate {j}",
                    )
        for p, columns in phi_tables:
            for j, d in enumerate(self.moduli):
                if d and d % p != 0:
                    report.check(
                        f"phi_p vanishes off p-torsion sources (p={p})",
                        self._kills(columns, [[(j, 1)]]),
                        True,
                        context=f"coordinate {j} (annihilator {d})",
                    )
        # A composite applies the outer table to the unreduced columns of the
        # inner one and is reduced once, as the matrix product would be.
        for p, columns in phi_tables:
            scaled = [[(j, p)] for j in range(self.rank)]
            report.check(f"p*phi_p = 0 (p={p})", self._kills(columns, scaled), True)
            for mono, inner in sorted(tables.items()):
                report.check(
                    f"phi_p annihilates A-multiples (p={p})",
                    self._kills(columns, inner),
                    True,
                    context=f"monomial {mono}",
                )
            for q, inner in phi_tables:
                if q != p:
                    report.check(f"phi_p phi_q = 0 (p={p}, q={q})", self._kills(columns, inner), True)
        # a * (b * v) = (a b) * v on every pair of basis monomials.  Column j
        # of the difference is nonzero only where the inner table, or the
        # table of a term of a b, fills column j, so only those are built,
        # and only the nonempty ones are tested.
        filled = {mono: [j for j, column in enumerate(columns) if column] for mono, columns in tables.items()}
        for mono_a, a in basis.items():
            for mono_b, b in basis.items():
                columns = tables.get(mono_a, zero_columns)
                images = {j: _image(columns, tables[mono_b][j]) for j in filled.get(mono_b, ())}
                for mono, c in (a * b).terms.items():
                    for j in filled.get(mono, ()):
                        _image(tables[mono], [(j, -c)], images.setdefault(j, {}))
                report.check(
                    "a_action respects products",
                    all(map(self._vanishes, filter(None, images.values()))),
                    True,
                    context=f"{mono_a} * {mono_b}",
                )
        return report


class SemidirectElement:
    """An element (a, x) of the square-zero extension A (+) M; see ``semidirect_gamma``."""

    __slots__ = ("module", "a", "x", "_gammas")

    def __init__(self, module, a, x):
        self.module = module
        self.a = a
        self.x = module.reduce(x)

    @classmethod
    def _raw(cls, module, a, x):
        """An element whose ``x`` is already reduced: every operation reduces once."""
        el = object.__new__(cls)
        el.module = module
        el.a = a
        el.x = x
        return el

    def _require_same(self, other):
        if self.module is not other.module:
            raise ValueError("elements live over different modules")

    def __add__(self, other):
        self._require_same(other)
        return self._raw(self.module, self.a + other.a, self.module.add_vec(self.x, other.x))

    def scale(self, c):
        return self._raw(self.module, self.a.scale(c), self.module.scale_vec(c, self.x))

    def __mul__(self, other):
        """(a, x)(b, y) = (ab, ay + bx), the cross term summed unreduced and reduced once."""
        self._require_same(other)
        mod = self.module
        cross = mod._act_image(self.a, _nonzero(other.x), {})
        mod._act_image(other.a, _nonzero(self.x), cross)
        return self._raw(mod, self.a * other.a, mod._vector(cross))

    def __eq__(self, other):
        return (
            isinstance(other, SemidirectElement)
            and self.module is other.module
            and self.a == other.a
            and self.x == other.x
        )

    def __str__(self):
        return f"({self.a} | {self.x})"

    def __repr__(self):
        return f"<SemidirectElement {self}>"


def semidirect_gamma(n, u):
    """gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i+j=n} gamma_i(a) phi_j(x)).

    ``u`` keeps its longest sequence, and a longer request extends it: the
    entries past the kept ones are built from gamma_1(a) ... gamma_n(a) and
    each phi_j(x) computed once (phi_{p^e} as phi_p of phi_{p^(e-1)}, zero
    unless j is 1 or a prime power): v_k = phi_k(x) + sum_{j<k}
    gamma_{k-j}(a) phi_j(x), reduced once.  Only nonzero phi_j(x) are kept,
    as their nonzero pairs (phi_p is additive, so phi_{p^e}(x) = 0 once
    phi_{p^(e-1)}(x) = 0), and a term whose gamma_{k-j}(a) is zero is
    skipped.  The kept list is never changed in place: an extension is a
    new list whose prefix holds the earlier entries.  gamma_1 is kept as a
    copy of ``u``, never ``u`` itself, so that ``u`` holds no reference to
    itself and is freed without the cyclic garbage collector.
    """
    if n < 1:
        raise ValueError("divided power index must be >= 1")
    if n == 1:
        return u
    kept = getattr(u, "_gammas", ())
    if len(kept) < n:
        mod = u.module
        gammas = divided_powers(n, u.a)
        phis = {1: u.x} if any(u.x) else {}
        for j in range(2, n + 1):
            if (phi := phi_of(j)) is not None and j // phi[0] in phis:
                if any(image := mod.phi_p(phi[0], phis[j // phi[0]])):
                    phis[j] = image
        pairs = {j: _nonzero(x) for j, x in phis.items()}
        kept = list(kept) or [SemidirectElement._raw(mod, u.a, u.x)]
        for k in range(len(kept) + 1, n + 1):
            image = dict(pairs.get(k, ()))
            for j, nonzero in pairs.items():
                if j < k and gammas[k - j - 1].terms:
                    mod._act_image(gammas[k - j - 1], nonzero, image)
            kept.append(SemidirectElement._raw(mod, gammas[k - 1], mod._vector(image)))
        u._gammas = kept
    return kept[n - 1]


AXIOM_MAX_INDEX = 6  # the sampled axioms take gamma indices in 1..6
ABELIAN_MAX_INDEX = 12  # the abelian structure axioms take gamma indices in 1..12


def verify_beck_axioms(module, samples=200, seed=0):
    """Run the full DP axiom suite on the semidirect extension A (+) M."""

    def sample(rng):
        a = random_element(module.spec, rng, max_terms=2)
        return SemidirectElement(module, a, module.random_vec(rng))

    return dp_axiom_report(
        module.spec.ring,
        sample,
        semidirect_gamma,
        samples,
        seed,
        AXIOM_MAX_INDEX,
        title=f"Beck module axioms over {module.spec.ring} (rank {module.rank})",
    )


def verify_abelian_structure(module, samples=200, seed=0):
    """Check the structure laws of an abelian DP algebra given by phi-tables.

    The module is read as a trivial-product DP algebra with gamma_n = phi_n,
    which is the square-zero extension 0 (+) M: the generic axiom suite runs
    on the elements (0, x), with ``semidirect_gamma`` as the divided power.
    """

    def sample(rng):
        return SemidirectElement(module, zero(module.spec), module.random_vec(rng))

    return dp_axiom_report(
        module.spec.ring,
        sample,
        semidirect_gamma,
        samples,
        seed,
        ABELIAN_MAX_INDEX,
        title=f"abelian DP structure (rank {module.rank} over {module.spec.ring})",
    )


def zero_module(spec):
    return UModule(spec, ())


def trivial_module(spec, annihilators):
    """All actions zero; any annihilator pattern is a valid U(A)-module."""
    return UModule(spec, annihilators)


def u0_module(spec, degree_cap):
    """U(0) itself, truncated above ``degree_cap``, as a module with zero A-action."""
    basis = u0_basis_up_to(degree_cap, spec.ring)
    index = {phi: i for i, (phi, _) in enumerate(basis)}
    anns = tuple(ann for _, ann in basis)
    phi_columns = {}
    for p in sorted({phi[0] for phi, _ in basis if phi != UNIT}):
        targets = [index.get(phi_mul((p, 1), phi)) for phi, _ in basis]
        phi_columns[p] = [[] if i is None else [(i, 1)] for i in targets]
    return UModule.from_columns(spec, anns, phi_columns=phi_columns)


def mixed_torsion_module(spec):
    """Z (+) Z/2 (+) Z/3 with x_1 shifting the free line into the 2-torsion."""
    if spec.generator_count < 1:
        raise ValueError("need a generator")
    x_mono = ((0, 1),)
    shift = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    a_action = {x_mono: shift}
    phi_action = {2: [[0, 0, 0], [1, 0, 0], [0, 0, 0]]}
    return UModule(spec, (0, 2, 3), a_action=a_action, phi_action=phi_action)


def corrupted_phi_module(spec):
    """Negative control: phi_2 hits a free summand, so 2*phi_2 != 0."""
    bad_phi = {2: [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}
    return UModule(spec, (0, 2, 3), phi_action=bad_phi)

