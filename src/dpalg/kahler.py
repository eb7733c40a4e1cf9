"""DP derivations and Kahler differentials of truncated free DP algebras.

For a free algebra A on generators x_i the module of differentials is the
free left U(A)-module on the dx_i:

    Omega = U(A) (x) V,   basis (b (x) phi-monomial) (x) dx_i,

where b runs over the unit and the monomials of A, subject to the weight cap
w(b) + deg(phi) * w_i <= N and to the mod-p reduction of phi_p^e
coefficients.  The universal derivation acts on a single divided power by

    d(gamma_e(x)) = sum_{j=1..e, phi_j != 0} gamma_{e-j}(x) phi_j (x) dx

(gamma_0 meaning the unit of A_+) and extends by the Leibniz rule across
factors and by linearity.

Elements of Omega are envelope.UElement values on the labels dx_i =
((i, 1),).  The ambient module U(A) (x) A of the relation presentation
Omega = (U(A) (x) A)/S is the same type with every monomial as a label, so one
basis builder (free_basis) and one coordinates function (omega_coordinates)
serve both.

S is closed under U(A) on term dicts.  Each S-generator is written as its
term dict, with its weight known by construction (w(a) + w(b), or n * w(a)
for the gamma_n family), and reduced once; no UElement is built.  The
envelope rules then carry its weight w to every image: the twist by phi_q
weighs q * w and the shift by a monomial m weighs w + w(m), and an image
past N is never built.  presentation_relations yields (weight, terms)
pairs, so each relation's terms go straight into its weight's rows.

The same two rules write Omega's U(A)-module tables (omega_as_umodule): each
in-range (monomial or phi_p, basis entry) pair is one shift or twist of the
entry's one-term dict, and no UElement is built.
"""

from .coeff import primes_up_to
from .dpcore import (
    basis_up_to,
    coordinates,
    divided_power,
    divided_powers,
    from_terms,
    position_index,
    random_element,
)
from .envelope import (
    UNIT,
    UElement,
    _reduce_coefficient,
    format_term,
    phi_degree,
    phi_of,
    phi_sort_key,
    shift,
    twist,
    u0_basis_up_to,
)
from .beck import UModule
from .linalg import spans_full_lattice
from .record import FrozenRecord, Record
from .report import CheckReport


class BasisEntry(FrozenRecord):
    """(amono or unit) (x) phi (x) [label] with its Z-annihilator (0 or p).

    An immutable, hashable slotted value, equal to an entry of equal fields.
    ``amono`` is None for the unit of A_+.
    """

    __slots__ = _fields = ("label", "phi", "amono", "weight", "annihilator")

    def __init__(self, label, phi, amono, weight, annihilator):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "amono", amono)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "annihilator", annihilator)

    @property
    def key(self):
        return (self.label, self.phi, self.amono)

    def __str__(self):
        return format_term(self.key)


def free_basis(spec, labels, phi_major):
    """The closed-form basis of the free U(A)-module on ``labels``, per weight.

    Returns dict w -> [BasisEntry].  The phi-parts and their annihilators
    are U(0)'s basis, ``u0_basis_up_to``: unit phi-part entries are free;
    phi_p^e entries carry annihilator p and are dropped when p is invertible
    in the coefficient ring.  A slice is ordered by (phi, label, amono) when
    ``phi_major`` and by (label, phi, amono) otherwise, with labels in the
    given order and the unit of A_+ before the monomials in basis order.
    """
    cap = spec.truncation
    # (amono, weight) with the unit of A_+ first, then the monomials by weight.
    amonos = [(None, 0)] + [(m, spec.monomial_weight(m)) for m in basis_up_to(spec)]
    u0_basis = u0_basis_up_to(cap, spec.ring)
    keyed = {w: [] for w in range(1, cap + 1)}
    for li, label in enumerate(labels):
        for phi, ann in u0_basis:
            rank = (phi_sort_key(phi), li) if phi_major else (li, phi_sort_key(phi))
            base = phi_degree(phi) * spec.monomial_weight(label)
            for position, (amono, extra) in enumerate(amonos):
                if base + extra > cap:
                    break
                entry = BasisEntry(label, phi, amono, base + extra, ann)
                keyed[base + extra].append(((*rank, position), entry))
    return {w: [e for _, e in sorted(found, key=lambda t: t[0])] for w, found in keyed.items()}


def generator_labels(spec):
    """The labels dx_i of Omega = U(A) (x) V."""
    return [((i, 1),) for i in range(spec.generator_count)]


def omega_free_basis(spec):
    """The closed-form basis of Omega, per weight: dict w -> [BasisEntry]."""
    return free_basis(spec, generator_labels(spec), phi_major=True)


def omega_basis_all(spec):
    slices = omega_free_basis(spec)
    out = []
    for w in range(1, spec.truncation + 1):
        out.extend(slices[w])
    return out


def basis_index(entries):
    """Basis key -> position in ``entries``, built once per basis slice."""
    return position_index([e.key for e in entries])


def omega_coordinates(element, index):
    """Coordinates over a basis given by its ``basis_index``; raises if the
    element is not covered.  A named entry point of its own, so the
    benchmark trace (perfbench/spans.py) counts module coordinates apart
    from algebra coordinates."""
    return coordinates(element, index)


def universal_derivation(element):
    """The universal DP derivation d: A -> Omega, extended linearly.

    On a monomial, d(gamma_e(x) m') = sum_j gamma_{e-j}(x) m' phi_j (x) dx
    for each factor gamma_e(x), the cofactor m' sharing no generator with it.
    """
    terms = {}
    for mono, c in element.terms.items():
        for t, (gen, e) in enumerate(mono):
            for j in range(1, e + 1):
                phi = phi_of(j)
                if phi is None:
                    continue
                amono = mono[:t] + (((gen, e - j),) if j < e else ()) + mono[t + 1 :]
                key = (((gen, 1),), phi, amono or None)
                terms[key] = terms.get(key, 0) + c
    return UElement(element.spec, terms)


def phi_inversion(n, element):
    """phi_n(da) = d gamma_n(a) + sum_{i+j=n} (-1)^i gamma_i(a) d gamma_j(a)."""
    if n < 2:
        raise ValueError("inversion needs n >= 2")
    gammas = divided_powers(n, element)
    out = universal_derivation(gammas[n - 1])
    for i in range(1, n):
        term = universal_derivation(gammas[n - i - 1]).act_algebra(gammas[i - 1])
        out = out + term.scale((-1) ** i)
    return out


# ---------------------------------------------------------------------------
# Omega as an explicit U(A)-module (action tables over the closed-form basis)


def omega_as_umodule(spec):
    """Omega as a UModule: its action tables over ``omega_basis_all``.

    The action is graded: a monomial of weight w takes a basis element of
    weight v to weight v + w, and phi_p takes it to weight p * v, so only the
    pairs with that weight at most N are acted on (the basis ascends in
    weight, so the first pair past N ends a scan).  Each pair is one call of
    an envelope rule on the entry's one-term dict: ``shift`` by the monomial,
    or ``twist`` by phi_p.  Both take a term to at most one term, so column j,
    the image of basis element j as its (row, value) pairs, has at most one
    pair; that is the stored form of ``UModule.from_columns``, and no dense
    row is built.  One dict of ``mono_mul`` results serves every monomial
    table, so each (monomial, A_+ part) product is formed once per call.  A
    table whose columns are all empty is left out.  Tables are keyed in basis
    order, then in prime order; ``a_action`` and ``phi_action`` are their
    dense views.

    >>> from dpalg import ZZ, free_spec
    >>> module = omega_as_umodule(free_spec(ZZ, 1, 3))
    >>> [str(e) for e in omega_basis_all(module.spec)], module.annihilators
    (['dx1', 'x1*dx1', 'ph2*dx1', 'g2(x1)*dx1', 'x1*ph2*dx1', 'ph3*dx1'], (0, 0, 2, 0, 2, 3))
    >>> x1 = ((0, 1),)  # x1 * (x1*dx1) = 2 g2(x1)*dx1 and phi_2(dx1) = ph2*dx1
    >>> module.a_action[x1][3], module.phi_action[2][2]
    ((0, 2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    """
    cap = spec.truncation
    entries = omega_basis_all(spec)
    index = basis_index(entries)
    anns = tuple(e.annihilator for e in entries)

    def table(act, top):
        """The columns of ``act``, None if all are empty, from its images of
        the basis entries of weight <= top."""
        columns = [()] * len(entries)
        for j, entry in enumerate(entries):
            if entry.weight > top:
                break
            _, image = act(entry.weight, {entry.key: 1})
            columns[j] = [(index[key], c) for key, c in image.items()]
        return columns if any(columns) else None

    products = {}  # (monomial, A_+ part) -> mono_mul, shared by all monomial tables
    a_columns = {}
    for mono in basis_up_to(spec):
        top = cap - spec.monomial_weight(mono)
        if columns := table(lambda w, terms: shift(spec, mono, w, terms, products), top):
            a_columns[mono] = columns
    phi_columns = {}
    for p in primes_up_to(cap):
        if columns := table(lambda w, terms: twist(spec, (p, 1), w, terms), cap // p):
            phi_columns[p] = columns
    return UModule.from_columns(spec, anns, a_columns, phi_columns)


def universal_derivation_table(spec):
    """d written in omega_as_umodule coordinates: monomial -> vector."""
    index = basis_index(omega_basis_all(spec))
    return {
        mono: tuple(omega_coordinates(universal_derivation(from_terms(spec, {mono: 1})), index))
        for mono in basis_up_to(spec)
    }


# ---------------------------------------------------------------------------
# DP derivations into a UModule


def apply_table(table, element, module):
    """Linear extension of a basis-monomial table A -> M, summed unreduced and
    reduced once."""
    image = {}
    for mono, c in element.terms.items():
        for i, v in enumerate(table[mono]):
            if v:
                image[i] = image.get(i, 0) + c * v
    return module._vector(image)


DERIVATION_MAX_INDEX = 6  # the sampled gamma law takes n in 2..6


def is_dp_derivation(table, module, samples=200, seed=0):
    """Check the two derivation laws plus the three consequence identities.

    ``table`` gives the values of s on basis monomials; s extends linearly.
    phi_p runs over the primes with a table in ``module`` (any other phi_p is
    zero by construction) and q over the primes up to N (gamma_q vanishes
    above N).
    """
    import random

    spec = module.spec
    phi_primes = sorted(module._phi_columns)
    gamma_primes = primes_up_to(spec.truncation)
    rng = random.Random(seed)
    report = CheckReport(f"DP derivation laws over {spec.ring} (rank {spec.generator_count})")

    def s(a):
        return apply_table(table, a, module)

    for _ in range(samples):
        a = random_element(spec, rng, max_terms=2)
        b = random_element(spec, rng, max_terms=2)
        n = rng.randint(2, DERIVATION_MAX_INDEX)

        def ctx():
            return f"a={a}, b={b}, n={n}"

        sa = s(a)
        sab = s(a * b)
        indices = {n, *phi_primes, *gamma_primes}
        gammas = divided_powers(max(indices), a)
        s_gamma = {k: s(gammas[k - 1]) for k in indices}

        rhs = module.add_vec(module.act(a, s(b)), module.act(b, sa))
        report.check("s(ab) = a s(b) + b s(a)", sab, rhs, ctx)

        rhs = module.phi_n(n, sa)
        for i in range(1, n):
            rhs = module.add_vec(rhs, module.act(gammas[i - 1], module.phi_n(n - i, sa)))
        report.check("s(gamma_n a) = phi_n(sa) + sum gamma_i(a) phi_j(sa)", s_gamma[n], rhs, ctx)

        for p in phi_primes:
            report.check(
                "phi_p(s(ab)) = 0",
                module.phi_p(p, sab),
                module.zero_vec(),
                lambda: f"p={p}, {ctx()}",
            )
            for q in gamma_primes:
                if q == p:
                    continue
                report.check(
                    "phi_p(s(gamma_q a)) = 0 for q != p",
                    module.phi_p(p, s_gamma[q]),
                    module.zero_vec(),
                    lambda: f"p={p}, q={q}, {ctx()}",
                )
            report.check(
                "phi_p(s(gamma_p a)) = phi_p^2(s a)",
                module.phi_p(p, s_gamma[p]),
                module.phi_p(p, module.phi_p(p, sa)),
                lambda: f"p={p}, {ctx()}",
            )
    return report


def factor_derivation_through_d(table, module):
    """The universal property: find the U(A)-map f with s = f o d.

    f is pinned by its values on the generators 1 (x) dx_i: the generator
    equations, d(x_i) read on the entries 1 (x) dx_j, must have full column
    rank.  Existence is verified by evaluating f o d on every basis monomial.
    Returns (generator values, report).
    """
    spec = module.spec
    entries = omega_basis_all(spec)
    index = basis_index(entries)
    labels = generator_labels(spec)
    gen_values = [module.reduce(table[label]) for label in labels]

    def f_entry(entry):
        vec = module.phi_n(phi_degree(entry.phi), module.reduce(table[entry.label]))
        if entry.amono is not None:
            vec = module.act(from_terms(spec, {entry.amono: 1}), vec)
        return vec

    entry_values = [f_entry(entry) for entry in entries]

    def f(omega):
        coords = omega_coordinates(omega, index)
        out = module.zero_vec()
        for c, value in zip(coords, entry_values):
            if c:
                out = module.add_vec(out, module.scale_vec(c, value))
        return out

    report = CheckReport(f"factorization through d over {spec.ring}")
    generator_columns = [index[(label, UNIT, None)] for label in labels]
    equations = []
    for label in labels:
        coords = omega_coordinates(universal_derivation(from_terms(spec, {label: 1})), index)
        equations.append([coords[k] for k in generator_columns])
    report.check(
        "generator equations have full column rank",
        spans_full_lattice(equations, len(labels)),
        True,
    )
    for mono in basis_up_to(spec):
        report.check(
            "s = f o d on basis monomials",
            f(universal_derivation(from_terms(spec, {mono: 1}))),
            module.reduce(table[mono]),
            context=f"monomial {mono}",
        )
    return gen_values, report


def phi_consequences_report(spec):
    """The three consequence identities, on every basis instance in range.

    For all basis monomials a, b and primes p, q:
      phi_p(d(ab)) = 0;  phi_p(d(gamma_q a)) = 0 for q != p;
      phi_p(d(gamma_p a)) = phi_p^2(da).
    """
    report = CheckReport(
        f"phi consequence identities at rank {spec.generator_count}, N={spec.truncation}, {spec.ring}"
    )
    primes = primes_up_to(spec.truncation)
    monomials = basis_up_to(spec)
    for mono_a in monomials:
        a = from_terms(spec, {mono_a: 1})
        wa = spec.monomial_weight(mono_a)
        da = universal_derivation(a)
        for mono_b in monomials:
            if mono_b < mono_a or wa + spec.monomial_weight(mono_b) > spec.truncation:
                continue
            b = from_terms(spec, {mono_b: 1})
            dab = universal_derivation(a * b)
            for p in primes:
                report.check(
                    "phi_p(d(ab)) = 0",
                    dab.act_phi(p).is_zero(),
                    True,
                    context=f"p={p}, a={mono_a}, b={mono_b}",
                )
        for q in primes:
            if q * wa > spec.truncation:
                continue
            dgq = universal_derivation(divided_power(q, a))
            for p in primes:
                if p == q:
                    report.check(
                        "phi_p(d(gamma_p a)) = phi_p^2(da)",
                        dgq.act_phi(p),
                        da.act_phi(p).act_phi(p),
                        context=f"p={p}, a={mono_a}",
                    )
                else:
                    report.check(
                        "phi_p(d(gamma_q a)) = 0 for q != p",
                        dgq.act_phi(p).is_zero(),
                        True,
                        context=f"p={p}, q={q}, a={mono_a}",
                    )
    return report


# ---------------------------------------------------------------------------
# The relation presentation Omega = (U(A) (x) A)/S


class PresentationSlice(Record):
    """One weight of the presentation: its ambient basis ``entries`` and its
    relation ``rows``, each a dict {column: value} over ``entries`` with
    ascending columns and no zero values.  A mutable slotted record."""

    __slots__ = _fields = ("weight", "entries", "rows")

    def __init__(self, weight, entries, rows):
        self.weight = weight
        self.entries = entries
        self.rows = rows


def presentation_relations(spec, gamma_relation_sign=-1):
    """The S-generators, instantiated on basis monomials and closed under U(A).

    Yields (weight, terms) pairs: the canonical term dicts of nonzero
    homogeneous elements of U(A) (x) A, each with its weight.  The second
    family is 1 (x) gamma_n(a) - phi_n (x) a + sign * sum gamma_i(a) phi_j (x) a;
    the derivation law forces sign = -1, which is the default.  A generator
    is written as its term dict, weighing w(a) + w(b) or n * w(a) by
    construction, and its coefficients are reduced once.  Each generator of
    weight w is closed as soon as it is built: its nonzero twists
    by the phi_q of ``u0_basis_up_to`` (weight q * w <= N, the unit first) are
    each followed by their nonzero shifts by the basis monomials m with
    weight + w(m) <= N.
    """
    cap = spec.truncation
    weighted = [(m, spec.monomial_weight(m)) for m in basis_up_to(spec)]

    def generators():
        """(weight, unreduced term dict) of each S-generator."""
        for ai, (a, wa) in enumerate(weighted):
            a_el = from_terms(spec, {a: 1})
            for b, wb in weighted[ai:]:
                if wa + wb <= cap:
                    # a (x) [b] + b (x) [a] - 1 (x) [ab], one term 2 a (x) [a] when a = b
                    terms = {(b, UNIT, a): 1}
                    terms[(a, UNIT, b)] = terms.get((a, UNIT, b), 0) + 1
                    b_el = from_terms(spec, {b: 1})
                    for m, c in (a_el * b_el).terms.items():
                        terms[(m, UNIT, None)] = -c
                    yield wa + wb, terms
            for n in range(2, cap // wa + 1):
                terms = {(m, UNIT, None): c for m, c in divided_power(n, a_el).terms.items()}
                if (phi := phi_of(n)) is not None:
                    terms[(a, phi, None)] = -1
                for i in range(1, n):
                    if (phi := phi_of(n - i)) is not None:
                        for m, c in divided_power(i, a_el).terms.items():
                            terms[(a, phi, m)] = gamma_relation_sign * c
                yield n * wa, terms

    # Twists and shifts both ascend in weight: the first image past N ends a loop.
    ring = spec.ring
    twists = [phi for phi, _ in u0_basis_up_to(cap, ring)]
    products = {}
    for w, raw in generators():
        terms = {key: r for key, c in raw.items() if (r := _reduce_coefficient(ring, key, c))}
        if not terms:
            continue
        for phi in twists:
            twisted = twist(spec, phi, w, terms)
            if twisted is None:
                break
            if not twisted[1]:
                continue
            yield twisted
            for mono, _ in weighted:
                shifted = shift(spec, mono, *twisted, products)
                if shifted is None:
                    break
                if shifted[1]:
                    yield shifted


def presentation_of_omega(spec, gamma_relation_sign=-1):
    """Per-weight generators and relation rows of (U(A) (x) A)/S.

    A weight's rows are its S-instances as sparse rows over the weight's
    basis: each relation's terms, as ``presentation_relations`` yields them,
    go straight into the weight's row set as (column, value) pairs through
    the weight's ``basis_index`` (a term outside the slice raises KeyError),
    with no zero values, as the term dicts keep nonzero terms only.  The rows
    are deduplicated in that form, sorted by their pairs, and stored as dicts
    {column: value}; each set is dropped as its slice is built.  The ambient
    mod-p torsion of phi-coefficients is carried by the entries' annihilators.
    """
    slices = free_basis(spec, basis_up_to(spec), phi_major=False)
    indexes = {w: basis_index(entries) for w, entries in slices.items()}
    rows = {w: set() for w in slices}
    for w, terms in presentation_relations(spec, gamma_relation_sign):
        index = indexes[w]
        rows[w].add(tuple(sorted([(index[key], c) for key, c in terms.items()])))
    return {
        w: PresentationSlice(w, slices[w], [dict(pairs) for pairs in sorted(rows.pop(w))])
        for w in sorted(slices)
    }


# ---------------------------------------------------------------------------
# Indecomposables


def indecomposables(spec):
    """Closed form of A/A^2 = U(0) (x) V, per weight: dict w -> [(gen, annihilator)].

    Each generator gives a free summand in its own weight w and, for every
    prime power q = p^e with qw <= N and p not invertible in the ring, a
    summand phi_q x_gen of weight qw annihilated by p.

    >>> from dpalg import ZZ, free_spec
    >>> indecomposables(free_spec(ZZ, 1, 4))
    {1: [(0, 0)], 2: [(0, 2)], 3: [(0, 3)], 4: [(0, 2)]}
    """
    out = {w: [] for w in range(1, spec.truncation + 1)}
    for gen, w in enumerate(spec.weights):
        for phi, ann in u0_basis_up_to(spec.truncation // w, spec.ring):
            out[phi_degree(phi) * w].append((gen, ann))
    return out
