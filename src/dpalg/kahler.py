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
"""

import random
from dataclasses import dataclass

from .coeff import prime_power_decomposition, prime_powers_up_to, primes_up_to
from .dpcore import (
    basis_up_to,
    coordinates,
    divided_power,
    from_terms,
    position_index,
    random_element,
)
from .envelope import (
    UNIT,
    UElement,
    format_term,
    phi_coefficient_modulus,
    phi_degree,
    phi_of,
    phi_sort_key,
)
from .beck import UModule
from .linalg import smith_diagonal
from .report import CheckReport


@dataclass(frozen=True)
class BasisEntry:
    """(amono or unit) (x) phi (x) [label] with its Z-annihilator (0 or p)."""

    label: tuple
    phi: tuple
    amono: tuple | None
    weight: int
    annihilator: int

    @property
    def key(self):
        return (self.label, self.phi, self.amono)

    def element(self, spec):
        return UElement(spec, {self.key: 1})

    def __str__(self):
        return format_term(self.key)


def free_basis(spec, labels, phi_major):
    """The closed-form basis of the free U(A)-module on ``labels``, per weight.

    Returns dict w -> [BasisEntry].  Unit phi-part entries are free; phi_p^e
    entries carry annihilator p and are dropped when p is invertible in the
    coefficient ring.  A slice is ordered by (phi, label, amono) when
    ``phi_major`` and by (label, phi, amono) otherwise, with labels in the
    given order and the unit of A_+ before the monomials in basis order.
    """
    cap = spec.truncation
    # (amono, weight) with the unit of A_+ first, then the monomials by weight.
    amonos = [(None, 0)] + [(m, spec.monomial_weight(m)) for m in basis_up_to(spec)]
    phis = [UNIT] + [phi_of(q) for q in prime_powers_up_to(cap)]
    keyed = {w: [] for w in range(1, cap + 1)}
    for li, label in enumerate(labels):
        for phi in phis:
            if phi != UNIT and phi_coefficient_modulus(spec.ring, phi[0]) == 1:
                continue
            ann = 0 if phi == UNIT else phi[0]
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
    out = universal_derivation(divided_power(n, element))
    for i in range(1, n):
        term = universal_derivation(divided_power(n - i, element))
        term = term.act_algebra(divided_power(i, element))
        out = out + term.scale((-1) ** i)
    return out


# ---------------------------------------------------------------------------
# Omega as an explicit U(A)-module (action tables over the closed-form basis)


def omega_as_umodule(spec):
    entries = omega_basis_all(spec)
    index = basis_index(entries)
    anns = tuple(e.annihilator for e in entries)
    elements = [e.element(spec) for e in entries]
    a_action = {}
    for mono in basis_up_to(spec):
        a_el = from_terms(spec, {mono: 1})
        columns = [omega_coordinates(el.act_algebra(a_el), index) for el in elements]
        if any(any(col) for col in columns):
            a_action[mono] = [
                [columns[j][i] for j in range(len(entries))] for i in range(len(entries))
            ]
    phi_action = {}
    for p in primes_up_to(spec.truncation):
        if phi_coefficient_modulus(spec.ring, p) == 1:
            continue
        columns = [omega_coordinates(el.act_phi(p), index) for el in elements]
        if any(any(col) for col in columns):
            phi_action[p] = [
                [columns[j][i] for j in range(len(entries))] for i in range(len(entries))
            ]
    return UModule(spec, anns, a_action=a_action, phi_action=phi_action)


def universal_derivation_table(spec):
    """d written in omega_as_umodule coordinates: monomial -> vector."""
    index = basis_index(omega_basis_all(spec))
    return {
        mono: tuple(omega_coordinates(universal_derivation(from_terms(spec, {mono: 1})), index))
        for mono in basis_up_to(spec)
    }


# ---------------------------------------------------------------------------
# DP derivations into a UModule


def apply_table(spec, table, element, module):
    """Linear extension of a basis-monomial table A -> M."""
    out = module.zero_vec()
    for mono, c in element.terms.items():
        out = module.add_vec(out, module.scale_vec(c, module.reduce(table[mono])))
    return out


def is_dp_derivation(table, module, samples=200, seed=0, max_index=6, primes=(2, 3, 5, 7)):
    """Check the two derivation laws plus the three consequence identities.

    ``table`` gives the values of s on basis monomials; s extends linearly.
    """
    spec = module.spec
    rng = random.Random(seed)
    report = CheckReport(f"DP derivation laws over {spec.ring} (rank {spec.generator_count})")

    def s(a):
        return apply_table(spec, table, a, module)

    for _ in range(samples):
        a = random_element(spec, rng, max_terms=2)
        b = random_element(spec, rng, max_terms=2)
        n = rng.randint(2, max_index)
        ctx = f"a={a}, b={b}, n={n}"

        lhs = s(a * b)
        rhs = module.add_vec(module.act(a, s(b)), module.act(b, s(a)))
        report.check("s(ab) = a s(b) + b s(a)", lhs, rhs, ctx)

        lhs = s(divided_power(n, a))
        rhs = module.phi_n(n, s(a))
        for i in range(1, n):
            rhs = module.add_vec(rhs, module.act(divided_power(i, a), module.phi_n(n - i, s(a))))
        report.check("s(gamma_n a) = phi_n(sa) + sum gamma_i(a) phi_j(sa)", lhs, rhs, ctx)

        for p in primes:
            report.check(
                "phi_p(s(ab)) = 0",
                module.phi_p(p, s(a * b)),
                module.zero_vec(),
                f"p={p}, {ctx}",
            )
            for q in primes:
                if q == p:
                    continue
                report.check(
                    "phi_p(s(gamma_q a)) = 0 for q != p",
                    module.phi_p(p, s(divided_power(q, a))),
                    module.zero_vec(),
                    f"p={p}, q={q}, {ctx}",
                )
            report.check(
                "phi_p(s(gamma_p a)) = phi_p^2(s a)",
                module.phi_p(p, s(divided_power(p, a))),
                module.phi_p(p, module.phi_p(p, s(a))),
                f"p={p}, {ctx}",
            )
    return report


def factor_derivation_through_d(table, module):
    """The universal property: find the U(A)-map f with s = f o d.

    f is pinned by its values on the generators 1 (x) dx_i (the system of
    generator equations is the identity matrix, hence full column rank), and
    existence is verified by evaluating f o d on every basis monomial.
    Returns (generator values, report).
    """
    spec = module.spec
    entries = omega_basis_all(spec)
    index = basis_index(entries)
    gen_values = [module.reduce(table[label]) for label in generator_labels(spec)]

    def f_entry(entry):
        vec = module.reduce(table[entry.label])
        if entry.phi != UNIT:
            p, e = entry.phi
            for _ in range(e):
                vec = module.phi_p(p, vec)
        if entry.amono is not None:
            vec = module.act_monomial(entry.amono, vec)
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
    n = spec.generator_count
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    report.check(
        "generator equations have full column rank",
        smith_diagonal(identity, n),
        [1] * n,
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


@dataclass
class PresentationSlice:
    weight: int
    entries: list
    rows: list


def _on_label(element, label, phi=UNIT):
    """element (x) phi (x) [label] for an element of A."""
    return UElement(element.spec, {(label, phi, m): c for m, c in element.terms.items()})


def _unit_on_monomials(element):
    """1 (x) element, spread over the monomials of ``element``."""
    return UElement(element.spec, {(m, UNIT, None): c for m, c in element.terms.items()})


def presentation_relations(spec, gamma_relation_sign=-1):
    """The S-generators, instantiated on basis monomials and closed under U(A).

    Returns a list of nonzero homogeneous elements of U(A) (x) A.  The second
    family is 1 (x) gamma_n(a) - phi_n (x) a + sign * sum gamma_i(a) phi_j (x) a;
    the derivation law forces sign = -1, which is the default.
    """
    cap = spec.truncation
    weighted = [(m, spec.monomial_weight(m)) for m in basis_up_to(spec)]
    base = []
    for ai, (a, wa) in enumerate(weighted):
        a_el = from_terms(spec, {a: 1})
        for b, wb in weighted[ai:]:
            if wa + wb > cap:
                continue
            b_el = from_terms(spec, {b: 1})
            rel = _on_label(a_el, b) + _on_label(b_el, a) - _unit_on_monomials(a_el * b_el)
            base.append(rel)
        for n in range(2, cap // wa + 1):
            rel = _unit_on_monomials(divided_power(n, a_el))
            decomposition = prime_power_decomposition(n)
            if decomposition is not None:
                rel = rel - UElement(spec, {(a, decomposition, None): 1})
            for i in range(1, n):
                phi = phi_of(n - i)
                if phi is None:
                    continue
                piece = _on_label(divided_power(i, a_el), a, phi)
                rel = rel + piece.scale(gamma_relation_sign)
            base.append(rel)

    closed = []
    prime_power_list = [prime_power_decomposition(q) for q in prime_powers_up_to(cap)]
    for rel in base:
        if rel.is_zero():
            continue
        variants = [rel]
        for p, e in prime_power_list:
            twisted = rel.act_phi(p, e)
            if not twisted.is_zero():
                variants.append(twisted)
        for variant in variants:
            closed.append(variant)
            w = variant.weight()
            for mono, wm in weighted:
                if w + wm > cap:
                    break
                shifted = variant.act_algebra(from_terms(spec, {mono: 1}))
                if not shifted.is_zero():
                    closed.append(shifted)
    return closed


def presentation_of_omega(spec, gamma_relation_sign=-1):
    """Per-weight generators and relation rows of (U(A) (x) A)/S.

    Relation rows are exactly the S-instances; the ambient mod-p torsion of
    phi-coefficients is carried by the entries' annihilators.
    """
    slices = free_basis(spec, basis_up_to(spec), phi_major=False)
    indexes = {w: basis_index(entries) for w, entries in slices.items()}
    rows = {w: set() for w in slices}
    for rel in presentation_relations(spec, gamma_relation_sign):
        w = rel.weight()
        rows[w].add(tuple(omega_coordinates(rel, indexes[w])))
    return {
        w: PresentationSlice(w, slices[w], sorted(rows[w]))
        for w in sorted(slices)
    }


# ---------------------------------------------------------------------------
# Indecomposables


@dataclass
class QModuleDescription:
    """Closed form of A/A^2 = U(0) (x) V: one summand per generator and
    prime power, annihilated as recorded (0 = free)."""

    spec: object
    summands: list  # (weight, gen, annihilator)

    def per_weight(self):
        out = {w: [] for w in range(1, self.spec.truncation + 1)}
        for weight, gen, ann in self.summands:
            out[weight].append((gen, ann))
        return out

    def annihilators_of_weight(self, w):
        return [ann for weight, _, ann in self.summands if weight == w]


def indecomposables(spec):
    summands = []
    for gen in range(spec.generator_count):
        w = spec.weights[gen]
        summands.append((w, gen, 0))
        for q in prime_powers_up_to(spec.truncation // w):
            p = prime_power_decomposition(q)[0]
            if phi_coefficient_modulus(spec.ring, p) > 1:
                summands.append((q * w, gen, p))
    summands.sort(key=lambda t: (t[0], t[1], t[2]))
    return QModuleDescription(spec, summands)
