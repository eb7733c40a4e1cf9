"""Independent brute-force constructions used as ground truth.

Nothing here consults the closed forms: the coproduct is the free algebra on
the doubled generator set, the fold map is evaluated monomial by monomial,
its kernel I is computed by exact integer linear algebra, I^2 is spanned by
pairwise products of kernel basis vectors, and quotients are compared purely
through Smith normal form invariant factors.  The fold map is the only DP map
evaluated generically (``dp_map_apply``); the coproduct inclusions send
generators to distinct generators, so they just renumber each monomial, and
``cokernel_factors`` runs Smith only on the non-unit-pivot core of the
relation HNF.  The comparison maps into the closed-form module go through
explicit representatives, so the divided-power structure is exercised on
actual elements rather than formulas.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .coeff import ZZ, primes_up_to
from .dpcore import (
    DPElement,
    basis_of_weight,
    basis_up_to,
    coordinates,
    divided_power,
    divided_powers,
    dp_map_apply,
    from_terms,
    gamma_gen,
    position_index,
    zero as algebra_zero,
)
from .envelope import phi_of
from .kahler import (
    basis_index,
    indecomposables,
    omega_coordinates,
    omega_free_basis,
    universal_derivation,
)
from .linalg import (
    cokernel_factors,
    hermite_form,
    in_lattice,
    invariant_factor_chain,
    kernel_basis_mod,
    solve_in_lattice,
    spans_full_lattice,
)
from .report import CheckReport


# ---------------------------------------------------------------------------
# Coproduct


@dataclass
class Coproduct:
    """A ∐ B realized as the free algebra on the concatenated generators.

    The inclusions send generator i of A to generator i, and generator i of B
    to generator ``left.generator_count + i``.  On distinct generators a DP map
    of that kind takes each monomial to the renumbered monomial, so they are
    computed by renumbering rather than by evaluating the map.
    """

    spec: object
    left: object
    right: object

    def include_left(self, a):
        return self._include(a, self.left, 0)

    def include_right(self, b):
        return self._include(b, self.right, self.left.generator_count)

    def _include(self, element, summand, offset):
        if element.spec != summand:
            raise ValueError("element does not lie in that coproduct summand")
        terms = {tuple((gen + offset, e) for gen, e in mono): c for mono, c in element.terms.items()}
        return DPElement(self.spec, terms)

    def component(self, mono):
        """Which coproduct summand a basis monomial lies in."""
        cut = self.left.generator_count
        touches_left = any(gen < cut for gen, _ in mono)
        touches_right = any(gen >= cut for gen, _ in mono)
        if touches_left and touches_right:
            return "mixed"
        return "left" if touches_left else "right"


def coproduct(spec_a, spec_b):
    if spec_a.ring != spec_b.ring:
        raise ValueError("coproduct needs a common coefficient ring")
    combined = type(spec_a)(
        spec_a.ring,
        spec_a.weights + spec_b.weights,
        min(spec_a.truncation, spec_b.truncation),
    )
    return Coproduct(combined, spec_a, spec_b)


# ---------------------------------------------------------------------------
# Fold map, kernel I, and I / I^2


def pair_products(groups, w):
    """u * v over unordered pairs from ``groups`` (weight -> elements) whose
    weights sum to w, lighter factor first."""
    for w1 in range(1, w // 2 + 1):
        left, right = groups[w1], groups[w - w1]
        pairs = combinations_with_replacement(left, 2) if 2 * w1 == w else product(left, right)
        for u, v in pairs:
            yield u * v


@dataclass
class FoldSlice:
    weight: int
    domain_basis: list
    matrix: list
    kernel: list
    index: dict


def fold_kernel(spec):
    """The codiagonal A ∐ A -> A and its gradewise integer kernel."""
    co = coproduct(spec, spec)
    k = spec.generator_count
    images = [gamma_gen(spec, i % k, 1) for i in range(2 * k)]
    slices = {}
    for w in range(1, spec.truncation + 1):
        domain = basis_of_weight(co.spec, w)
        target = basis_of_weight(spec, w)
        target_index = position_index(target)
        columns = [
            coordinates(dp_map_apply(images, from_terms(co.spec, {m: 1})), target_index)
            for m in domain
        ]
        matrix = [[columns[j][i] for j in range(len(domain))] for i in range(len(target))]
        kernel = kernel_basis_mod(matrix, len(domain), spec.ring.modulus)
        slices[w] = FoldSlice(w, domain, matrix, kernel, position_index(domain))
    return co, slices


@dataclass
class QuotientSlice:
    weight: int
    domain_basis: list
    kernel: list
    relation_rows: list
    relation_hnf: list
    factors: tuple
    index: dict


class OmegaOracle:
    """I/I^2 of the fold kernel, gradewise, with induced phi_p tables."""

    def __init__(self, spec):
        self.spec = spec
        self.coproduct, fold_slices = fold_kernel(spec)
        self.slices = {}
        # Kernel rows as coproduct elements, converted once per row; only
        # weights below N enter a product of two kernel elements.
        elements = {}
        for w in range(1, spec.truncation + 1):
            fold = fold_slices[w]
            rows = [self._kernel_coords(uv, fold) for uv in pair_products(elements, w)]
            if spec.ring.modulus:
                # m Z^B sits inside the lifted kernel; quotient by it too.
                for j in range(len(fold.domain_basis)):
                    ambient = [0] * len(fold.domain_basis)
                    ambient[j] = spec.ring.modulus
                    rows.append(solve_in_lattice(fold.kernel, ambient))
            # One reduction per slice: the factors, class tests and the
            # surjectivity check all start from this HNF.
            relation_hnf = hermite_form(rows, len(fold.kernel))
            factors = cokernel_factors(len(fold.kernel), relation_hnf, ZZ)
            self.slices[w] = QuotientSlice(
                w, fold.domain_basis, fold.kernel, rows, relation_hnf, factors, fold.index
            )
            if w < spec.truncation:
                elements[w] = [self.kernel_element(w, row) for row in fold.kernel]
        self.phi_tables = self._induced_phi(elements)

    def _kernel_coords(self, element, fold):
        vec = coordinates(element, fold.index)
        coords = solve_in_lattice(fold.kernel, vec)
        if coords is None:
            raise ValueError("element does not lie in the fold kernel")
        return coords

    def _induced_phi(self, elements):
        tables = {}
        for w in self.slices:
            for p in primes_up_to(self.spec.truncation):
                if p * w > self.spec.truncation:
                    continue
                target = self.slices[p * w]
                tables[(w, p)] = [
                    self._kernel_coords(divided_power(p, el), target) for el in elements[w]
                ]
        return tables

    def phi_coords(self, p, w, coords):
        """Kernel coordinates at weight p*w of gamma_p of the class with kernel
        coordinates ``coords`` at weight w: sum c_k^p phi_tables[(w, p)][k], as
        gamma_p is p-semilinear on I modulo I^2 (its cross terms lie in I^2)."""
        out = [0] * len(self.slices[p * w].kernel)
        for c, image in zip(coords, self.phi_tables[(w, p)]):
            if c:
                out = [o + c**p * x for o, x in zip(out, image)]
        return out

    def kernel_element(self, w, row):
        """The coproduct-algebra element with the given ambient coordinates."""
        terms = {mono: c for mono, c in zip(self.slices[w].domain_basis, row) if c}
        return from_terms(self.coproduct.spec, terms)

    def to_kernel_coords(self, element, w):
        return self._kernel_coords(element, self.slices[w])

    def class_is_zero(self, element, w):
        if element.is_zero():
            return True
        coords = self.to_kernel_coords(element, w)
        return in_lattice(self.slices[w].relation_hnf, coords)

    def derivation_rep(self, a):
        return self.coproduct.include_right(a) - self.coproduct.include_left(a)

    def phi_rep(self, phi, element):
        """gamma_p iterated e times: a representative of phi_{p^e} [element]."""
        if phi == ():
            return element
        p, e = phi
        for _ in range(e):
            element = divided_power(p, element)
        return element


# ---------------------------------------------------------------------------
# The main-theorem and indecomposables verifiers


def _closed_form_rep(oracle, entry, phi_dx):
    """Representative in A ∐ A of the closed-form basis element.

    ``phi_dx`` holds the representative of phi (x) dx_i per (label, phi), so
    it is built once and shared by all of its A_+-multiples.
    """
    key = (entry.label, entry.phi)
    if key not in phi_dx:
        dx = oracle.derivation_rep(from_terms(oracle.spec, {entry.label: 1}))
        phi_dx[key] = oracle.phi_rep(entry.phi, dx)
    rep = phi_dx[key]
    if entry.amono is not None:
        shift = oracle.coproduct.include_left(from_terms(oracle.spec, {entry.amono: 1}))
        rep = shift * rep
    return rep


def verify_main_theorem(spec):
    """Compare I/I^2 with the closed form U(A) (x) V, gradewise and exactly."""
    oracle = OmegaOracle(spec)
    closed = omega_free_basis(spec)
    ring = spec.ring
    report = CheckReport(f"main theorem at rank {spec.generator_count}, N={spec.truncation}, {ring}")

    phi_dx = {}
    phi_rows = {}
    for w in range(1, spec.truncation + 1):
        slice_w = oracle.slices[w]
        expected = invariant_factor_chain([e.annihilator for e in closed[w]], ring)
        report.check(f"invariant factors (w={w})", slice_w.factors, expected)

        rows = []
        for entry in closed[w]:
            coords = oracle.to_kernel_coords(_closed_form_rep(oracle, entry, phi_dx), w)
            rows.append(coords)
            if entry.annihilator:
                scaled = [entry.annihilator * c for c in coords]
                report.check(
                    f"comparison map well-defined (w={w})",
                    in_lattice(slice_w.relation_hnf, scaled),
                    True,
                    context=str(entry),
                )
        phi_rows[w] = rows

        surjective = spans_full_lattice([*rows, *slice_w.relation_hnf], len(slice_w.kernel))
        report.check(f"comparison map surjective (w={w})", surjective, True)

    # d(m) = in_2(m) - in_1(m) and in_1(m) once per basis monomial, extended
    # linearly to the products and divided powers the laws below take.
    monomials = basis_up_to(spec)
    basis = {m: from_terms(spec, {m: 1}) for m in monomials}
    d = {m: oracle.derivation_rep(a) for m, a in basis.items()}
    in_1 = {m: oracle.coproduct.include_left(a) for m, a in basis.items()}
    coproduct_zero = algebra_zero(oracle.coproduct.spec)

    def linear(images, element):
        total = coproduct_zero
        for m, c in element.terms.items():
            total = total + images[m].scale(c)
        return total

    # d-compatibility: the closed-form universal derivation matches
    # a -> [in_2(a) - in_1(a)] through the comparison map.
    for w in range(1, spec.truncation + 1):
        index = basis_index(closed[w])
        slice_w = oracle.slices[w]
        for mono in basis_of_weight(spec, w):
            direct = oracle.to_kernel_coords(d[mono], w)
            through = [0] * len(slice_w.kernel)
            d_coords = omega_coordinates(universal_derivation(basis[mono]), index)
            for c, row in zip(d_coords, phi_rows[w]):
                if c:
                    through = [t + c * r for t, r in zip(through, row)]
            difference = [x - y for x, y in zip(direct, through)]
            report.check(
                f"d matches in_2 - in_1 (w={w})",
                in_lattice(slice_w.relation_hnf, difference),
                True,
                context=f"monomial {mono}",
            )

    # phi-compatibility, through the induced tables, where the expected image is zero.
    for w in range(1, spec.truncation + 1):
        for entry, coords in zip(closed[w], phi_rows[w]):
            for p in primes_up_to(spec.truncation):
                if p * w > spec.truncation:
                    continue
                if entry.amono is None and (entry.phi == () or entry.phi[0] == p):
                    continue  # phi_p of these is another basis rep by construction
                report.check(
                    f"phi_{p} kills A_+-multiples and foreign primes (w={w})",
                    in_lattice(oracle.slices[p * w].relation_hnf, oracle.phi_coords(p, w, coords)),
                    True,
                    context=str(entry),
                )

    # The derivation laws for a -> [in_2(a) - in_1(a)] itself.
    for mono_a in monomials:
        wa = spec.monomial_weight(mono_a)
        a = basis[mono_a]
        for mono_b in monomials:
            wb = spec.monomial_weight(mono_b)
            if wa + wb > spec.truncation or mono_b < mono_a:
                continue
            lhs = linear(d, a * basis[mono_b])
            rhs = in_1[mono_a] * d[mono_b] + in_1[mono_b] * d[mono_a]
            report.check(
                f"Leibniz law in I/I^2 (w={wa + wb})",
                oracle.class_is_zero(lhs - rhs, wa + wb),
                True,
                context=f"{mono_a} * {mono_b}",
            )
        # gamma_j(a), its image in the left summand and phi_j(da), once per monomial.
        gammas = divided_powers(spec.truncation // wa, a)
        left = [oracle.coproduct.include_left(g) for g in gammas]
        phi_da = {
            j: oracle.phi_rep(phi, d[mono_a])
            for j in range(1, len(gammas) + 1)
            if (phi := phi_of(j)) is not None
        }
        for n in range(2, len(gammas) + 1):
            lhs = linear(d, gammas[n - 1])
            total = phi_da.get(n, coproduct_zero)
            for i in range(1, n):
                if n - i in phi_da:
                    total = total + left[i - 1] * phi_da[n - i]
            report.check(
                f"derivation gamma-law in I/I^2 (w={n * wa})",
                oracle.class_is_zero(lhs - total, n * wa),
                True,
                context=f"gamma_{n} of {mono_a}",
            )
    return report


def verify_indecomposables(spec):
    """SNF of A/A^2 gradewise against the closed form U(0) (x) V."""
    closed = indecomposables(spec)
    ring = spec.ring
    report = CheckReport(
        f"indecomposables at rank {spec.generator_count}, N={spec.truncation}, {ring}"
    )
    elements = {}  # basis monomials as elements, by weight
    for w in range(1, spec.truncation + 1):
        basis = basis_of_weight(spec, w)
        index = position_index(basis)
        rows = [coordinates(mn, index) for mn in pair_products(elements, w)]
        elements[w] = [from_terms(spec, {m: 1}) for m in basis]
        got = cokernel_factors(len(basis), rows, ring)
        expected = invariant_factor_chain(closed.annihilators_of_weight(w), ring)
        report.check(f"A/A^2 slice (w={w})", got, expected)
    return report
