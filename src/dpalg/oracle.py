"""Independent brute-force constructions used as ground truth.

Nothing here consults the closed forms: the coproduct is the free algebra on
the doubled generator set, the fold map is evaluated monomial by monomial,
its kernel I is computed by exact integer linear algebra, I^2 is spanned by
pairwise products of kernel basis vectors, and quotients are compared purely
through Smith normal form invariant factors.  All of these preserve the Z^k
multidegree (``fold_degree``), so I, I^2 and I/I^2 are built, reduced and
solved one block per monomial of A, and a weight's invariant factors merge
those of its blocks.  A product of kernel rows from blocks beta1 and beta2
is written straight into the coordinates of block beta1 + beta2, through a
table of that block pair's monomial products built on its first use.  A/A^2
splits into one-column blocks, one per monomial, each cyclic of order the
gcd of the modulus and the coefficients landing on it.  The fold map is the
only DP map evaluated generically (``dp_map_apply``); the coproduct
inclusions send generators to distinct generators, so they just renumber
each monomial, and ``cokernel_factors`` runs Smith only on the
non-unit-pivot core of the relation HNF.  The comparison maps into the
closed-form module go through explicit representatives, so the
divided-power structure is exercised on actual elements rather than
formulas.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import gcd

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
    mono_mul,
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
# Fold map, kernel I, and I / I^2, one block per monomial of A


def fold_degree(mono, k):
    """The fold image of a monomial of A ∐ A on 2k generators: generator k + i
    read as i, exponents summed.  It is the Z^k multidegree of the monomial,
    which the fold map, products and divided powers preserve, so it keys the
    blocks of I, I^2 and I/I^2; on a monomial of A it is the monomial itself.

    >>> fold_degree(((0, 2), (1, 1), (2, 3)), 2)
    ((0, 5), (1, 1))
    """
    degree = {}
    for gen, e in mono:
        degree[gen % k] = degree.get(gen % k, 0) + e
    return tuple(sorted(degree.items()))


def factor_pairs(groups, w):
    """Unordered pairs (u, v) from ``groups`` (weight -> items) whose weights
    sum to w, lighter factor first: the products u * v span the weight-w part
    of I^2 (kernel rows) and of A^2 (basis monomials)."""
    for w1 in range(1, w // 2 + 1):
        left, right = groups[w1], groups[w - w1]
        yield from combinations_with_replacement(left, 2) if 2 * w1 == w else product(left, right)


@dataclass
class Block:
    """The coproduct monomials folding onto one monomial of A, the fold map on
    them (one row: the block has one target monomial) and the HNF of its
    kernel; ``OmegaOracle`` adds the I^2 rows in kernel coordinates, their
    HNF ``relations`` and the invariant factors of this block of I/I^2."""

    weight: int
    domain: list
    index: dict
    matrix: list
    kernel: list
    rows: list = None
    relations: list = None
    factors: tuple = None


def fold_kernel(spec):
    """The codiagonal A ∐ A -> A and its integer kernel, block by block."""
    co = coproduct(spec, spec)
    k = spec.generator_count
    images = [gamma_gen(spec, i % k, 1) for i in range(2 * k)]
    blocks = {}
    for w in range(1, spec.truncation + 1):
        domains = {}
        for m in basis_of_weight(co.spec, w):
            domains.setdefault(fold_degree(m, k), []).append(m)
        for beta, domain in domains.items():
            row = [
                coordinates(dp_map_apply(images, from_terms(co.spec, {m: 1})), {beta: 0})[0]
                for m in domain
            ]
            kernel = kernel_basis_mod([row], len(domain), spec.ring.modulus)
            blocks[beta] = Block(w, domain, position_index(domain), [row], kernel)
    return co, blocks


def _kernel_coords(block, vec):
    """Coordinates of a vector of the block's domain over its kernel basis."""
    coords = solve_in_lattice(block.kernel, vec)
    if coords is None:
        raise ValueError("element does not lie in the fold kernel")
    return coords


class OmegaOracle:
    """I/I^2 of the fold kernel, block by block, with induced phi_p tables.

    Kernel coordinates of an element are a dict, block -> coordinates over
    that block's kernel basis, with one entry per block the element meets.
    """

    def __init__(self, spec):
        self.spec = spec
        self.coproduct, self.blocks = fold_kernel(spec)
        normalize, modulus = spec.ring.normalize, spec.ring.modulus
        # Each kernel row of weight below N (only those enter a product of
        # two kernel elements), tagged with its block, as its nonzero
        # (domain index, coefficient) pairs.  A row in m Z^B has none, and
        # only zero products, so it is left out.
        by_weight = {w: [] for w in range(1, spec.truncation)}
        for beta, block in self.blocks.items():
            if block.weight < spec.truncation:
                for row in block.kernel:
                    if pairs := [(a, c) for a, c in enumerate(map(normalize, row)) if c]:
                        by_weight[block.weight].append((beta, pairs))
        # u * v for kernel rows u, v in blocks beta1, beta2, written straight
        # into the coordinates of block beta1 + beta2 through the table of
        # that block pair, built on its first use.
        rows = {beta: [] for beta in self.blocks}
        tables = {}
        for w in range(2, spec.truncation + 1):
            for (beta1, u), (beta2, v) in factor_pairs(by_weight, w):
                if (beta1, beta2) not in tables:
                    tables[beta1, beta2] = self._product_table(beta1, beta2)
                beta, table = tables[beta1, beta2]
                vec = [0] * len(self.blocks[beta].domain)
                for a, c in u:
                    line = table[a]
                    for b, d in v:
                        i, binom = line[b]
                        vec[i] += c * d * binom
                if modulus:
                    vec = [x % modulus for x in vec]
                if any(vec):
                    rows[beta].append(_kernel_coords(self.blocks[beta], vec))
        for beta, block in self.blocks.items():
            if modulus:  # m Z^B sits inside the lifted kernel; quotient by it too.
                n = len(block.domain)
                m_rows = ([modulus * (i == j) for i in range(n)] for j in range(n))
                rows[beta] += [solve_in_lattice(block.kernel, r) for r in m_rows]
            # One reduction per block: the factors, class tests and the
            # surjectivity check all start from this HNF.  Most product rows
            # repeat, and a repeat adds nothing to the lattice.
            block.rows = rows[beta]
            block.relations = hermite_form(list(dict.fromkeys(map(tuple, block.rows))), len(block.kernel))
            block.factors = cokernel_factors(len(block.kernel), block.relations, ZZ)
        self.phi_tables = self._induced_phi()

    def _product_table(self, beta1, beta2):
        """Block beta1 + beta2, and for each pair (a, b) of domain positions of
        beta1 and beta2 the position of their monomials' product in that
        block's domain and its binomial coefficient."""
        beta = mono_mul(beta1, beta2)[1]
        index = self.blocks[beta].index
        table = []
        for x in self.blocks[beta1].domain:
            line = []
            for y in self.blocks[beta2].domain:
                binom, mono = mono_mul(x, y)
                line.append((index[mono], binom))
            table.append(line)
        return beta, table

    def _block_coords(self, terms, block):
        vec = [0] * len(block.domain)
        for mono, c in terms:
            vec[block.index[mono]] = c
        return _kernel_coords(block, vec)

    def _induced_phi(self):
        tables = {}
        for beta, block in self.blocks.items():
            primes = primes_up_to(self.spec.truncation // block.weight)
            row_elements = [self.kernel_element(beta, row) for row in block.kernel] if primes else []
            for p in primes:
                target = self.blocks[tuple((gen, p * e) for gen, e in beta)]
                tables[(beta, p)] = [
                    self._block_coords(divided_power(p, el).terms.items(), target)
                    for el in row_elements
                ]
        return tables

    def factors(self, w):
        """Invariant factors of I/I^2 in weight w, merged over its blocks."""
        orders = [d for b in self.blocks.values() if b.weight == w for d in b.factors]
        return invariant_factor_chain(orders, ZZ)

    def phi_coords(self, p, coords):
        """Kernel coordinates of gamma_p of the class with kernel coordinates
        ``coords``: block beta goes to block p*beta by sum c_k^p
        phi_tables[(beta, p)][k], as gamma_p is p-semilinear on I modulo I^2
        (its cross terms lie in I^2)."""
        out = {}
        for beta, part in coords.items():
            target = tuple((gen, p * e) for gen, e in beta)
            image = [0] * len(self.blocks[target].kernel)
            for c, row in zip(part, self.phi_tables[(beta, p)]):
                if c:
                    image = [o + c**p * x for o, x in zip(image, row)]
            out[target] = image
        return out

    def kernel_element(self, beta, row):
        """The coproduct-algebra element with ambient coordinates ``row`` in block ``beta``."""
        terms = {mono: c for mono, c in zip(self.blocks[beta].domain, row) if c}
        return from_terms(self.coproduct.spec, terms)

    def to_kernel_coords(self, element):
        """Kernel coordinates of ``element``, each block's part solved in that block."""
        k = self.spec.generator_count
        parts = {}
        for term in element.terms.items():
            parts.setdefault(fold_degree(term[0], k), []).append(term)
        return {beta: self._block_coords(terms, self.blocks[beta]) for beta, terms in parts.items()}

    def in_relations(self, coords):
        """Whether kernel coordinates name the zero class: every block's part
        lies in that block's I^2."""
        return all(in_lattice(self.blocks[beta].relations, part) for beta, part in coords.items())

    def class_is_zero(self, element):
        return self.in_relations(self.to_kernel_coords(element))

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


def _closed_form_rep(oracle, entry, phi_dx, d):
    """Representative in A ∐ A of the closed-form basis element.

    ``d`` holds d(m) = in_2(m) - in_1(m) per basis monomial, and ``phi_dx``
    the representative of phi (x) dx_i per (label, phi), so it is built once
    and shared by all of its A_+-multiples.
    """
    key = (entry.label, entry.phi)
    if key not in phi_dx:
        phi_dx[key] = oracle.phi_rep(entry.phi, d[entry.label])
    rep = phi_dx[key]
    if entry.amono is not None:
        shift = oracle.coproduct.include_left(from_terms(oracle.spec, {entry.amono: 1}))
        rep = shift * rep
    return rep


def verify_main_theorem(spec):
    """Compare I/I^2 with the closed form U(A) (x) V, gradewise and exactly.

    Each check reads the blocks of its elements, and a weight's records merge
    its blocks; a representative, a product of homogeneous elements, lies in
    one block.
    """
    oracle = OmegaOracle(spec)
    closed = omega_free_basis(spec)
    ring = spec.ring
    report = CheckReport(f"main theorem at rank {spec.generator_count}, N={spec.truncation}, {ring}")

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

    phi_dx = {}
    phi_rows = {}
    for w in range(1, spec.truncation + 1):
        expected = invariant_factor_chain([e.annihilator for e in closed[w]], ring)
        report.check(f"invariant factors (w={w})", oracle.factors(w), expected)

        phi_rows[w] = []
        images = {}  # block -> the comparison images in it
        for entry in closed[w]:
            coords = oracle.to_kernel_coords(_closed_form_rep(oracle, entry, phi_dx, d))
            phi_rows[w].append(coords)
            for beta, part in coords.items():
                images.setdefault(beta, []).append(part)
            if entry.annihilator:
                scaled = {beta: [entry.annihilator * c for c in part] for beta, part in coords.items()}
                report.check(
                    f"comparison map well-defined (w={w})",
                    oracle.in_relations(scaled),
                    True,
                    context=str(entry),
                )
        surjective = all(
            spans_full_lattice([*images.get(beta, []), *block.relations], len(block.kernel))
            for beta, block in oracle.blocks.items()
            if block.weight == w
        )
        report.check(f"comparison map surjective (w={w})", surjective, True)

    # d-compatibility: the closed-form universal derivation matches
    # a -> [in_2(a) - in_1(a)] through the comparison map.
    for w in range(1, spec.truncation + 1):
        index = basis_index(closed[w])
        for mono in basis_of_weight(spec, w):
            difference = oracle.to_kernel_coords(d[mono])
            d_coords = omega_coordinates(universal_derivation(basis[mono]), index)
            for c, coords in zip(d_coords, phi_rows[w]):
                if c:
                    for beta, part in coords.items():
                        left = difference.get(beta, [0] * len(part))
                        difference[beta] = [x - c * r for x, r in zip(left, part)]
            report.check(
                f"d matches in_2 - in_1 (w={w})",
                oracle.in_relations(difference),
                True,
                context=f"monomial {mono}",
            )

    # phi-compatibility, through the induced tables, where the expected image is zero.
    for w in range(1, spec.truncation + 1):
        for entry, coords in zip(closed[w], phi_rows[w]):
            for p in primes_up_to(spec.truncation // w):
                if entry.amono is None and (entry.phi == () or entry.phi[0] == p):
                    continue  # phi_p of these is another basis rep by construction
                report.check(
                    f"phi_{p} kills A_+-multiples and foreign primes (w={w})",
                    oracle.in_relations(oracle.phi_coords(p, coords)),
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
                oracle.class_is_zero(lhs - rhs),
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
                oracle.class_is_zero(lhs - total),
                True,
                context=f"gamma_{n} of {mono_a}",
            )
    return report


def indecomposable_orders(spec):
    """The order of each monomial's block of A/A^2 (0 = free), by weight.

    Each monomial m of A is a block with one column; its A^2 rows are the
    coefficients C of the products x * y = C m of basis monomials.  The Smith
    form of a one-column matrix is the gcd of its entries, so the block is
    cyclic of order gcd(modulus, those coefficients).
    """
    orders, groups = {}, {}
    for w in range(1, spec.truncation + 1):
        groups[w] = basis_of_weight(spec, w)
        orders[w] = dict.fromkeys(groups[w], spec.ring.modulus)
        for x, y in factor_pairs(groups, w):
            binom, mono = mono_mul(x, y)
            orders[w][mono] = gcd(orders[w][mono], binom)
    return orders


def verify_indecomposables(spec):
    """SNF of A/A^2 gradewise against the closed form U(0) (x) V: a weight's
    invariant factors merge the orders of its monomials' blocks."""
    closed = indecomposables(spec)
    ring = spec.ring
    report = CheckReport(
        f"indecomposables at rank {spec.generator_count}, N={spec.truncation}, {ring}"
    )
    orders = indecomposable_orders(spec)
    for w in range(1, spec.truncation + 1):
        got = invariant_factor_chain(list(orders[w].values()), ZZ)
        expected = invariant_factor_chain([ann for _, ann in closed[w]], ring)
        report.check(f"A/A^2 slice (w={w})", got, expected)
    return report
