"""Independent brute-force constructions used as ground truth.

Nothing here consults the closed forms: the coproduct is the free algebra on
the doubled generator set, the fold map is evaluated monomial by monomial,
its kernel I is computed by exact integer linear algebra, I^2 is spanned by
the products j * u of the ideal generators j = gamma_n(y_i) - gamma_n(x_i) of
I with kernel basis vectors u, and quotients are compared purely through
Smith normal form invariant factors.  All of these preserve the Z^k
multidegree (``fold_degree``), so I, I^2 and I/I^2 are built, reduced and
solved one block per monomial of A, and a weight's invariant factors merge
those of its blocks.

A block depends only on the sorted (weight, exponent) pairs of its monomial
beta: permuting generators of equal weight, on both coproduct copies, maps
one block onto another.  So only the canonical block of each such exponent
class is built (``exponent_class``); every other block is a view of it, with
the relabeled domain in the same order, sharing its fold row, kernel,
relations and factors.  The kernel of a block's one-row fold map has the
Hermite basis e_i + t_i e_last, plus m e_last over Z/m, checked once per
class, so kernel coordinates are read off by projection.  An element of I
that the verifiers read lies in one block, so its kernel coordinates are a
pair (beta, coordinates over block beta's kernel basis).  A canonical block
beta builds its I^2 rows from the splits beta = n e_i + rest with rest
nonzero: each product of the generator j of block x_i^n with a kernel row of
block rest is written straight into beta's coordinates through a table of
j's monomial products.  phi_p of a class is read off gamma_p of an actual
element of I, in block p*beta.  A/A^2 splits into one-column blocks, one per
monomial m, each cyclic of order the gcd of the modulus and the binomials of
the products over m's splits into two nonzero monomials.  The fold map is
the only DP map evaluated generically (``dp_map_apply``); the coproduct
inclusions send generators to distinct generators, so they just renumber
each monomial.  ``cokernel_factors`` and the surjectivity check run only on
the non-unit-pivot core of the relation HNF.  The comparison maps into the
closed-form module go through explicit representatives, so the divided-power
structure is exercised on actual elements rather than formulas.
"""

from itertools import compress, product
from math import comb, gcd

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
    invariant_factor_chain,
    kernel_basis_mod,
    solve_in_lattice,
    spans_full_lattice_with,
)
from .record import Record
from .report import CheckReport


# ---------------------------------------------------------------------------
# Coproduct


class Coproduct(Record):
    """A ∐ B realized as the free algebra on the concatenated generators: a
    mutable slotted record of the combined spec and the summands' specs.

    The inclusions send generator i of A to generator i, and generator i of B
    to generator ``left.generator_count + i``.  On distinct generators a DP map
    of that kind takes each monomial to the renumbered monomial, so they are
    computed by renumbering rather than by evaluating the map.
    """

    __slots__ = _fields = ("spec", "left", "right")

    def __init__(self, spec, left, right):
        self.spec = spec
        self.left = left
        self.right = right

    def include_left(self, a):
        return self._include(a, self.left, 0)

    def include_right(self, b):
        return self._include(b, self.right, self.left.generator_count)

    def _include(self, element, summand, offset):
        """Renumbering keeps each weight and each reduced coefficient, so the
        terms are canonical as they stand unless the coproduct truncates
        lower than the summand."""
        if element.spec != summand:
            raise ValueError("element does not lie in that coproduct summand")
        terms = {tuple((gen + offset, e) for gen, e in mono): c for mono, c in element.terms.items()}
        if summand.truncation == self.spec.truncation:
            return DPElement._raw(self.spec, terms)
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


class Block(Record):
    """The coproduct monomials folding onto one monomial beta of A, the HNF
    of the fold map's kernel on them and that HNF's last column ``last``
    (t_i = -c_i for the fold row c, reduced mod m over Z/m, then m).
    ``OmegaOracle`` adds ``relations``, the HNF of the block of I^2 in kernel
    coordinates, and ``factors``, the invariant factors of this block of
    I/I^2.

    ``canonical`` keys the block of this block's exponent class that was
    built.  A block that is not its own canonical block is a view: its
    ``domain`` and ``index`` are its own, the canonical domain relabeled in
    the same order, and every other field is the canonical block's object.
    A mutable slotted record; the fields ``OmegaOracle`` adds start as None.
    """

    __slots__ = _fields = (
        "weight", "domain", "index", "kernel", "last", "canonical", "relations", "factors",
    )

    def __init__(self, weight, domain, index, kernel, last, canonical, relations=None, factors=None):
        self.weight = weight
        self.domain = domain
        self.index = index
        self.kernel = kernel
        self.last = last
        self.canonical = canonical
        self.relations = relations
        self.factors = factors


def exponent_class(beta, weights):
    """The canonical monomial of beta's exponent class, and for each of its
    generators the generator of beta it stands for.

    Generators of equal weight take beta's exponents in non-increasing order
    of generator index; ties and absent generators keep index order.  The
    canonical monomial is the lexicographically largest of the class, so its
    block comes first among the class's blocks of a weight.

    >>> exponent_class(((1, 2), (2, 1)), (1, 1, 1))
    (((0, 2), (1, 1)), [1, 2, 0])
    """
    exponent = dict(beta)
    groups = {}
    for gen, w in enumerate(weights):
        groups.setdefault(w, []).append(gen)
    stands_for = [0] * len(weights)
    for gens in groups.values():
        for slot, gen in zip(gens, sorted(gens, key=lambda g: -exponent.get(g, 0))):
            stands_for[slot] = gen
    canonical = tuple((slot, exponent[gen]) for slot, gen in enumerate(stands_for) if gen in exponent)
    return canonical, stands_for


def fold_kernel(spec):
    """The codiagonal A ∐ A -> A and its integer kernel, block by block.

    The canonical block of each exponent class is built: its fold row is
    evaluated through ``dp_map_apply`` and its kernel by ``kernel_basis_mod``.
    The fold row has coefficient 1 at y^beta, the last domain monomial, so
    that kernel must be e_i + t_i e_last for i < n - 1, plus m e_last over
    Z/m, read through its supports; a kernel of another shape raises
    ``ValueError``.  Every other block is a view of its canonical block.
    """
    co = coproduct(spec, spec)
    k = spec.generator_count
    modulus = spec.ring.modulus
    images = [gamma_gen(spec, i % k, 1) for i in range(2 * k)]
    blocks = {}
    for w in range(1, spec.truncation + 1):
        for beta in basis_of_weight(spec, w):
            canonical, stands_for = exponent_class(beta, spec.weights)
            if canonical != beta:
                rep = blocks[canonical]
                relabel = [stands_for[g % k] + k * (g // k) for g in range(2 * k)]
                domain = [tuple(sorted((relabel[g], e) for g, e in mono)) for mono in rep.domain]
                index = position_index(domain)
                blocks[beta] = Block(w, domain, index, rep.kernel, rep.last, canonical)
                continue
            # x^a y^(beta - a) for 0 <= a <= beta, in the coproduct's monomial
            # order: descending lexicographic in a.
            domain = [
                tuple([(g, a) for (g, _), a in zip(beta, split) if a]
                      + [(g + k, e - a) for (g, e), a in zip(beta, split) if a < e])
                for split in product(*(range(e, -1, -1) for _, e in beta))
            ]
            row = [
                coordinates(dp_map_apply(images, from_terms(co.spec, {m: 1})), {beta: 0})[0]
                for m in domain
            ]
            end = len(domain) - 1
            kernel = kernel_basis_mod([row], end + 1, modulus)
            last = [values[-1] if support[-1] == end else 0 for support, values in zip(kernel.supports, kernel)]
            shape = [{i: 1, end: t} if t else {i: 1} for i, t in enumerate(last[:end])]
            if kernel.row_dicts() != shape + [{end: modulus}] * bool(modulus):
                raise ValueError(f"fold kernel of block {beta} is not e_i + t_i e_last")
            blocks[beta] = Block(w, domain, position_index(domain), kernel, last, beta)
    return co, blocks


def _kernel_coords(block, entries):
    """Coordinates over the block's kernel basis of the domain vector with
    entries ``entries`` (position -> value).

    The basis is e_i + t_i e_last for i < n - 1, then m e_last over Z/m, so
    the coordinates are the vector's entries off the last position, and the
    residue v_last - sum v_i t_i must be 0 over Z; over Z/m it is m times the
    last coordinate.
    """
    end = len(block.domain) - 1
    coords = [0] * len(block.last)
    residue = 0
    for i, x in entries.items():
        if i == end:
            residue += x
        else:
            coords[i] = x
            residue -= x * block.last[i]
    if len(coords) > end:
        coords[end], residue = divmod(residue, block.last[end])
    if residue:
        raise ValueError("element does not lie in the fold kernel")
    return coords


class OmegaOracle:
    """I/I^2 of the fold kernel, block by block.

    Kernel coordinates of an element are a pair (beta, coordinates over block
    beta's kernel basis): every element the verifiers read lies in one block.

    I^2 is built as J * I, with J the elements j = gamma_n(y_i) - gamma_n(x_i)
    for n * w_i <= N, x_i and y_i generator i of the two copies of A (j is
    ``derivation_rep`` of gamma_n(x_i)).  This is plain ring theory, with no
    closed form.  Let K be the ideal J generates.  Modulo K each coproduct
    monomial is congruent to in_1 of its fold image: replace each gamma_b(y_i)
    factor by gamma_b(x_i).  So I lies in K, and K lies in I as J does.  Write
    u in I as sum r_k m_k j_k, with m_k monomials and j_k in J.  Then u * v =
    sum r_k j_k (m_k v), and each m_k v lies in I, so I * I = J * I, spanned
    over the ring by the j * u with u a kernel row.  The argument holds over
    Z/m as it stands.  Block beta of J * I is spanned by j * u over the splits
    beta = n e_i + rest with rest nonzero, j in block x_i^n and u a kernel
    row of block rest, which has lower weight and so was built before beta.
    """

    def __init__(self, spec):
        self.spec = spec
        self.coproduct, self.blocks = fold_kernel(spec)
        normalize, modulus = spec.ring.normalize, spec.ring.modulus
        k = spec.generator_count
        sparse = {}  # canonical block -> its kernel rows as nonzero (domain index, coefficient) pairs
        for beta, block in self.blocks.items():
            if block.canonical != beta:  # its canonical block came first
                rep = self.blocks[block.canonical]
                block.relations, block.factors = rep.relations, rep.factors
                continue
            # A row in m Z^B has no nonzero pair, and only zero products, so it is left out.
            sparse[beta] = [pairs for support, row in zip(block.kernel.supports, block.kernel)
                            if (pairs := [(a, c) for a, c in zip(support, map(normalize, row)) if c])]
            # j * u for j = gamma_n(y_i) - gamma_n(x_i) and u a kernel row of
            # block rest = beta - n e_i, written into this block's coordinates
            # through a table: per domain position of rest, the positions and
            # binomials of gamma_n(y_i) m and gamma_n(x_i) m.  Domain monomial
            # x^a y^(beta - a) sits at sum_g (beta - a)_g stride_g, so
            # gamma_n(x_i) m sits where m's y-exponents put it, gamma_n(y_i) m
            # n stride_i further on, and they carry C(f + n, n) for f the
            # exponent of y_i or x_i in m.
            stride, size = {}, 1
            for g, e in reversed(beta):
                stride[k + g] = size
                size *= e + 1
            rows = []
            for i, e in beta:
                for n in range(1, e + 1):
                    rest = tuple((g, f - n * (g == i)) for g, f in beta if g != i or f > n)
                    if not rest:
                        continue
                    part = self.blocks[rest]
                    table = []
                    for m in part.domain:
                        exponent = dict(m)
                        at_x = sum(f * stride[g] for g, f in m if g >= k)
                        table.append((at_x + n * stride[k + i], comb(exponent.get(k + i, 0) + n, n),
                                      at_x, comb(exponent.get(i, 0) + n, n)))
                    for u in sparse[part.canonical]:
                        total = {}
                        for a, c in u:
                            at_y, by, at_x, bx = table[a]
                            total[at_y] = total.get(at_y, 0) + c * by
                            total[at_x] = total.get(at_x, 0) - c * bx
                        if entries := {pos: x for pos, v in total.items() if (x := normalize(v))}:
                            rows.append(tuple(_kernel_coords(block, entries)))
            if modulus:  # m Z^B lies in the lifted kernel; quotient by it too:
                # m e_j = m (e_j + t_j e_last) - t_j (m e_last), m e_last the last row.
                end = len(block.domain) - 1
                for j, t in enumerate(block.last[:end]):
                    rows.append(tuple([modulus * (i == j) for i in range(end)] + [-t]))
                rows.append(tuple([0] * end + [1]))
            # One reduction per class: the factors, class tests and the
            # surjectivity check all start from this HNF.  A repeated row adds
            # nothing to the lattice.
            block.relations = hermite_form(list(dict.fromkeys(rows)), len(block.kernel))
            block.factors = cokernel_factors(len(block.kernel), block.relations, ZZ)

    def factors(self, w):
        """Invariant factors of I/I^2 in weight w, merged over its blocks."""
        orders = [d for b in self.blocks.values() if b.weight == w for d in b.factors]
        return invariant_factor_chain(orders, ZZ)

    def to_kernel_coords(self, element):
        """(beta, kernel coordinates in block beta) of an element of I lying in
        the one block beta; (None, []) for zero.  An element that meets two
        blocks, or lies off the fold kernel, raises ``ValueError``."""
        if not element.terms:
            return None, []
        k = self.spec.generator_count
        beta = fold_degree(next(iter(element.terms)), k)
        block = self.blocks[beta]
        if stray := [m for m in element.terms if m not in block.index]:
            raise ValueError(f"element meets blocks {beta} and {fold_degree(stray[0], k)}")
        return beta, _kernel_coords(block, {block.index[m]: c for m, c in element.terms.items()})

    def phi_class(self, p, element):
        """(p*beta, kernel coordinates) of gamma_p(element), for an element of I
        in block beta: a representative of phi_p of its class in I/I^2."""
        return self.to_kernel_coords(divided_power(p, element))

    def in_relations(self, beta, coords):
        """Whether kernel coordinates in block beta name the zero class: they
        lie in the block's I^2 (beta None is zero)."""
        return beta is None or solve_in_lattice(self.blocks[beta].relations, coords) is not None

    def class_is_zero(self, element):
        return self.in_relations(*self.to_kernel_coords(element))

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


def _closed_form_rep(oracle, entry, phi_dx, d, in_1):
    """Representative in A ∐ A of the closed-form basis element.

    ``d`` holds d(m) = in_2(m) - in_1(m) and ``in_1`` holds in_1(m) per basis
    monomial, and ``phi_dx`` the representative of phi (x) dx_i per (label,
    phi), so it is built once and shared by all of its A_+-multiples.
    """
    key = (entry.label, entry.phi)
    if key not in phi_dx:
        phi_dx[key] = oracle.phi_rep(entry.phi, d[entry.label])
    rep = phi_dx[key]
    if entry.amono is not None:
        rep = in_1[entry.amono] * rep
    return rep


def verify_main_theorem(spec):
    """Compare I/I^2 with the closed form U(A) (x) V, gradewise and exactly.

    A representative, a product of homogeneous elements, lies in one block,
    so each check reads one block, and a weight's records merge its blocks.
    A failed well-definedness, d or phi check names its block.

    d(m) = in_2(m) - in_1(m) is built once per basis monomial m, and d of
    any other element of A, such as a b or gamma_n(a) in the derivation
    laws, is read from that table as sum c d(m) over its terms, d being
    additive.  The d check walks only the nonzero closed-form coordinates
    of each d(m).
    """
    oracle = OmegaOracle(spec)
    closed = omega_free_basis(spec)
    ring = spec.ring
    report = CheckReport(f"main theorem at rank {spec.generator_count}, N={spec.truncation}, {ring}")

    # d(m) = in_2(m) - in_1(m) and in_1(m) once per basis monomial.
    monomials = basis_up_to(spec)
    basis = {m: from_terms(spec, {m: 1}) for m in monomials}
    d = {m: oracle.derivation_rep(a) for m, a in basis.items()}
    in_1 = {m: oracle.coproduct.include_left(a) for m, a in basis.items()}
    coproduct_zero = algebra_zero(oracle.coproduct.spec)

    def d_of(element):
        """in_2 - in_1 of an element of A: sum c d(m) over its terms c m."""
        total = coproduct_zero
        for m, c in element.terms.items():
            total = total + d[m].scale(c)
        return total

    phi_dx = {}
    comparison = {}  # weight -> (block, kernel coordinates) of each entry's image
    for w in range(1, spec.truncation + 1):
        expected = invariant_factor_chain([e.annihilator for e in closed[w]], ring)
        report.check(f"invariant factors (w={w})", oracle.factors(w), expected)

        comparison[w] = []
        images = {}  # block -> the comparison images in it
        for entry in closed[w]:
            beta, coords = oracle.to_kernel_coords(_closed_form_rep(oracle, entry, phi_dx, d, in_1))
            comparison[w].append((beta, coords))
            images.setdefault(beta, []).append(coords)
            if entry.annihilator:
                report.check(
                    f"comparison map well-defined (w={w})",
                    oracle.in_relations(beta, [entry.annihilator * c for c in coords]),
                    True,
                    context=lambda: f"{entry} in block {beta}",
                )
        # A view shares its canonical block's relations, so a view whose image
        # rows are those of a block already checked has its verdict.
        spans = {}  # (canonical block, set of image rows) -> whether they span
        for beta, block in oracle.blocks.items():
            if block.weight == w:
                rows = images.get(beta, [])
                key = (block.canonical, frozenset(map(tuple, rows)))
                if key not in spans:
                    spans[key] = spans_full_lattice_with(block.relations, rows, len(block.kernel))
        report.check(f"comparison map surjective (w={w})", all(spans.values()), True)

    # d-compatibility: the closed-form universal derivation matches
    # a -> [in_2(a) - in_1(a)] through the comparison map.
    for w in range(1, spec.truncation + 1):
        index = basis_index(closed[w])
        for mono in basis_of_weight(spec, w):
            beta, difference = oracle.to_kernel_coords(d[mono])
            d_coords = omega_coordinates(universal_derivation(basis[mono]), index)
            stray = None  # a block other than beta that the closed-form d(mono) reaches
            for c, (b, coords) in compress(zip(d_coords, comparison[w]), d_coords):
                if b != beta:
                    stray = b
                else:
                    difference = [x - c * r for x, r in zip(difference, coords)]
            report.check(
                f"d matches in_2 - in_1 (w={w})",
                stray is None and oracle.in_relations(beta, difference),
                True,
                context=lambda: f"monomial {mono} in block {beta}" + (f" and block {stray}" if stray else ""),
            )

    # phi-compatibility where the expected image is zero: the class of gamma_p
    # of each representative, rebuilt from the shared phi (x) dx_i reps.  No
    # prime p has p*w <= N for w > N/2.
    for w in range(1, spec.truncation // 2 + 1):
        for entry in closed[w]:
            rep = _closed_form_rep(oracle, entry, phi_dx, d, in_1)
            for p in primes_up_to(spec.truncation // w):
                if entry.amono is None and (entry.phi == () or entry.phi[0] == p):
                    continue  # phi_p of these is another basis rep by construction
                target, image = oracle.phi_class(p, rep)
                report.check(
                    f"phi_{p} kills A_+-multiples and foreign primes (w={w})",
                    oracle.in_relations(target, image),
                    True,
                    context=lambda: f"{entry} in block {target}",
                )

    # The derivation laws for a -> [in_2(a) - in_1(a)] itself.
    for mono_a in monomials:
        wa = spec.monomial_weight(mono_a)
        a = basis[mono_a]
        for mono_b in monomials:
            wb = spec.monomial_weight(mono_b)
            if wa + wb > spec.truncation or mono_b < mono_a:
                continue
            lhs = d_of(a * basis[mono_b])
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
            lhs = d_of(gammas[n - 1])
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
    binomials C of the products beta1 * beta2 = C m over the splits m =
    beta1 + beta2 into nonzero monomials.  The Smith form of a one-column
    matrix is the gcd of its entries, so the block is cyclic of order
    gcd(modulus, those binomials).

    >>> from dpalg import free_spec
    >>> indecomposable_orders(free_spec(ZZ, 1, 4))
    {1: {((0, 1),): 0}, 2: {((0, 2),): 2}, 3: {((0, 3),): 3}, 4: {((0, 4),): 2}}
    """
    orders = {}
    for w in range(1, spec.truncation + 1):
        orders[w] = {}
        for m in basis_of_weight(spec, w):
            binomials = []
            for split in product(*(range(e + 1) for _, e in m)):
                beta1 = tuple((g, a) for (g, _), a in zip(m, split) if a)
                beta2 = tuple((g, e - a) for (g, e), a in zip(m, split) if a < e)
                if beta1 and beta2:
                    binomials.append(mono_mul(beta1, beta2)[0])
            orders[w][m] = gcd(spec.ring.modulus, *binomials)
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
