import random
from math import gcd
from itertools import combinations_with_replacement, product

import pytest

from dpalg.coeff import Ring, ZZ, primes_up_to
from dpalg.dpcore import (
    basis_of_weight,
    basis_up_to,
    coordinates,
    divided_power,
    dp_axiom_report,
    dp_map_apply,
    free_spec,
    from_terms,
    gamma_gen,
    position_index,
    random_element,
)
from dpalg.kahler import omega_free_basis
from dpalg.linalg import (
    HermiteBasis,
    cokernel_factors,
    hermite_form,
    invariant_factor_chain,
    kernel_basis_mod,
    solve_in_lattice,
)
from dpalg import oracle as oracle_module
from dpalg.oracle import (
    OmegaOracle,
    _closed_form_rep,
    _kernel_coords,
    coproduct,
    exponent_class,
    fold_degree,
    fold_kernel,
    indecomposable_orders,
    verify_indecomposables,
    verify_main_theorem,
)
from test_linalg import densify


def dense_kernel(block):
    """The block's kernel basis as dense rows over its domain."""
    return densify(block.kernel, len(block.domain))


def kernel_element(oracle, beta, entries):
    """The coproduct-algebra element with (domain position, coefficient) pairs ``entries`` in block ``beta``."""
    domain = oracle.blocks[beta].domain
    return from_terms(oracle.coproduct.spec, {domain[a]: c for a, c in entries})


class ProductElement:
    """An element of the direct product A x B (componentwise structure)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return ProductElement(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return ProductElement(-self.a, -self.b)

    def __mul__(self, other):
        return ProductElement(self.a * other.a, self.b * other.b)

    def scale(self, c):
        return ProductElement(self.a.scale(c), self.b.scale(c))

    def gamma(self, n):
        return ProductElement(divided_power(n, self.a), divided_power(n, self.b))

    def __eq__(self, other):
        return isinstance(other, ProductElement) and self.a == other.a and self.b == other.b

    def __str__(self):
        return f"({self.a}, {self.b})"


def component(co, mono):
    """Which summand of the coproduct ``co`` a basis monomial lies in."""
    cut = co.left.generator_count
    touches_left = any(gen < cut for gen, _ in mono)
    touches_right = any(gen >= cut for gen, _ in mono)
    if touches_left and touches_right:
        return "mixed"
    return "left" if touches_left else "right"


RANK1 = free_spec(ZZ, 1, 6)
X1, G2X = ((0, 1),), ((0, 2),)  # the blocks of x and gamma_2(x) at rank 1


def factor_pairs(groups, w):
    """Unordered pairs (x, y) from ``groups`` (weight -> items) whose weights
    sum to w, lighter factor first: over kernel elements, the products x * y
    span the weight-w part of I^2, and over basis monomials that of A^2."""
    for w1 in range(1, w // 2 + 1):
        left, right = groups[w1], groups[w - w1]
        yield from combinations_with_replacement(left, 2) if 2 * w1 == w else product(left, right)


def test_coproduct_spec_and_inclusions():
    co = coproduct(RANK1, RANK1)
    assert co.spec.generator_count == 2
    assert co.spec.truncation == 6
    x = gamma_gen(RANK1, 0, 1)
    assert co.include_left(x) == gamma_gen(co.spec, 0, 1)
    assert co.include_right(x) == gamma_gen(co.spec, 1, 1)
    with pytest.raises(ValueError):
        coproduct(RANK1, free_spec(Ring(5), 1, 6))


@pytest.mark.parametrize("ring", [ZZ, Ring(6)], ids=["Z", "Z/6"])
def test_inclusions_match_the_dp_map_on_generators(ring):
    rng = random.Random(11)
    # Equal ranks 1-3, and weights (1, 2) beside a rank-1 summand of lower
    # truncation, so both the offset and the truncation cut show.
    for a_spec, b_spec in (
        (free_spec(ring, 1, 6), free_spec(ring, 1, 6)),
        (free_spec(ring, 2, 5), free_spec(ring, 2, 5)),
        (free_spec(ring, 3, 4), free_spec(ring, 3, 4)),
        (free_spec(ring, 2, 6, weights=(1, 2)), free_spec(ring, 1, 4)),
    ):
        co = coproduct(a_spec, b_spec)
        offset = a_spec.generator_count
        left_images = [gamma_gen(co.spec, i, 1) for i in range(a_spec.generator_count)]
        right_images = [gamma_gen(co.spec, offset + i, 1) for i in range(b_spec.generator_count)]
        for _ in range(40):
            a = random_element(a_spec, rng, max_terms=4)
            b = random_element(b_spec, rng, max_terms=4)
            assert co.include_left(a) == dp_map_apply(left_images, a)
            assert co.include_right(b) == dp_map_apply(right_images, b)


def test_inclusions_refuse_elements_of_the_wrong_summand():
    a_spec = free_spec(ZZ, 2, 5, weights=(1, 2))
    b_spec = free_spec(ZZ, 1, 5)
    co = coproduct(a_spec, b_spec)
    from_a = gamma_gen(a_spec, 1, 1)
    from_b = gamma_gen(b_spec, 0, 2)
    other_ring = gamma_gen(free_spec(Ring(6), 2, 5, weights=(1, 2)), 0, 1)
    for include, element in (
        (co.include_left, from_b),
        (co.include_right, from_a),
        (co.include_left, other_ring),
        (co.include_left, gamma_gen(co.spec, 0, 1)),
        (co.include_right, gamma_gen(co.spec, 2, 1)),
    ):
        with pytest.raises(ValueError):
            include(element)


def test_coproduct_weight2_component_split():
    co = coproduct(RANK1, RANK1)
    split = [component(co, m) for m in basis_of_weight(co.spec, 2)]
    assert split == ["left", "mixed", "right"]


def test_coproduct_component_partition_counts():
    a = free_spec(ZZ, 2, 5)
    b = free_spec(ZZ, 1, 5)
    co = coproduct(a, b)
    for w in range(1, 6):
        groups = {"left": 0, "mixed": 0, "right": 0}
        for m in basis_of_weight(co.spec, w):
            groups[component(co, m)] += 1
        assert groups["left"] == len(basis_of_weight(a, w))
        assert groups["right"] == len(basis_of_weight(b, w))
        assert sum(groups.values()) == len(basis_of_weight(co.spec, w))


def test_gamma_of_mixed_monomial_stays_mixed():
    co = coproduct(RANK1, RANK1)
    mixed = gamma_gen(co.spec, 0, 1) * gamma_gen(co.spec, 1, 1)
    g2 = divided_power(2, mixed)
    assert g2.terms == {((0, 2), (1, 2)): 2}
    assert all(component(co, m) == "mixed" for m in g2.terms)


def test_fold_matrix_and_kernel_rank1():
    # At rank 1 each weight w is one block, that of gamma_w(x).  The fold
    # rows are [1, 1] and [1, 2, 1], so t_i = -c_i.
    co, blocks = fold_kernel(RANK1)
    assert blocks[X1].last == [-1]
    assert dense_kernel(blocks[X1]) == [[1, -1]]
    assert blocks[G2X].last == [-1, -2]
    assert dense_kernel(blocks[G2X]) == [[1, 0, -1], [0, 1, -2]]


def test_fold_section_identities():
    co, _ = fold_kernel(RANK1)
    k = RANK1.generator_count
    images = [gamma_gen(RANK1, i % k, 1) for i in range(2 * k)]
    rng = random.Random(2)
    for _ in range(30):
        a = random_element(RANK1, rng)
        assert dp_map_apply(images, co.include_left(a)) == a
        assert dp_map_apply(images, co.include_right(a)) == a


def test_i_mod_i_squared_rank1_N2():
    oracle = OmegaOracle(free_spec(ZZ, 1, 2))
    assert oracle.blocks[X1].factors == (0,)
    assert oracle.blocks[G2X].factors == (2, 0)


def test_induced_phi2_on_weight1_class():
    # gamma_2(x' - x'') = gamma_2 x' - x'x'' + gamma_2 x'' = v1 - v2 in the
    # Hermite kernel basis v1 = g2x' - g2x'', v2 = x'x'' - 2 g2x''.
    spec = free_spec(ZZ, 1, 2)
    oracle = OmegaOracle(spec)
    assert dense_kernel(oracle.blocks[X1]) == [[1, -1]]
    assert dense_kernel(oracle.blocks[G2X]) == [[1, 0, -1], [0, 1, -2]]
    x = from_terms(spec, {X1: 1})
    difference = oracle.coproduct.include_left(x) - oracle.coproduct.include_right(x)
    assert oracle.phi_class(2, difference) == (G2X, [1, -1])


@pytest.mark.parametrize(
    "rank, truncation, ring", [(1, 8, ZZ), (2, 5, ZZ), (2, 4, Ring(6))], ids=["1-8-Z", "2-5-Z", "2-4-Z/6"]
)
def test_phi_class_of_closed_form_reps(rank, truncation, ring):
    # gamma_p of each closed-form rep lands in block p*beta.  Its class is
    # zero on every pair the phi check of verify_main_theorem reads, and
    # nonzero on every pair it skips: phi_p of a unit-A_+ entry with
    # phi-part 1 or a power of p is another basis element.  So a phi_class
    # that always returned zero, or never did, fails here.
    spec = free_spec(ring, rank, truncation)
    oracle = OmegaOracle(spec)
    basis = {m: from_terms(spec, {m: 1}) for m in basis_up_to(spec)}
    d = {m: oracle.derivation_rep(a) for m, a in basis.items()}
    in_1 = {m: oracle.coproduct.include_left(a) for m, a in basis.items()}
    read = skipped = 0
    for w, entries in omega_free_basis(spec).items():
        for entry in entries:
            rep = _closed_form_rep(oracle, entry, {}, d, in_1)
            beta, _ = oracle.to_kernel_coords(rep)
            for p in primes_up_to(truncation // w):
                target, image = oracle.phi_class(p, rep)
                assert target in (None, tuple((gen, p * e) for gen, e in beta)), (entry, p)
                by_construction = entry.amono is None and (entry.phi == () or entry.phi[0] == p)
                assert oracle.in_relations(target, image) is not by_construction, (entry, p)
                skipped += by_construction
                read += not by_construction
    assert read > 0 and skipped > 0


def test_verify_main_theorem_small():
    report = verify_main_theorem(free_spec(ZZ, 1, 4))
    assert report.passed, report.summary()


def test_verify_main_theorem_trivial_truncation():
    report = verify_main_theorem(free_spec(ZZ, 1, 1))
    assert report.passed


def test_verify_main_theorem_mod6_rank1():
    report = verify_main_theorem(free_spec(Ring(6), 1, 4))
    assert report.passed, report.summary()


def test_verify_indecomposables_rank1_N12():
    report = verify_indecomposables(free_spec(ZZ, 1, 12))
    assert report.passed, report.summary()


def test_verify_indecomposables_weight1_free():
    for rank in (1, 2, 3):
        report = verify_indecomposables(free_spec(ZZ, rank, 2))
        assert report.passed


def test_verify_indecomposables_mod2():
    report = verify_indecomposables(free_spec(Ring(2), 1, 3))
    assert report.passed, report.summary()


def test_direct_product_componentwise_axioms():
    spec_a, spec_b = free_spec(ZZ, 1, 5), free_spec(ZZ, 2, 5)

    def sample(rng):
        a = random_element(spec_a, rng, max_terms=2)
        return ProductElement(a, random_element(spec_b, rng, max_terms=2))

    report = dp_axiom_report(ZZ, sample, lambda n, u: u.gamma(n), samples=40, seed=3)
    assert report.passed, report.summary()


def test_direct_product_terminal_factor():
    # 0 x A behaves as A: the nonzero component carries everything.
    spec = free_spec(ZZ, 1, 5)
    rng = random.Random(7)
    from dpalg.dpcore import zero

    for _ in range(20):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        u = ProductElement(zero(spec), a)
        v = ProductElement(zero(spec), b)
        assert (u * v).b == a * b
        assert u.gamma(3).b == divided_power(3, a)
        assert (u * v).a.is_zero()


def test_unital_product_fails_for_nontrivial_product():
    # On the free algebra the forced candidate mu = addition is not an
    # algebra map: mu((a,0)(0,b)) = mu(0,0) = 0 but mu(a,0) mu(0,b) = ab.
    from dpalg.dpcore import zero

    def mu(pair):
        return pair.a + pair.b

    a = gamma_gen(RANK1, 0, 1)
    b = gamma_gen(RANK1, 0, 2)
    u = ProductElement(a, zero(RANK1))
    v = ProductElement(zero(RANK1), b)
    assert mu(u * v).is_zero()
    assert not (mu(u) * mu(v)).is_zero()  # the algebra-map law fails


def test_verify_main_theorem_weighted_generators():
    report = verify_main_theorem(free_spec(ZZ, 2, 6, weights=(1, 2)))
    assert report.passed, report.summary()
    report = verify_indecomposables(free_spec(Ring(6), 2, 6, weights=(1, 2)))
    assert report.passed, report.summary()


def test_induced_phi_is_semilinear_on_classes():
    # gamma_p(c v) = c^p gamma_p(v) modulo I^2, for kernel vectors v.
    spec = free_spec(ZZ, 1, 6)
    oracle = OmegaOracle(spec)
    rng = random.Random(14)
    for w, p in ((1, 2), (1, 3), (2, 2), (3, 2), (2, 3)):
        for row in dense_kernel(oracle.blocks[((0, w),)]):
            v = kernel_element(oracle, ((0, w),), enumerate(row))
            c = rng.randint(-5, 5)
            lhs = divided_power(p, v.scale(c))
            rhs = divided_power(p, v).scale(c**p)
            assert oracle.class_is_zero(lhs - rhs)


def test_induced_phi_is_additive_on_classes():
    # gamma_p(u + v) - gamma_p(u) - gamma_p(v) is a sum of products, so it
    # lies in I^2: the induced operator on I/I^2 is additive.
    spec = free_spec(ZZ, 1, 6)
    oracle = OmegaOracle(spec)
    for w, p in ((1, 2), (2, 2), (1, 3), (3, 2)):
        kernel = dense_kernel(oracle.blocks[((0, w),)])
        for i in range(len(kernel)):
            for j in range(i, len(kernel)):
                u = kernel_element(oracle, ((0, w),), enumerate(kernel[i]))
                v = kernel_element(oracle, ((0, w),), enumerate(kernel[j]))
                mixed = divided_power(p, u + v) - divided_power(p, u) - divided_power(p, v)
                assert oracle.class_is_zero(mixed)


@pytest.mark.parametrize(
    "rank, weights, ring",
    [(1, None, ZZ), (2, None, ZZ), (2, None, Ring(6)), (2, (1, 2), ZZ)],
    ids=["rank1-Z", "rank2-Z", "rank2-Z/6", "w12-Z"],
)
def test_gradewise_stability_under_deeper_truncation(rank, weights, ring):
    # Raising N adds blocks of higher weight but changes none below it.
    oracles = [OmegaOracle(free_spec(ring, rank, n, weights)) for n in (5, 6, 7)]
    for small, big in zip(oracles, oracles[1:]):
        for beta, block in small.blocks.items():
            deeper = big.blocks[beta]
            assert block.last == deeper.last, beta
            assert block.kernel == deeper.kernel, beta
            assert block.factors == deeper.factors, beta
            assert block.relations == deeper.relations, beta


@pytest.mark.parametrize(
    "rank, truncation, weights", [(2, 7, None), (3, 4, None), (2, 6, (1, 2)), (2, 12, (1, 12))]
)
def test_blocks_over_zmod_are_the_base_change_of_blocks_over_z(rank, truncation, weights):
    # I/I^2 over Z/m is I/I^2 over Z tensored with Z/m, block by block:
    # Z tensors to Z/m and Z/d to Z/gcd(d, m).  No closed form enters.
    over_z = OmegaOracle(free_spec(ZZ, rank, truncation, weights)).blocks
    for m in (2, 4, 6, 9, 12):
        over_m = OmegaOracle(free_spec(Ring(m), rank, truncation, weights)).blocks
        assert over_m.keys() == over_z.keys()
        for beta, block in over_m.items():
            expected = [m if d == 0 else gcd(d, m) for d in over_z[beta].factors]
            assert block.factors == invariant_factor_chain(expected, ZZ), (m, beta)


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=["Z", "Z/4", "Z/6"])
@pytest.mark.parametrize(
    "rank, truncation, weights", [(1, 7, None), (2, 5, None), (3, 4, None), (2, 6, (1, 2))]
)
def test_blocks_match_the_per_weight_oracle(rank, truncation, weights, ring):
    # The reference builds one fold matrix, kernel and I^2 lattice per
    # weight, as the oracle did before it split weights into blocks.
    spec = free_spec(ring, rank, truncation, weights=weights)
    oracle = OmegaOracle(spec)
    co, modulus = oracle.coproduct, ring.modulus
    images = [gamma_gen(spec, i % rank, 1) for i in range(2 * rank)]
    elements = {}
    for w in range(1, truncation + 1):
        domain = basis_of_weight(co.spec, w)
        index = position_index(domain)
        target = position_index(basis_of_weight(spec, w))
        columns = [coordinates(dp_map_apply(images, from_terms(co.spec, {m: 1})), target) for m in domain]
        matrix = [list(row) for row in zip(*columns)]
        kernel = kernel_basis_mod(matrix, len(domain), modulus)
        dense = densify(kernel, len(domain))
        blocks = [(beta, b) for beta, b in oracle.blocks.items() if b.weight == w]
        # The Hermite form is unique, so the weight's kernel is the union of
        # its blocks' kernels, each row padded out with zeros.
        padded = []
        for beta, block in blocks:
            # A canonical block lists its monomials in the coproduct's order;
            # a view lists them in its canonical block's order, relabeled.
            members = [m for m in domain if fold_degree(m, rank) == beta]
            assert (block.domain if block.canonical == beta else sorted(block.domain, key=index.get)) == members
            for row in dense_kernel(block):
                full = [0] * len(domain)
                for m, c in zip(block.domain, row):
                    full[index[m]] = c
                padded.append(full)
        assert sorted(dense) == sorted(padded)
        products = [u * v for u, v in factor_pairs(elements, w)]
        for uv in [*products, *(from_terms(co.spec, dict(zip(domain, row))) for row in dense)]:
            assert len({fold_degree(m, rank) for m in uv.terms}) <= 1, uv
        rows = [solve_in_lattice(kernel, coordinates(uv, index)) for uv in products]
        if modulus:
            rows += [solve_in_lattice(kernel, [modulus * (i == j) for i in range(len(domain))])
                     for j in range(len(domain))]
        assert oracle.factors(w) == cokernel_factors(len(kernel), rows, ZZ)
        # The block relations assembled block-diagonally over the whole weight.
        assembled, offset, width = [], 0, sum(len(b.kernel) for _, b in blocks)
        for _, block in blocks:
            relations = densify(block.relations, len(block.kernel))
            assembled += [[0] * offset + row + [0] * (width - offset - len(row)) for row in relations]
            offset += len(block.kernel)
        assert oracle.factors(w) == cokernel_factors(width, assembled, ZZ)
        elements[w] = [from_terms(co.spec, dict(zip(domain, row))) for row in dense]
    # A kernel element of one block reads back in that block; a sum over two
    # blocks meets both, and its coordinates are refused, naming them.
    rng = random.Random(5)
    betas = list(oracle.blocks)
    for _ in range(20):
        parts = []
        for beta in rng.sample(betas, 2):
            kernel = dense_kernel(oracle.blocks[beta])
            coeffs = [rng.randint(-3, 3) for _ in kernel]
            row = [sum(c * r[j] for c, r in zip(coeffs, kernel)) for j in range(len(kernel[0]))]
            part = kernel_element(oracle, beta, enumerate(row))
            if not modulus:
                assert oracle.to_kernel_coords(part) == ((beta, coeffs) if any(coeffs) else (None, []))
            parts.append((beta, part))
        (beta_u, u), (beta_v, v) = parts
        if u.terms and v.terms:
            with pytest.raises(ValueError, match="meets blocks") as refused:
                oracle.to_kernel_coords(u + v)
            assert str(beta_u) in str(refused.value) and str(beta_v) in str(refused.value)


def all_pairs_relations(oracle):
    """The reference for I^2, block by block: the distinct kernel coordinates
    of every nonzero product of two kernel rows, over unordered pairs of
    weights summing to w (lighter factor first), each solved in the block of
    its fold degree; over Z/m the rows of m Z^B follow.  Returns
    (beta -> those rows, the number of products)."""
    spec = oracle.spec
    truncation, rank, modulus = spec.truncation, spec.generator_count, spec.ring.modulus
    by_weight = {w: [] for w in range(1, truncation)}
    for beta, block in oracle.blocks.items():
        if block.weight < truncation:
            by_weight[block.weight] += [kernel_element(oracle, beta, enumerate(row)) for row in dense_kernel(block)]
    rows = {beta: [] for beta in oracle.blocks}
    products = 0
    for w in range(2, truncation + 1):
        for u, v in factor_pairs(by_weight, w):
            uv = u * v
            if uv.is_zero():
                continue
            beta = fold_degree(next(iter(uv.terms)), rank)
            block = oracle.blocks[beta]
            coords = solve_in_lattice(block.kernel, coordinates(uv, block.index))
            assert coords is not None
            rows[beta].append(tuple(coords))
            products += 1
    for beta, block in oracle.blocks.items():
        n = len(block.domain)
        if modulus:
            rows[beta] += [
                tuple(solve_in_lattice(block.kernel, [modulus * (i == j) for i in range(n)])) for j in range(n)
            ]
        rows[beta] = list(dict.fromkeys(rows[beta]))
    return rows, products


def assert_relations_match_all_pairs(oracle):
    # The Hermite form is unique, so equal relations state that J * I and the
    # all-pairs products span the same lattice in every block.
    reference, products = all_pairs_relations(oracle)
    for beta, block in oracle.blocks.items():
        assert block.relations == hermite_form(reference[beta], len(block.kernel)), beta
        assert block.factors == cokernel_factors(len(block.kernel), reference[beta], ZZ), beta
    return products


BLOCK_SETTINGS = [
    (1, 8, None), (2, 5, None), (3, 4, None), (2, 6, (1, 2)), (4, 5, None), (3, 6, (1, 1, 2)), (2, 9, (2, 3)),
]


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6), Ring(9)], ids=["Z", "Z/4", "Z/6", "Z/9"])
@pytest.mark.parametrize("rank, truncation, weights", BLOCK_SETTINGS)
def test_block_rows_match_products_of_kernel_elements(rank, truncation, weights, ring):
    # The oracle spans I^2 = J * I from j = gamma_n(y_i) - gamma_n(x_i) times
    # kernel rows; the reference multiplies every pair of kernel rows as
    # coproduct elements.  A view shares its canonical block's relations, and
    # is checked against its own products.  An oracle whose J table drops
    # the binomial of gamma_n(y_i) m, or skips n = 1 or n = 2, fails here;
    # skipping n = 6 would not, as the C(6, a), 0 < a < 6, have gcd 1.
    products = assert_relations_match_all_pairs(OmegaOracle(free_spec(ring, rank, truncation, weights=weights)))
    assert products > 0


VIEW_SETTINGS = [
    (4, 4, None, ZZ),
    (4, 4, None, Ring(4)),
    (3, 5, (1, 1, 2), ZZ),
    (3, 5, (1, 1, 2), Ring(6)),
    (4, 5, (1, 1, 2, 2), Ring(4)),
    (4, 5, (1, 1, 2, 2), Ring(6)),
]


@pytest.mark.parametrize("rank, truncation, weights, ring", VIEW_SETTINGS)
def test_class_views_match_directly_built_blocks(rank, truncation, weights, ring):
    # Each view is built here as every block was before exponent classes:
    # its fold row through dp_map_apply on its own domain, its kernel by
    # kernel_basis_mod, and its I^2 rows by solving the products of kernel
    # elements that land in it.  All must equal what the view shares with its
    # canonical block.
    spec = free_spec(ring, rank, truncation, weights=weights)
    oracle = OmegaOracle(spec)
    co, modulus = oracle.coproduct, ring.modulus
    images = [gamma_gen(spec, i % rank, 1) for i in range(2 * rank)]
    views = {beta: block for beta, block in oracle.blocks.items() if block.canonical != beta}
    assert views
    kernels = {}
    for beta, block in views.items():
        assert exponent_class(beta, spec.weights)[0] == block.canonical
        row = [coordinates(dp_map_apply(images, from_terms(co.spec, {m: 1})), {beta: 0})[0] for m in block.domain]
        kernels[beta] = kernel_basis_mod([row], len(block.domain), modulus)
        # The fold row has 1 at y^beta, so t_i = -c_i, reduced mod m over Z/m.
        assert block.last == [-c % modulus if modulus else -c for c in row[:-1]] + [modulus] * bool(modulus), beta
        assert block.kernel == kernels[beta], beta
    elements = {w: [] for w in range(1, truncation)}
    for beta, block in oracle.blocks.items():
        if block.weight < truncation:
            elements[block.weight] += [kernel_element(oracle, beta, enumerate(row)) for row in dense_kernel(block)]
    rows = {beta: [] for beta in views}
    for w in range(2, truncation + 1):
        for u, v in factor_pairs(elements, w):
            uv = u * v
            beta = fold_degree(next(iter(uv.terms)), rank) if uv.terms else None
            if beta in views:
                rows[beta].append(solve_in_lattice(kernels[beta], coordinates(uv, views[beta].index)))
    for beta, block in views.items():
        n = len(block.domain)
        if modulus:
            rows[beta] += [solve_in_lattice(kernels[beta], [modulus * (i == j) for i in range(n)]) for j in range(n)]
        assert None not in rows[beta], beta
        distinct = list(dict.fromkeys(map(tuple, rows[beta])))
        assert block.relations == hermite_form(distinct, len(block.kernel)), beta
        assert block.factors == cokernel_factors(len(block.kernel), distinct, ZZ), beta


@pytest.mark.parametrize("ring", [ZZ, Ring(6)], ids=["Z", "Z/6"])
def test_zero_lies_in_no_block(ring):
    oracle = OmegaOracle(free_spec(ring, 2, 4))
    zero = from_terms(oracle.coproduct.spec, {})
    assert oracle.to_kernel_coords(zero) == (None, [])
    assert oracle.class_is_zero(zero)


def test_exponent_class_orders_exponents_within_each_weight():
    weights = (1, 2, 1, 2, 1)
    # Weight 1 holds generators 0, 2, 4; weight 2 holds 1 and 3.
    canonical, stands_for = exponent_class(((2, 3), (3, 1), (4, 3)), weights)
    assert canonical == ((0, 3), (1, 1), (2, 3))
    assert stands_for == [2, 3, 4, 1, 0]
    assert exponent_class(canonical, weights) == (canonical, list(range(5)))


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=["Z", "Z/4", "Z/6"])
def test_kernel_coords_are_the_projection(ring):
    # On kernel vectors the projection returns the coordinates of the
    # triangular solve; a vector off the kernel is refused.
    _, blocks = fold_kernel(free_spec(ring, 3, 5, weights=(1, 1, 2)))
    rng = random.Random(8)
    for beta, block in blocks.items():
        n = len(block.domain)
        for _ in range(5):
            coeffs = [rng.randint(-9, 9) for _ in block.kernel]
            vec = [sum(c * row[j] for c, row in zip(coeffs, dense_kernel(block))) for j in range(n)]
            assert _kernel_coords(block, dict(enumerate(vec))) == solve_in_lattice(block.kernel, vec), beta
            vec[-1] += 1  # the fold row has coefficient 1 at y^beta
            assert solve_in_lattice(block.kernel, vec) is None
            with pytest.raises(ValueError, match="fold kernel"):
                _kernel_coords(block, dict(enumerate(vec)))


def test_fold_kernel_refuses_a_kernel_of_another_shape(monkeypatch):
    # Twice the kernel spans a sublattice whose Hermite basis has pivots 2,
    # so projection would misread it; fold_kernel must refuse it.
    kernel_basis_mod = oracle_module.kernel_basis_mod

    def doubled(rows, ncols, modulus):
        basis = kernel_basis_mod(rows, ncols, modulus)
        return HermiteBasis([[2 * x for x in row] for row in basis], basis.supports)

    monkeypatch.setattr(oracle_module, "kernel_basis_mod", doubled)
    for ring in (ZZ, Ring(6)):
        with pytest.raises(ValueError, match="fold kernel"):
            fold_kernel(free_spec(ring, 2, 3))


@pytest.mark.parametrize("ring", [ZZ, Ring(4), Ring(6)], ids=["Z", "Z/4", "Z/6"])
@pytest.mark.parametrize("rank, truncation, weights", BLOCK_SETTINGS)
def test_indecomposable_orders_are_the_smith_form_of_each_block(rank, truncation, weights, ring):
    # Each monomial m of A is a one-column block of A/A^2; its relation rows
    # are the coefficients on m of the products of two basis monomials.
    spec = free_spec(ring, rank, truncation, weights=weights)
    orders = indecomposable_orders(spec)
    monomials = basis_up_to(spec)
    rows = {m: [] for m in monomials}
    for i, x in enumerate(monomials):
        for y in monomials[i:]:
            for m, c in (from_terms(spec, {x: 1}) * from_terms(spec, {y: 1})).terms.items():
                rows[m].append([c])
    assert [m for w in range(1, truncation + 1) for m in orders[w]] == monomials
    for m in monomials:
        order = orders[spec.monomial_weight(m)][m]
        assert cokernel_factors(1, rows[m], ring) == (() if order == 1 else (order,)), m
    assert any(orders[w][m] not in (0, 1, ring.modulus) for w in orders for m in orders[w])


@pytest.mark.parametrize(
    "rank, truncation, ring", [(2, 9, ZZ), (2, 8, Ring(6)), (3, 6, ZZ), (4, 5, Ring(6)), (2, 12, ZZ)]
)
def test_main_theorem_at_larger_settings(rank, truncation, ring):
    report = verify_main_theorem(free_spec(ring, rank, truncation))
    assert report.passed, report.summary()


def test_main_theorem_at_rank4_n8():
    report = verify_main_theorem(free_spec(ZZ, 4, 8))
    assert report.passed, report.summary()
    assert len(report.records) == 8618


def test_main_theorem_at_rank3_n10():
    report = verify_main_theorem(free_spec(ZZ, 3, 10))
    assert report.passed, report.summary()
    assert len(report.records) == 5787


def test_main_theorem_at_rank2_n16():
    report = verify_main_theorem(free_spec(ZZ, 2, 16))
    assert report.passed, report.summary()
    assert len(report.records) == 4028


def test_main_theorem_at_rank3_n12():
    report = verify_main_theorem(free_spec(ZZ, 3, 12))
    assert report.passed, report.summary()
    assert len(report.records) == 12714
