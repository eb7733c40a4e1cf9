"""Beck modules as finite action tables, and semidirect extensions A (+) M.

A UModule is a left U(A)-module on an explicit finite basis: per-basis
annihilators (0 = free cyclic summand), one integer matrix per algebra basis
monomial, and one matrix per prime p for the phi_p operator.  phi_p is
additive and p-semilinear; semilinearity is enforced structurally by raising
coordinates to the p-th power before the matrix is applied, so
phi_p(r x) = r^p phi_p(x) holds by construction.

The semidirect product A (+) M carries the multiplication
(a, x)(b, y) = (ab, ay + bx) and divided powers

    gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i+j=n} gamma_i(a) phi_j(x)),

which make it a DP algebra precisely when the action tables form a genuine
U(A)-module; verify_beck_axioms exercises that through the generic axiom
suite.
"""

import random

from .coeff import gamma_compose_coeff, primes_up_to
from .dpcore import divided_power, dp_axiom_report, from_terms, random_element
from .envelope import (
    UNIT,
    phi_coefficient_modulus,
    phi_degree,
    phi_of,
    u0_basis_up_to,
)
from .report import CheckReport


def _matrix(rows):
    return tuple(tuple(r) for r in rows)


def zero_matrix(n):
    return tuple((0,) * n for _ in range(n))


class UModule:
    """Finitely generated U(A)-module given by basis and action tables."""

    def __init__(self, spec, annihilators, a_action=None, phi_action=None):
        self.spec = spec
        self.annihilators = tuple(annihilators)
        self.moduli = tuple(spec.ring.effective_annihilator(d) for d in self.annihilators)
        self.a_action = {m: _matrix(mat) for m, mat in (a_action or {}).items()}
        self.phi_action = {p: _matrix(mat) for p, mat in (phi_action or {}).items()}

    @property
    def rank(self):
        return len(self.annihilators)

    def reduce(self, vec):
        return tuple(v % d if d else v for v, d in zip(vec, self.moduli))

    def zero_vec(self):
        return (0,) * self.rank

    def unit_vec(self, i):
        return self.reduce(tuple(int(j == i) for j in range(self.rank)))

    def add_vec(self, x, y):
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def neg_vec(self, x):
        return self.reduce(tuple(-a for a in x))

    def scale_vec(self, c, x):
        return self.reduce(tuple(c * a for a in x))

    def _apply(self, matrix, vec):
        return self.reduce(tuple(sum(row[j] * vec[j] for j in range(self.rank)) for row in matrix))

    def act_monomial(self, mono, vec):
        matrix = self.a_action.get(mono)
        return self._apply(matrix, vec) if matrix is not None else self.zero_vec()

    def act(self, a, vec):
        out = self.zero_vec()
        for mono, c in a.terms.items():
            out = self.add_vec(out, self.scale_vec(c, self.act_monomial(mono, vec)))
        return out

    def phi_p(self, p, vec):
        matrix = self.phi_action.get(p)
        if matrix is None:
            return self.zero_vec()
        powered = tuple(v**p for v in vec)
        return self._apply(matrix, powered)

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

    def random_vec(self, rng, bound=9):
        return self.reduce(tuple(rng.randint(-bound, bound) for _ in range(self.rank)))

    def _matrix_is_zero(self, matrix):
        return all(
            v % d == 0 if d else v == 0
            for row, d in zip(matrix, self.moduli)
            for v in row
        )

    def _matrix_mul(self, a, b):
        n = self.rank
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            acc = out[i]
            for k, v in enumerate(a[i]):
                if v:
                    brow = b[k]
                    for j, w in enumerate(brow):
                        if w:
                            acc[j] += v * w
        return tuple(tuple(r) for r in out)

    def _matrix_diff(self, a, b):
        return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def _column_killed(self, matrix, j, factor):
        return all(
            (factor * row[j]) % d == 0 if d else factor * row[j] == 0
            for row, d in zip(matrix, self.moduli)
        )

    def validate(self):
        """Structural invariants of a U(A)-module presentation."""
        report = CheckReport(f"UModule structure (rank {self.rank} over {self.spec.ring})")
        # Well-definedness: each action must kill what the source coordinate's
        # annihilator kills.  For phi_p the coordinate enters through its p-th
        # power, so sources with annihilator prime to p must map to zero.
        for mono, matrix in sorted(self.a_action.items()):
            for j, d in enumerate(self.moduli):
                if d:
                    report.check(
                        "a_action defined on torsion coordinates",
                        self._column_killed(matrix, j, d),
                        True,
                        context=f"monomial {mono}, coordinate {j}",
                    )
        for p, matrix in sorted(self.phi_action.items()):
            for j, d in enumerate(self.moduli):
                if d and d % p != 0:
                    report.check(
                        f"phi_p vanishes off p-torsion sources (p={p})",
                        self._column_killed(matrix, j, 1),
                        True,
                        context=f"coordinate {j} (annihilator {d})",
                    )
        for p, matrix in sorted(self.phi_action.items()):
            scaled = tuple(tuple(p * v for v in row) for row in matrix)
            report.check(f"p*phi_p = 0 (p={p})", self._matrix_is_zero(scaled), True)
            for mono, amat in sorted(self.a_action.items()):
                composite = self._matrix_mul(matrix, amat)
                report.check(
                    f"phi_p annihilates A-multiples (p={p})",
                    self._matrix_is_zero(composite),
                    True,
                    context=f"monomial {mono}",
                )
            for q, qmat in sorted(self.phi_action.items()):
                if q != p:
                    composite = self._matrix_mul(matrix, qmat)
                    report.check(
                        f"phi_p phi_q = 0 (p={p}, q={q})",
                        self._matrix_is_zero(composite),
                        True,
                    )
        for mono_a, mat_a in sorted(self.a_action.items()):
            for mono_b, mat_b in sorted(self.a_action.items()):
                product = from_terms(self.spec, {mono_a: 1}) * from_terms(self.spec, {mono_b: 1})
                expected = zero_matrix(self.rank)
                for mono, c in product.terms.items():
                    table = self.a_action.get(mono, zero_matrix(self.rank))
                    expected = tuple(
                        tuple(x + c * y for x, y in zip(re, rt)) for re, rt in zip(expected, table)
                    )
                report.check(
                    "a_action respects products",
                    self._matrix_is_zero(self._matrix_diff(self._matrix_mul(mat_a, mat_b), expected)),
                    True,
                    context=f"{mono_a} * {mono_b}",
                )
        return report


class SemidirectElement:
    """An element (a, x) of the square-zero extension A (+) M."""

    __slots__ = ("module", "a", "x")

    def __init__(self, module, a, x):
        self.module = module
        self.a = a
        self.x = module.reduce(x)

    def _require_same(self, other):
        if self.module is not other.module:
            raise ValueError("elements live over different modules")

    def __add__(self, other):
        self._require_same(other)
        return SemidirectElement(self.module, self.a + other.a, self.module.add_vec(self.x, other.x))

    def __neg__(self):
        return SemidirectElement(self.module, -self.a, self.module.neg_vec(self.x))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return SemidirectElement(self.module, self.a.scale(c), self.module.scale_vec(c, self.x))

    def __mul__(self, other):
        self._require_same(other)
        mod = self.module
        cross = mod.add_vec(mod.act(self.a, other.x), mod.act(other.a, self.x))
        return SemidirectElement(mod, self.a * other.a, cross)

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
    """gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i+j=n} gamma_i(a) phi_j(x))."""
    if n < 1:
        raise ValueError("divided power index must be >= 1")
    if n == 1:
        return u
    mod = u.module
    vec = mod.phi_n(n, u.x)
    for i in range(1, n):
        phi_jx = mod.phi_n(n - i, u.x)
        vec = mod.add_vec(vec, mod.act(divided_power(i, u.a), phi_jx))
    return SemidirectElement(mod, divided_power(n, u.a), vec)


def verify_beck_axioms(module, samples=200, seed=0, max_index=6):
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
        max_index,
        title=f"Beck module axioms over {module.spec.ring} (rank {module.rank})",
    )


def verify_abelian_structure(module, samples=200, seed=0, max_index=12, gamma_override=None):
    """Check the structure laws of an abelian DP algebra given by phi-tables.

    The module is read as a trivial-product DP algebra with gamma_n = phi_n.
    ``gamma_override`` (a dict n -> vector map) replaces individual operations
    and exists for negative controls.
    """
    mod = module
    overrides = gamma_override or {}

    def gamma(n, vec):
        if n in overrides:
            return overrides[n](vec)
        return mod.phi_n(n, vec)

    rng = random.Random(seed)
    report = CheckReport(f"abelian DP structure (rank {mod.rank} over {mod.spec.ring})")
    primes = primes_up_to(max_index)
    prime_powers = {n for n in range(2, max_index + 1) if phi_of(n) is not None}
    for _ in range(samples):
        x = mod.random_vec(rng)
        y = mod.random_vec(rng)
        r = mod.spec.ring.normalize(rng.randint(-9, 9))
        for n in range(2, max_index + 1):
            if n not in prime_powers:
                report.check(
                    "gamma_n = 0 unless n is a prime power",
                    gamma(n, x),
                    mod.zero_vec(),
                    context=f"n={n}, x={x}",
                )
        for p in primes:
            report.check(
                "gamma_p is additive",
                gamma(p, mod.add_vec(x, y)),
                mod.add_vec(gamma(p, x), gamma(p, y)),
                context=f"p={p}",
            )
            report.check(
                "p gamma_p = 0",
                mod.scale_vec(p, gamma(p, x)),
                mod.zero_vec(),
                context=f"p={p}, x={x}",
            )
            report.check(
                "gamma_p(r a) = r^p gamma_p(a)",
                gamma(p, mod.scale_vec(r, x)),
                mod.scale_vec(mod.spec.ring.pow(r, p), gamma(p, x)),
                context=f"p={p}, r={r}",
            )
            e = 2
            while p**e <= max_index:
                iterated = x
                for _ in range(e):
                    iterated = gamma(p, iterated)
                report.check(
                    "gamma_{p^e} = gamma_p^e",
                    gamma(p**e, x),
                    iterated,
                    context=f"p={p}, e={e}",
                )
                e += 1
            if p * p <= max_index:
                coeff = mod.spec.ring.normalize(gamma_compose_coeff(p, p))
                report.check(
                    "composition coefficient acts as 1 (Cartan)",
                    mod.scale_vec(coeff, gamma(p * p, x)),
                    gamma(p, gamma(p, x)),
                    context=f"p={p}",
                )
        for n in sorted(prime_powers):
            report.check(
                "addition map is a DP map",
                gamma(n, mod.add_vec(x, y)),
                mod.add_vec(gamma(n, x), gamma(n, y)),
                context=f"n={n}",
            )
    return report


def zero_module(spec):
    return UModule(spec, ())


def trivial_module(spec, annihilators):
    """All actions zero; any annihilator pattern is a valid U(A)-module."""
    return UModule(spec, annihilators)


def u0_module(spec, degree_cap):
    """U(0) itself, truncated above ``degree_cap``, as a module with zero A-action."""
    basis = u0_basis_up_to(degree_cap, spec.ring)
    index = {phi: i for i, (phi, _) in enumerate(basis)}
    n = len(basis)
    anns = tuple(ann for _, ann in basis)
    phi_action = {}
    seen_primes = sorted({phi[0] for phi, _ in basis if phi != UNIT})
    for p in seen_primes:
        rows = [[0] * n for _ in range(n)]
        for phi, _ in basis:
            source = index[phi]
            if phi == UNIT:
                target = (p, 1)
            elif phi[0] == p:
                target = (p, phi[1] + 1)
            else:
                continue
            if phi_degree(target) <= degree_cap and phi_coefficient_modulus(spec.ring, p) > 1:
                rows[index[target]][source] = 1
        phi_action[p] = rows
    return UModule(spec, anns, phi_action=phi_action)


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

