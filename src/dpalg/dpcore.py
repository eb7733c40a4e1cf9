"""Weight-truncated free divided power algebras on finitely many generators.

Elements are finite linear combinations of divided-power monomials

    gamma_{e_1}(x_{i_1}) * ... * gamma_{e_r}(x_{i_r}),   i_1 < ... < i_r,

with at least one factor (the algebras are non-unital).  A monomial is stored
as a tuple of (generator, exponent) pairs and has weight sum(e * w_gen).  The
truncation N quotients by the ideal of weight > N, so every operation is
finite; products and divided powers never lower weight, which makes dropping
overweight terms sound.

>>> spec = AlgebraSpec(ZZ, (1, 1), 8)
>>> x, y = gamma_gen(spec, 0, 1), gamma_gen(spec, 1, 1)
>>> print(gamma_gen(spec, 0, 2) * gamma_gen(spec, 0, 3))
10*g5(x1)
>>> print(x * x)
2*g2(x1)
>>> print(divided_power(2, x + y))
g2(x1) + x1*x2 + g2(x2)
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .coeff import Ring, ZZ, gamma_compose_coeff
from .report import CheckReport


@dataclass(frozen=True)
class AlgebraSpec:
    """Free DP algebra on len(weights) generators, truncated above weight N."""

    ring: Ring
    weights: tuple
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ValueError("need at least one generator")
        if any(w < 1 for w in self.weights):
            raise ValueError("generator weights must be positive")
        if self.truncation < max(self.weights):
            raise ValueError("truncation below a generator weight")

    @property
    def generator_count(self):
        return len(self.weights)

    def monomial_weight(self, mono):
        return sum(e * self.weights[i] for i, e in mono)


def free_spec(ring, generators, truncation, weights=None):
    if weights is None:
        weights = (1,) * generators
    return AlgebraSpec(ring, tuple(weights), truncation)


def mono_mul(a, b):
    """Merge two monomials; returns (integer coefficient, merged monomial).

    Shared generators collapse by gamma_e * gamma_f = C(e+f, e) gamma_{e+f}.
    """
    coeff = 1
    merged = []
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        ga, ea = a[ia]
        gb, eb = b[ib]
        if ga < gb:
            merged.append(a[ia])
            ia += 1
        elif gb < ga:
            merged.append(b[ib])
            ib += 1
        else:
            coeff *= comb(ea + eb, ea)
            merged.append((ga, ea + eb))
            ia += 1
            ib += 1
    merged.extend(a[ia:])
    merged.extend(b[ib:])
    return coeff, tuple(merged)


def monomial_sort_key(spec, mono):
    """(weight, then exponent vectors in descending lexicographic order)."""
    exponents = [0] * spec.generator_count
    for i, e in mono:
        exponents[i] = e
    return (spec.monomial_weight(mono), tuple(-e for e in exponents))


class DPElement:
    """An element of a truncated free DP algebra, in canonical form."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        self.spec = spec
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = spec.ring.normalize(c)
                if c != 0 and spec.monomial_weight(mono) <= spec.truncation:
                    self.terms[mono] = c

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Max weight of a term (None for 0)."""
        if not self.terms:
            return None
        return max(self.spec.monomial_weight(m) for m in self.terms)

    def _require_same(self, other):
        if self.spec != other.spec:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        ring = self.spec.ring
        for mono, c in other.terms.items():
            s = ring.add(out.get(mono, 0), c)
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return self._raw(self.spec, out)

    def __neg__(self):
        ring = self.spec.ring
        return self._raw(self.spec, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        ring = self.spec.ring
        scalar = ring.normalize(scalar)
        out = {}
        for mono, c in self.terms.items():
            s = ring.mul(c, scalar)
            if s != 0:
                out[mono] = s
        return self._raw(self.spec, out)

    def __mul__(self, other):
        self._require_same(other)
        spec = self.spec
        ring = spec.ring
        cap = spec.truncation
        out = {}
        for ma, ca in self.terms.items():
            wa = spec.monomial_weight(ma)
            for mb, cb in other.terms.items():
                if wa + spec.monomial_weight(mb) > cap:
                    continue
                binom, mono = mono_mul(ma, mb)
                c = ring.normalize(ca * cb * binom)
                if c == 0:
                    continue
                s = ring.add(out.get(mono, 0), c)
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return self._raw(spec, out)

    def __eq__(self, other):
        return (
            isinstance(other, DPElement)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_sort_key(self.spec, kv[0]))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<DPElement {self}>"

    @classmethod
    def _raw(cls, spec, terms):
        el = object.__new__(cls)
        el.spec = spec
        el.terms = terms
        return el


def zero(spec):
    return DPElement(spec)


def from_terms(spec, terms):
    return DPElement(spec, dict(terms))


def gamma_gen(spec, gen, n):
    """The basis element gamma_n(x_gen); zero when it falls past the truncation."""
    if n < 1:
        raise ValueError("divided power index must be >= 1")
    if not 0 <= gen < spec.generator_count:
        raise ValueError(f"no generator {gen}")
    return DPElement(spec, {((gen, n),): 1})


def _gamma_monomial(j, mono):
    """(integer coefficient, monomial) with gamma_j(mono) = coeff * monomial.

    Peels the first factor: gamma_j(gamma_e(x) * m') = gamma_e(x)^j *
    gamma_j(m'), the power being what repeated application of the product
    rule yields.
    """
    gen, e = mono[0]
    if len(mono) == 1:
        return gamma_compose_coeff(j, e), ((gen, j * e),)
    power_coeff = 1
    for s in range(1, j):
        power_coeff *= comb((s + 1) * e, e)
    rest_coeff, rest = _gamma_monomial(j, mono[1:])
    return power_coeff * rest_coeff, ((gen, j * e),) + rest


def divided_power(n, element):
    """gamma_n of an arbitrary element, by multinomial expansion over its terms."""
    if n < 1:
        raise ValueError("divided power index must be >= 1")
    if n == 1:
        return element
    spec = element.spec
    ring = spec.ring
    cap = spec.truncation
    term_list = element.sorted_terms()
    weights = [spec.monomial_weight(m) for m, _ in term_list]
    out = {}

    def assign(k, left, coeff, mono, weight):
        if weight > cap:
            return
        if k == len(term_list):
            if left == 0:
                c = ring.normalize(coeff)
                if c:
                    s = ring.add(out.get(mono, 0), c)
                    if s == 0:
                        out.pop(mono, None)
                    else:
                        out[mono] = s
            return
        mono_k, c_k = term_list[k]
        upper = min(left, (cap - weight) // weights[k])
        for nk in range(0, upper + 1):
            if k == len(term_list) - 1 and nk != left:
                continue
            if nk == 0:
                assign(k + 1, left, coeff, mono, weight)
                continue
            gcoeff, gmono = _gamma_monomial(nk, mono_k)
            binom, merged = mono_mul(mono, gmono)
            assign(
                k + 1,
                left - nk,
                coeff * gcoeff * binom * ring.pow(c_k, nk),
                merged,
                weight + nk * weights[k],
            )

    assign(0, n, 1, (), 0)
    return DPElement._raw(spec, out)


def weight_components(element):
    """Split by monomial weight; the values sum back to the element."""
    spec = element.spec
    buckets = {}
    for mono, c in element.terms.items():
        buckets.setdefault(spec.monomial_weight(mono), {})[mono] = c
    return {w: DPElement._raw(spec, terms) for w, terms in sorted(buckets.items())}


@lru_cache(maxsize=None)
def basis_of_weight(spec, weight):
    """All monomials of exactly this weight, in the canonical order."""
    if not 1 <= weight <= spec.truncation:
        raise ValueError(f"weight {weight} outside 1..{spec.truncation}")
    found = []

    def build(gen, remaining, prefix):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        if gen == spec.generator_count:
            return
        w = spec.weights[gen]
        build(gen + 1, remaining, prefix)
        for e in range(1, remaining // w + 1):
            build(gen + 1, remaining - e * w, prefix + [(gen, e)])

    build(0, weight, [])
    found.sort(key=lambda m: monomial_sort_key(spec, m))
    return found


def basis_up_to(spec, cap=None):
    """Monomials of every weight 1..cap, ordered by (weight, monomial order)."""
    cap = spec.truncation if cap is None else cap
    out = []
    for w in range(1, cap + 1):
        out.extend(basis_of_weight(spec, w))
    return out


def position_index(monomials):
    """Monomial -> position in ``monomials``, built once per basis."""
    return {m: i for i, m in enumerate(monomials)}


def coordinates(element, index):
    """Coefficient vector of ``element`` over a basis given by its ``position_index``."""
    vec = [0] * len(index)
    for mono, c in element.terms.items():
        vec[index[mono]] = c
    return vec


def dp_map_apply(images, element):
    """Apply the DP map sending generator i to images[i] (freeness)."""
    if len(images) != element.spec.generator_count:
        raise ValueError("one image per source generator required")
    target = images[0].spec
    if any(im.spec != target for im in images):
        raise ValueError("images live in different algebras")
    if target.ring != element.spec.ring:
        raise ValueError("ring mismatch")
    result = zero(target)
    for mono, c in element.terms.items():
        product = None
        for gen, e in mono:
            factor = divided_power(e, images[gen])
            product = factor if product is None else product * factor
            if product.is_zero():
                break
        result = result + product.scale(c)
    return result


def format_monomial(mono):
    parts = []
    for gen, e in mono:
        parts.append(f"x{gen + 1}" if e == 1 else f"g{e}(x{gen + 1})")
    return "*".join(parts)


def format_element(element):
    """Canonical text form; parses back to the same element."""
    if element.is_zero():
        return "0"
    ring = element.spec.ring
    pieces = []
    for mono, c in element.sorted_terms():
        if ring.modulus == 0 and c < 0:
            sign, mag = " - ", -c
        else:
            sign, mag = " + ", c
        body = format_monomial(mono)
        if mag != 1:
            body = f"{mag}*{body}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == " - " else "") + first_body
    for sign, body in pieces[1:]:
        text += sign + body
    return text


def random_element(spec, rng, max_terms=3, coeff_bound=9, max_weight=None):
    """A small random element; term monomials drawn uniformly per weight."""
    cap = spec.truncation if max_weight is None else min(max_weight, spec.truncation)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        w = rng.randint(1, cap)
        mono = rng.choice(basis_of_weight(spec, w))
        c = rng.randint(-coeff_bound, coeff_bound)
        terms[mono] = terms.get(mono, 0) + c
    return DPElement(spec, terms)


def dp_axiom_report(ring, sample, gamma, samples, seed, max_index=5, title=None):
    """Randomized check of the five divided-power axiom families.

    ``sample(rng)`` draws an element and ``gamma(n, a)`` is the divided power;
    elements support ``+``, ``*``, ``.scale`` and ``str``.  So the same suite
    runs on algebra elements, on semidirect extensions A (+) M and on direct
    products.
    """
    import random

    rng = random.Random(seed)
    report = CheckReport(title or f"DP axioms ({samples} samples, seed {seed})")

    def power(a, n):
        result = a
        for _ in range(n - 1):
            result = result * a
        return result

    for _ in range(samples):
        a = sample(rng)
        b = sample(rng)
        r = ring.normalize(rng.randint(-9, 9))
        n = rng.randint(1, max_index)
        m = rng.randint(1, max_index)
        ctx = f"a={a}, b={b}, r={r}, n={n}, m={m}"

        report.check("gamma_1 = id", gamma(1, a), a, ctx)

        # ambient algebra laws (the Definition presupposes them)
        report.check("mul is commutative", a * b, b * a, ctx)
        report.check(
            "mul distributes over addition",
            a * (b + gamma(n, b)),
            a * b + a * gamma(n, b),
            ctx,
        )

        lhs = gamma(n, a + b)
        rhs = gamma(n, a) + gamma(n, b) if n > 1 else a + b
        if n > 1:
            for i in range(1, n):
                rhs = rhs + gamma(i, a) * gamma(n - i, b)
        report.check("gamma_n(a+b) addition rule", lhs, rhs, ctx)

        lhs = gamma(n, a * b)
        rhs = power(a, n) * gamma(n, b) if n > 1 else a * b
        report.check("gamma_n(ab) = a^n gamma_n(b)", lhs, rhs, ctx)

        lhs = gamma(n, b.scale(r))
        rhs = gamma(n, b).scale(ring.pow(r, n))
        report.check("gamma_n(rb) = r^n gamma_n(b)", lhs, rhs, ctx)

        lhs = gamma(m, a) * gamma(n, a)
        rhs = gamma(m + n, a).scale(ring.normalize(comb(m + n, m)))
        report.check("product rule gamma_m gamma_n", lhs, rhs, ctx)

        lhs = gamma(m, gamma(n, a))
        rhs = gamma(m * n, a).scale(ring.normalize(gamma_compose_coeff(m, n)))
        report.check("composition rule gamma_m(gamma_n)", lhs, rhs, ctx)

    return report
