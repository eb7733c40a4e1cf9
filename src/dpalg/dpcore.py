"""Weight-truncated free divided power algebras on finitely many generators.

Elements are finite linear combinations of divided-power monomials

    gamma_{e_1}(x_{i_1}) * ... * gamma_{e_r}(x_{i_r}),   i_1 < ... < i_r,

with at least one factor (the algebras are non-unital).  A monomial is stored
as a tuple of (generator, exponent) pairs and has weight sum(e * w_gen).  The
truncation N quotients by the ideal of weight > N, so every operation is
finite; products and divided powers never lower weight, which makes dropping
overweight terms sound.  ``divided_powers(n, a)`` returns gamma_1(a) ...
gamma_n(a), each entry by the recurrence k gamma_k(a) = a gamma_{k-1}(a)
(over Z/m on the Z-lift of a, then reduced), and ``divided_power`` is entry
n; indices past N // (least term weight) are zero and not computed.  An
element keeps the sequence computed for it: a shorter request reads it, and
a longer one extends it from the last kept entry.  Elements are never
changed after construction, so the kept sequence cannot go stale.

>>> spec = AlgebraSpec(ZZ, (1, 1), 8)
>>> x, y = gamma_gen(spec, 0, 1), gamma_gen(spec, 1, 1)
>>> print(gamma_gen(spec, 0, 2) * gamma_gen(spec, 0, 3))
10*g5(x1)
>>> print(x * x)
2*g2(x1)
>>> print(divided_power(2, x + y))
g2(x1) + x1*x2 + g2(x2)
>>> print(*divided_powers(3, x.scale(2)), sep=", ")
2*x1, 4*g2(x1), 8*g3(x1)
"""

from functools import lru_cache
from math import comb

from .coeff import ZZ, gamma_compose_coeff
from .record import FrozenRecord
from .report import CheckReport


class AlgebraSpec(FrozenRecord):
    """Free DP algebra on len(weights) generators, truncated above weight N.

    An immutable, hashable slotted value; ``weights`` is stored as a tuple.
    Equal specs hash equal, the hash computed once, so they share every
    cache keyed on the spec; a spec equals no other type.  ``_weight_of``
    memoizes ``monomial_weight``; equality, hashing and the repr ignore it.
    """

    __slots__ = ("ring", "weights", "truncation", "_weight_of", "_key", "_hash")
    _fields = ("ring", "weights", "truncation")

    def __init__(self, ring, weights, truncation):
        weights = tuple(weights)
        if not weights:
            raise ValueError("need at least one generator")
        if any(w < 1 for w in weights):
            raise ValueError("generator weights must be positive")
        if truncation < max(weights):
            raise ValueError("truncation below a generator weight")
        key = (ring, weights, truncation)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_weight_of", {})
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not AlgebraSpec:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    @property
    def generator_count(self):
        return len(self.weights)

    def monomial_weight(self, mono):
        w = self._weight_of.get(mono)
        if w is None:
            w = self._weight_of[mono] = sum(e * self.weights[i] for i, e in mono)
        return w


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


class SparseElement:
    """A finite combination of keys in canonical form: ``terms`` maps each key
    of weight <= N to its reduced, nonzero coefficient.

    DPElement and ``envelope.UElement`` share this core.  Each supplies
    ``__mul__`` and four hooks: ``_weigh(spec, key)``, ``_reduce(ring, key,
    c)``, ``_sort_key(spec, key)`` and ``_format_key(key)`` (empty for a unit
    key).  Sums re-reduce only where keys collide: both operands are canonical.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        """The canonical form of ``terms``: truncated, reduced, zero-free."""
        self.spec = spec
        self.terms = {}
        if terms:
            weigh, reduce, ring, cap = self._weigh, self._reduce, spec.ring, spec.truncation
            for key, c in terms.items():
                if weigh(spec, key) <= cap:
                    c = reduce(ring, key, c)
                    if c:
                        self.terms[key] = c

    def is_zero(self):
        return not self.terms

    def _require_same(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._require_same(other)
        ring, reduce = self.spec.ring, self._reduce
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                c = reduce(ring, key, out[key] + c)
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return self._raw(self.spec, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        ring, reduce = self.spec.ring, self._reduce
        out = {}
        for key, c in self.terms.items():
            c = reduce(ring, key, c * scalar)
            if c:
                out[key] = c
        return self._raw(self.spec, out)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.spec is other.spec or self.spec == other.spec)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def sorted_terms(self):
        spec, sort_key = self.spec, self._sort_key
        return sorted(self.terms.items(), key=lambda kv: sort_key(spec, kv[0]))

    def __str__(self):
        """Canonical text form; for algebra elements it parses back to the element."""
        if not self.terms:
            return "0"
        signed = self.spec.ring.modulus == 0
        text = ""
        for key, c in self.sorted_terms():
            negative = signed and c < 0
            mag = -c if negative else c
            body = self._format_key(key)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if text:
                text += (" - " if negative else " + ") + body
            else:
                text = ("-" if negative else "") + body
        return text

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"

    @classmethod
    def _raw(cls, spec, terms):
        el = object.__new__(cls)
        el.spec = spec
        el.terms = terms
        return el


def format_monomial(mono):
    parts = []
    for gen, e in mono:
        parts.append(f"x{gen + 1}" if e == 1 else f"g{e}(x{gen + 1})")
    return "*".join(parts)


class DPElement(SparseElement):
    """An element of a truncated free DP algebra, in canonical form; see ``divided_powers``."""

    __slots__ = ("_gammas", "_lift")

    _weigh = staticmethod(AlgebraSpec.monomial_weight)
    _reduce = staticmethod(lambda ring, mono, c: ring.normalize(c))
    _sort_key = staticmethod(monomial_sort_key)
    _format_key = staticmethod(format_monomial)

    def __mul__(self, other):
        self._require_same(other)
        spec = self.spec
        ring = spec.ring
        cap = spec.truncation
        out = {}
        right = [(mb, cb, spec.monomial_weight(mb)) for mb, cb in other.terms.items()]
        for ma, ca in self.terms.items():
            wa = spec.monomial_weight(ma)
            for mb, cb, wb in right:
                if wa + wb > cap:
                    continue
                binom, mono = mono_mul(ma, mb)
                c = ring.normalize(ca * cb * binom)
                if c == 0:
                    continue
                s = ring.normalize(out.get(mono, 0) + c)
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return self._raw(spec, out)


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


def divided_powers(n, element):
    """[gamma_1(a), ..., gamma_n(a)], each entry by k gamma_k(a) = a gamma_{k-1}(a).

    Over Z the division by k is exact, the free DP algebra being torsion
    free.  Over Z/m the sequence is that of the Z-lift of ``a`` (its residues
    read as integers), reduced: base change from Z to Z/m is a DP map, and
    truncation commutes with it.  Truncation commutes with the recurrence as
    well, since products never lower weight.

    A term of gamma_k(a) weighs at least k times the least term weight of
    ``a``, so entries past ``live`` = min(n, N // least) (0 for zero) are zero
    and not computed.  ``a`` keeps its sequence in ``_gammas`` and the Z-lift
    of the last entry in ``_lift`` (over Z, that entry's own dict); equality
    and hashing ignore both.  A request within the kept entries reads them,
    and a longer one extends them in place from the last, so no index is
    computed twice.  gamma_1 is kept as a copy of ``a``, never ``a`` itself,
    so that ``a`` holds no reference to itself.
    """
    if n < 1:
        raise ValueError("divided power index must be >= 1")
    spec = element.spec
    kept = getattr(element, "_gammas", [])
    if n <= len(kept):
        return kept[:n]
    cap = spec.truncation
    weigh = spec.monomial_weight
    live = min(n, cap // min(map(weigh, element.terms), default=cap + 1))
    if len(kept) < live:
        if not kept:
            kept = element._gammas = [DPElement._raw(spec, element.terms)]
            element._lift = element.terms
        modulus = spec.ring.modulus
        factors = list(element.terms.items())
        lift = element._lift
        for k in range(len(kept) + 1, live + 1):
            raw = {}
            for m, v in lift.items():
                room = cap - weigh(m)
                for ma, ca in factors:
                    if weigh(ma) <= room:
                        binom, merged = mono_mul(ma, m)
                        raw[merged] = raw.get(merged, 0) + ca * v * binom
            lift = {m: q for m, c in raw.items() if (q := c // k)}
            terms = {m: r for m, q in lift.items() if (r := q % modulus)} if modulus else lift
            kept.append(DPElement._raw(spec, terms))
        element._lift = lift
    return kept[:n] + [zero(spec)] * (n - len(kept))


def divided_power(n, element):
    """gamma_n of an arbitrary element: entry n of ``divided_powers``.

    A kept entry is read as it is.  Otherwise every term of gamma_n(a) weighs
    at least n times the least term weight of a (zero has none), so past N it
    is zero without building n entries.
    """
    if n == 1:
        return element
    kept = getattr(element, "_gammas", ())
    if 1 < n <= len(kept):
        return kept[n - 1]
    spec = element.spec
    least = min(map(spec.monomial_weight, element.terms), default=spec.truncation + 1)
    if n > 1 and n * least > spec.truncation:
        return zero(spec)
    return divided_powers(n, element)[-1]


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


def basis_up_to(spec):
    """Monomials of every weight 1..N, ordered by (weight, monomial order)."""
    out = []
    for w in range(1, spec.truncation + 1):
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


def random_element(spec, rng, max_terms=3):
    """A small random element; term monomials drawn uniformly per weight,
    coefficients from -9..9.  A weight with no monomial (weights (2, 3) have
    none of weight 1) is drawn again."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while not (monomials := basis_of_weight(spec, rng.randint(1, spec.truncation))):
            pass
        mono = rng.choice(monomials)
        c = rng.randint(-9, 9)
        terms[mono] = terms.get(mono, 0) + c
    return DPElement(spec, terms)


def dp_axiom_report(ring, sample, gamma, samples, seed, max_index=5, title=None):
    """Randomized check of the five divided-power axiom families.

    ``sample(rng)`` draws an element and ``gamma(n, a)`` is the divided power;
    elements support ``+``, ``*``, ``.scale`` and ``str``.  So the same suite
    runs on algebra elements, on semidirect extensions A (+) M and on direct
    products.  Each check gets its sample's context as a callable, so the
    elements are formatted only for a failing check.
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

        def ctx():
            return f"a={a}, b={b}, r={r}, n={n}, m={m}"

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
