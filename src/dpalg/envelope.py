"""U(A) = A_+ (x) U(0) and its free left modules, as one sparse element type.

U(0) is generated over the base ring by operators phi_p, one per prime, with
p*phi_p = 0 and the twist phi_p r = r^p phi_p.  A phi-monomial is the unit
(the empty tuple) or (p, e) standing for phi_p^e; phi-monomials of distinct
primes multiply to zero, so those are the only canonical forms.

A UElement lies in a free left U(A)-module whose basis labels are monomials
of A, a label weighing what the monomial weighs:

- the label () (weight 0) spans U(A) itself;
- ((i, 1),) is dx_i, so these labels span Omega = U(A) (x) V;
- any monomial b is [b], so all monomials span the ambient U(A) (x) A.

The element maps keys (label, phi, amono) to coefficients, the key standing
for (amono (x) phi) (x) [label] with amono None the unit of A_+.  It shares
its canonical form, sums, equality and printing with DPElement
(``dpcore.SparseElement``) and differs in four hooks.  A term weighs
w(amono) + deg(phi) * w(label) and is dropped past the truncation.
Coefficients of phi_p^e are kept in R/p, mod ``Ring.effective_annihilator(p)``
(dropped whenever p is invertible).  Terms sort by label, phi, then amono.
Scalars do not commute past phi-monomials: each coefficient sits on the
left, and products route right-hand scalars through the twist.

U(A) acts by two rules on term dicts, each taking an element homogeneous of
a known weight w to one of known weight: ``twist`` by phi_p^e (weight
p^e * w) keeps the terms with no A_+ part and sends phi-part nu to
phi_p^e * nu, and ``shift`` by a monomial m (weight w + w(m)) multiplies
each A_+ part by m.  ``act_phi`` is a twist, ``act_algebra`` a sum of
shifts, and the product is their composition: a left term c (x) mu acts as
the twist by mu followed by the shift by c.

>>> from dpalg import ZZ, free_spec
>>> spec = free_spec(ZZ, 2, 6)
>>> print(env_phi(spec, 3, scalar=5) - env_unit(spec, 2))
-2 + 2*ph3
"""

from .coeff import prime_power_decomposition, prime_powers_up_to
from .dpcore import SparseElement, format_monomial, mono_mul, monomial_sort_key

UNIT = ()


def phi_of(n):
    """Unit for n = 1, (p, e) for n = p^e, None (the zero operator) otherwise."""
    if n < 1:
        raise ValueError("phi index must be >= 1")
    if n == 1:
        return UNIT
    return prime_power_decomposition(n)


def phi_degree(phi):
    if phi == UNIT:
        return 1
    p, e = phi
    return p**e


def phi_mul(a, b):
    """Product of phi-monomials; None when it vanishes (distinct primes)."""
    if a == UNIT:
        return b
    if b == UNIT:
        return a
    if a[0] != b[0]:
        return None
    return (a[0], a[1] + b[1])


def phi_sort_key(phi):
    return (phi_degree(phi), phi[0] if phi else 0)


def format_phi(phi):
    if phi == UNIT:
        return "1"
    p, e = phi
    return f"ph{p}" if e == 1 else f"ph{p}^{e}"


def term_weight(spec, key):
    """w(amono) + deg(phi) * w(label) of the basis element ``key``."""
    label, phi, amono = key
    base = phi_degree(phi) * spec.monomial_weight(label)
    return base if amono is None else base + spec.monomial_weight(amono)


def format_term(key):
    """amono*phi*label, omitting unit parts; dx_i for the label x_i, d[b] else."""
    label, phi, amono = key
    factors = [] if amono is None else [format_monomial(amono)]
    if phi != UNIT:
        factors.append(format_phi(phi))
    if len(label) == 1 and label[0][1] == 1:
        factors.append(f"dx{label[0][0] + 1}")
    elif label:
        factors.append(f"d[{format_monomial(label)}]")
    return "*".join(factors)


def _reduce_coefficient(ring, key, c):
    """c in R for a unit phi-part, mod ``ring.effective_annihilator(p)`` for phi_p^e."""
    phi = key[1]
    return ring.normalize(c) if phi == UNIT else c % ring.effective_annihilator(phi[0])


def _term_order(spec, key):
    """Terms by label, then phi, then the A_+ part (unit first)."""
    label, phi, amono = key
    return (label, phi_sort_key(phi), (0,) if amono is None else (1, monomial_sort_key(spec, amono)))


def twist(spec, phi, weight, terms):
    """phi * x on the term dict of an x homogeneous of the given weight.

    A term (label, nu, None) goes to (label, phi*nu, None), its coefficient
    read in R/p for phi = phi_p^e, of order ``ring.effective_annihilator(p)``.
    A term with an A_+ part, or with a phi part of another prime, goes to
    zero.  No two images meet, as phi*nu determines nu.  The image weighs
    deg(phi) * weight; returns (that weight, image terms), or None when it
    is past N.
    """
    if phi == UNIT:
        return weight, terms
    weight *= phi_degree(phi)
    if weight > spec.truncation:
        return None
    modulus = spec.ring.effective_annihilator(phi[0])
    out = {}
    for (label, nu, amono), c in terms.items():
        if amono is None and (product := phi_mul(phi, nu)) is not None:
            c %= modulus
            if c:
                out[(label, product, None)] = c
    return weight, out


def shift(spec, mono, weight, terms, products):
    """(mono (x) unit) * x on the term dict of an x homogeneous of the given weight.

    A term (label, nu, d) goes to (label, nu, mono*d) times the binomial of
    ``mono_mul`` (to (label, nu, mono) when d is the unit of A_+; mono None,
    the unit, moves nothing).  No two images meet, as multiplying by mono is
    injective on monomials.  The image weighs weight + w(mono); returns (that
    weight, image terms), or None when it is past N.  ``products`` is the
    caller's dict of ``mono_mul`` results, keyed by (mono, d) and filled as
    they are needed.
    """
    if mono is None:
        return weight, terms
    weight += spec.monomial_weight(mono)
    if weight > spec.truncation:
        return None
    ring = spec.ring
    out = {}
    for (label, nu, d), c in terms.items():
        if d is None:
            out[(label, nu, mono)] = c
            continue
        product = products.get((mono, d))
        if product is None:
            product = products[(mono, d)] = mono_mul(mono, d)
        binom, merged = product
        key = (label, nu, merged)
        if binom != 1:
            c = _reduce_coefficient(ring, key, c * binom)
            if not c:
                continue
        out[key] = c
    return weight, out


class UElement(SparseElement):
    """An element of U(A) or of a free left U(A)-module on monomial labels."""

    __slots__ = ()

    _weigh = staticmethod(term_weight)
    _reduce = staticmethod(_reduce_coefficient)
    _sort_key = staticmethod(_term_order)
    _format_key = staticmethod(format_term)

    def __mul__(self, other):
        """The twisted product of U(A), which is also its action on modules.

        (c (x) unit) * (d (x) nu)      = c*d (x) nu      (product in A_+)
        (c (x) mu)   * ((b, s) (x) nu) = c * s^(p^e) (x) mu*nu = c*s (x) mu*nu

        for mu = phi_p^e, as that coefficient is kept mod p and s^(p^e) = s mod
        p; b is the algebra part and s the scalar part of the A_+ coefficient.
        Phi-monomials of distinct primes multiply to zero.  So a left term
        c (x) mu acts as the twist by mu followed by the shift by c.  The left
        factor must lie in U(A); each right term keeps its label.
        """
        self._require_same(other)
        if any(label for label, _, _ in self.terms):
            raise ValueError("the left factor of a product must lie in U(A)")
        return other._act((mu, mono, c) for (_, mu, mono), c in self.terms.items())

    def _act(self, left):
        """The sum of c * (mono (x) mu) * self over the (mu, mono, c) of ``left``,
        mono None standing for the unit of A_+.  Each term of self is weighed
        once, and the twist and shift carry the weights of its images."""
        spec = self.spec
        pieces = {}
        for key, c in self.terms.items():
            pieces.setdefault(term_weight(spec, key), {})[key] = c
        products, out = {}, {}
        for mu, mono, c in left:
            for weight, piece in pieces.items():
                moved = twist(spec, mu, weight, piece)
                if moved is not None:
                    moved = shift(spec, mono, *moved, products)
                if moved is not None:
                    for key, d in moved[1].items():
                        out[key] = out.get(key, 0) + c * d
        ring = spec.ring
        reduced = ((key, _reduce_coefficient(ring, key, c)) for key, c in out.items())
        return UElement._raw(spec, {key: c for key, c in reduced if c})

    def act_algebra(self, a):
        """Left action of a in A (multiplication by a (x) unit): one shift per term of a."""
        self._require_same(a)
        return self._act((UNIT, mono, c) for mono, c in a.terms.items())

    def act_phi(self, p, e=1):
        """Left action of phi_p^e: the twist by it."""
        return self._act((((p, e), None, 1),))

    def act_phi_n(self, n):
        """Action of phi_n: identity for n=1, phi_p^e for n=p^e, zero else."""
        phi = phi_of(n)
        if phi is None:
            return UElement(self.spec)
        return self if phi == UNIT else self.act_phi(*phi)

    def weight(self):
        """The common weight of all stored terms (None when zero)."""
        weights = {term_weight(self.spec, key) for key in self.terms}
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous element, weights {sorted(weights)}")
        return weights.pop() if weights else None


def env_unit(spec, scalar=1):
    return UElement(spec, {((), UNIT, None): scalar})


def env_algebra(a):
    return UElement(a.spec, {((), UNIT, m): c for m, c in a.terms.items()})


def env_phi(spec, p, e=1, scalar=1):
    return UElement(spec, {((), (p, e), None): scalar})


def u0_basis_up_to(degree_cap, ring):
    """Canonical U(0) basis of degree <= cap: (phi-monomial, annihilator) pairs.

    The unit carries annihilator 0; phi_p^e carries p, and is omitted when
    R/p is trivial: ``ring.effective_annihilator(p)`` is 1.  Ordered by degree, then p.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be >= 1")
    basis = [(UNIT, 0)]
    for n in prime_powers_up_to(degree_cap):
        p, e = prime_power_decomposition(n)
        if ring.effective_annihilator(p) > 1:
            basis.append(((p, e), p))
    return basis
