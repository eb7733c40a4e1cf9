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
for (amono (x) phi) (x) [label] with amono None the unit of A_+.  A term
weighs w(amono) + deg(phi) * w(label) and is dropped past the truncation.
Coefficients of phi_p^e are kept reduced mod p (mod gcd(p, m) over Z/m, hence
dropped whenever p is invertible).  Scalars do not commute past
phi-monomials: each coefficient sits on the left, and products route
right-hand scalars through the twist.
"""

from math import gcd

from .coeff import prime_power_decomposition, prime_powers_up_to
from .dpcore import format_monomial, mono_mul, monomial_sort_key

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


def phi_coefficient_modulus(ring, p):
    """The coefficient ring of a phi_p^e term is R/p; its order as declared here.

    Over Z this is p; over Z/m it is gcd(p, m), so 1 (a dropped term) whenever
    p is invertible mod m.
    """
    return p if ring.modulus == 0 else gcd(p, ring.modulus)


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


def _reduce(ring, phi, c):
    return ring.normalize(c) if phi == UNIT else c % phi_coefficient_modulus(ring, phi[0])


class UElement:
    """An element of U(A) or of a free left U(A)-module on monomial labels."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        """The canonical form of ``terms``: truncated, reduced, zero-free."""
        self.spec = spec
        self.terms = {}
        for key, c in (terms or {}).items():
            if term_weight(spec, key) <= spec.truncation:
                c = _reduce(spec.ring, key[1], c)
                if c:
                    self.terms[key] = c

    def is_zero(self):
        return not self.terms

    def _require_same(self, other):
        if self.spec != other.spec:
            raise ValueError("elements live over different algebras")

    def __add__(self, other):
        self._require_same(other)
        ring = self.spec.ring
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                c = _reduce(ring, key[1], out[key] + c)
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return self._raw(self.spec, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        ring = self.spec.ring
        out = {}
        for key, v in self.terms.items():
            v = _reduce(ring, key[1], v * c)
            if v:
                out[key] = v
        return self._raw(self.spec, out)

    def __mul__(self, other):
        """The twisted product of U(A), which is also its action on modules.

        (c (x) unit) * (d (x) nu)      = c*d (x) nu      (product in A_+)
        (c (x) mu)   * ((b, s) (x) nu) = c * s^(deg mu) (x) mu*nu   for mu != unit

        where b is the algebra part and s the scalar part of the A_+
        coefficient; phi-monomials of distinct primes multiply to zero.  The
        left factor must lie in U(A); each right term keeps its label.
        """
        self._require_same(other)
        if any(label for label, _, _ in self.terms):
            raise ValueError("the left factor of a product must lie in U(A)")
        ring = self.spec.ring
        out = {}
        for (_, mu, c_mono), c in self.terms.items():
            for (label, nu, d_mono), d in other.terms.items():
                if mu == UNIT:
                    if c_mono is None or d_mono is None:
                        key, coeff = (label, nu, c_mono or d_mono), c * d
                    else:
                        binom, mono = mono_mul(c_mono, d_mono)
                        key, coeff = (label, nu, mono), c * d * binom
                elif d_mono is None:
                    phi = phi_mul(mu, nu)
                    if phi is None:
                        continue
                    key, coeff = (label, phi, c_mono), c * ring.pow(d, phi_degree(mu))
                else:
                    continue
                out[key] = out.get(key, 0) + coeff
        return UElement(self.spec, out)

    def act_algebra(self, a):
        """Left action of a in A (multiplication by a (x) unit)."""
        return env_algebra(a) * self

    def act_phi(self, p, e=1):
        return env_phi(self.spec, p, e) * self

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

    def sorted_terms(self):
        """Terms by label, then phi, then the A_+ part (unit first)."""

        def order(item):
            label, phi, amono = item[0]
            mono_key = (0,) if amono is None else (1, monomial_sort_key(self.spec, amono))
            return (label, phi_sort_key(phi), mono_key)

        return sorted(self.terms.items(), key=order)

    def __eq__(self, other):
        return isinstance(other, UElement) and self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        text = ""
        for key, c in self.sorted_terms():
            negative = self.spec.ring.modulus == 0 and c < 0
            mag = -c if negative else c
            body = format_term(key)
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
        return f"<UElement {self}>"

    @classmethod
    def _raw(cls, spec, terms):
        el = object.__new__(cls)
        el.spec = spec
        el.terms = terms
        return el


def env_unit(spec, scalar=1):
    return UElement(spec, {((), UNIT, None): scalar})


def env_algebra(a):
    return UElement(a.spec, {((), UNIT, m): c for m, c in a.terms.items()})


def env_phi(spec, p, e=1, scalar=1):
    return UElement(spec, {((), (p, e), None): scalar})


def u0_basis_up_to(degree_cap, ring):
    """Canonical U(0) basis of degree <= cap: (phi-monomial, annihilator) pairs.

    The unit carries annihilator 0; phi_p^e carries p.  Terms whose
    coefficient ring R/p is trivial are omitted.  Ordered by degree, then p.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be >= 1")
    basis = [(UNIT, 0)]
    for n in prime_powers_up_to(degree_cap):
        p, e = prime_power_decomposition(n)
        if phi_coefficient_modulus(ring, p) > 1:
            basis.append(((p, e), p))
    return basis
