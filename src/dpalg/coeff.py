"""Coefficient rings (Z and Z/m) and the combinatorial coefficients of the
divided-power axioms.

Scalars are plain Python integers kept in canonical form by a ``Ring``:
over Z any integer, over Z/m the canonical residue in [0, m).  All factorial
quotients are evaluated exactly over Z before any modular reduction; they are
never computed by modular division, since the denominators may share factors
with the modulus.
"""

from functools import reduce
from math import comb, factorial, gcd

from .record import FrozenRecord


class Ring(FrozenRecord):
    """Z when ``modulus`` is 0, otherwise Z/modulus (modulus >= 2).

    An immutable, hashable slotted value: rings of equal modulus are equal
    and hash equal, the hash computed once; a Ring equals no other type.
    """

    __slots__ = ("modulus", "_key", "_hash")
    _fields = ("modulus",)

    def __init__(self, modulus=0):
        if modulus < 0 or modulus == 1:
            raise ValueError(f"modulus must be 0 (for Z) or >= 2, got {modulus}")
        key = (modulus,)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Ring:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def normalize(self, value):
        return value if self.modulus == 0 else value % self.modulus

    def pow(self, base, exponent):
        """base**exponent in the ring; exponent 0 gives the ring unit 1."""
        if exponent < 0:
            raise ValueError("negative exponent")
        if self.modulus == 0:
            return base**exponent
        return pow(base, exponent, self.modulus)

    def effective_annihilator(self, d):
        """Order of a cyclic summand declared with annihilator ``d``.

        Over Z this is ``d`` itself (0 = free).  Over Z/m a "free" summand is
        killed by m, and Z/d collapses to Z/gcd(d, m).  The one base-change
        rule: it maps the factors of M to those of M/mM, and with d = p gives
        the order of R/p, the coefficients of phi_p^e (1: dropped terms).
        """
        if self.modulus == 0:
            return d
        return self.modulus if d == 0 else gcd(d, self.modulus)

    def __str__(self):
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


ZZ = Ring(0)


def gamma_compose_coeff(m, n):
    """(mn)!/(m!*(n!)^m), the coefficient in gamma_m(gamma_n(a))."""
    if m < 1 or n < 1:
        raise ValueError("gamma indices must be >= 1")
    quotient, remainder = divmod(factorial(m * n), factorial(m) * factorial(n) ** m)
    assert remainder == 0
    return quotient


def gcd_middle_binomials(n):
    """gcd of C(n,1), ..., C(n,n-1).

    Equals 1 when n has two distinct prime factors, and p when n = p^e.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return reduce(gcd, (comb(n, i) for i in range(1, n)))


def cartan_congruence_residue(k, p):
    """(kp)!/(k!*(p!)^k) mod p, evaluated exactly over Z first.

    The quotient is ``gamma_compose_coeff(k, p)``, relating gamma_{kp} and
    gamma_k gamma_p; its residue is 1 for every prime p and k >= 1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    return gamma_compose_coeff(k, p) % p


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_up_to(bound):
    return [p for p in range(2, bound + 1) if is_prime(p)]


def prime_power_decomposition(n):
    """(p, e) with n = p^e if n > 1 is a prime power, else None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None


def prime_powers_up_to(bound):
    """All p^e <= bound with p prime, e >= 1, sorted ascending."""
    out = []
    for n in range(2, bound + 1):
        if prime_power_decomposition(n) is not None:
            out.append(n)
    return out
