"""Exact number theory over word-sized integers.

Primality, factorization, Euler's totient, primitive roots, dense index
(discrete logarithm) tables, multiplicative characters, Legendre symbols,
polynomial arithmetic mod p, and Fermat quotients.  Everything is
deterministic and integer-exact; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    EmptyPolynomialError,
    InvalidParameterError,
    NotDivisorError,
    NotPrimeError,
    OutOfRangeError,
    TooLargeError,
)

_WORD_LIMIT = 2**63

# Sufficient deterministic Miller-Rabin witnesses for n < 3.3 * 10**24,
# which comfortably covers the supported range n < 2**63.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division bound for factorize(); cofactors beyond it must be prime.
_TRIAL_LIMIT = 10**6

# Dense index tables hold Theta(p) integers; refuse past this point.
_INDEX_TABLE_LIMIT = 2**26

# Exponents scattered into an index table per step: bounds its temporaries.
_SCATTER_BLOCK = 2**16


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**63."""
    if not 0 <= n < _WORD_LIMIT:
        raise OutOfRangeError(f"is_prime supports 0 <= n < 2**63, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """n as a product of prime powers, exponents >= 1, primes increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def divisors(self) -> tuple[int, ...]:
        """All positive divisors of n, sorted increasing."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return tuple(sorted(divs))


def factorize(n: int) -> Factorization:
    """Full prime factorization by trial division up to 10**6.

    A cofactor surviving trial division is included only if it passes the
    primality test; otherwise the input is refused rather than returned
    half-factored.  Covers every n <= 10**12 and most word-sized inputs.
    """
    if n < 1:
        raise OutOfRangeError(f"factorize needs n >= 1, got {n}")
    if n >= _WORD_LIMIT:
        raise OutOfRangeError(f"factorize supports n < 2**63, got {n}")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    step = 2  # alternate +2, +4: candidates 5, 7, 11, 13, ...
    while p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += step
        step = 6 - step
    if m > 1:
        if p * p > m or is_prime(m):
            factors.append((m, 1))
        else:
            raise TooLargeError(
                f"cofactor {m} of {n} is composite and beyond the "
                f"trial-division range; refusing rather than mis-factoring"
            )
    return Factorization(n, tuple(factors))


def euler_phi(f: Factorization) -> int:
    """Euler's totient of f.n from its factorization."""
    result = 1
    for p, e in f.factors:
        result *= (p - 1) * p ** (e - 1)
    return result


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")


def find_primitive_root(p: int) -> int:
    """Smallest primitive root of the odd prime p (deterministic)."""
    _require_odd_prime(p)
    prime_factors = [q for q, _ in factorize(p - 1).factors]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
    raise AssertionError("no primitive root found; p is not prime")


@dataclass(frozen=True, eq=False)
class IndexTable:
    """Dense discrete-logarithm table for Z_p relative to base g.

    powers[j] = g^j mod p for 0 <= j < p - 1.  table[n] = j with g^j = n
    mod p for 1 <= n < p, table[0] = -1 sentinel, is scattered from powers
    on first use.  Both arrays are read-only and safe to share across threads.
    """

    p: int
    g: int
    powers: np.ndarray

    @cached_property
    def table(self) -> np.ndarray:
        table = np.full(self.p, -1, dtype=np.int64)
        for start in range(0, self.p - 1, _SCATTER_BLOCK):
            stop = min(start + _SCATTER_BLOCK, self.p - 1)
            table[self.powers[start:stop]] = np.arange(start, stop)
        table.setflags(write=False)
        return table

    def index_of(self, n: int) -> int:
        n %= self.p
        if n == 0:
            raise InvalidParameterError(
                f"index of n undefined for multiples of p={self.p}"
            )
        return int(self.table[n])


@lru_cache(maxsize=4)
def build_index_table(p: int) -> IndexTable:
    """Index table for odd prime p < 2**26 (8 bytes per residue, 16 with table)."""
    _require_odd_prime(p)
    if p >= _INDEX_TABLE_LIMIT:
        raise TooLargeError(f"index table for p={p} exceeds the 2**26 limit")
    g = find_primitive_root(p)
    # Doubling in place: powers[b + j] = powers[b] * powers[j] for j < b;
    # products stay below p^2 < 2^52.
    powers = np.empty(p - 1, dtype=np.int64)
    powers[0], b = 1, 1
    while b < p - 1:
        head = powers[b : 2 * b]
        np.multiply(powers[: len(head)], pow(g, b, p), out=head)
        np.remainder(head, p, out=head)
        b += len(head)
    powers.setflags(write=False)
    return IndexTable(p, g, powers)


def legendre_symbol(n: int, p: int) -> int:
    """Legendre symbol (n/p) in {-1, 0, +1} via Euler's criterion."""
    _require_odd_prime(p)
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def fermat_quotient(n: int, p: int) -> int:
    """Fermat quotient of n at the odd prime p, in {0, ..., p-1}.

    For p not dividing n this is ((n^(p-1) - 1) / p) mod p, computed
    exactly from n^(p-1) mod p^2; for p | n it is 0 by convention.
    The value depends only on n mod p^2.
    """
    _require_odd_prime(p)
    if p * p >= _WORD_LIMIT:
        raise TooLargeError(f"fermat_quotient needs p^2 < 2**63, got p={p}")
    n %= p * p
    if n % p == 0:
        return 0
    w = pow(n, p - 1, p * p)
    return ((w - 1) // p) % p


# ----------------------------------------------------------------------
# Polynomials mod p: coefficient tuples, lowest degree first.


def poly_eval_mod(coeffs, x: int, modulus: int) -> int:
    """Evaluate a polynomial (coefficients lowest-degree first) at x mod m."""
    if len(coeffs) == 0:
        raise EmptyPolynomialError("polynomial needs at least one coefficient")
    if modulus < 1:
        raise OutOfRangeError(f"modulus must be positive, got {modulus}")
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def poly_eval_array(coeffs, xs: np.ndarray, p: int) -> np.ndarray:
    """Horner evaluation of the polynomial at every entry of xs, mod p.

    One int64 array the shape of xs is allocated; each coefficient below
    the leading one takes one multiply, add and reduce in place on it.
    """
    if len(coeffs) == 0:
        raise EmptyPolynomialError("polynomial needs at least one coefficient")
    *rest, lead = [c % p for c in coeffs]
    acc = np.full(np.shape(xs), lead, dtype=np.int64)
    for c in reversed(rest):
        acc *= xs
        acc += c
        acc %= p
    return acc


def poly_reduce(coeffs, p: int) -> tuple[int, ...]:
    """Coefficients mod p with trailing zeros stripped (zero poly -> ())."""
    rs = [c % p for c in coeffs]
    while rs and rs[-1] == 0:
        rs.pop()
    return tuple(rs)


def poly_degree(coeffs, p: int) -> int:
    """Degree of the reduction mod p; the zero polynomial has degree -1."""
    return len(poly_reduce(coeffs, p)) - 1


def poly_derivative(coeffs, p: int) -> tuple[int, ...]:
    return poly_reduce([i * c for i, c in enumerate(coeffs)][1:], p)


def poly_gcd(f, g, p: int) -> tuple[int, ...]:
    """Monic gcd of f and g over the field Z_p (Euclid's algorithm)."""
    a, b = list(poly_reduce(f, p)), list(poly_reduce(g, p))
    while b:
        inv = pow(b[-1], p - 2, p)
        # one long-division step: a mod b
        while len(a) >= len(b) and a:
            factor = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - factor * c) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return tuple(a)


def poly_is_squarefree(f, p: int) -> bool:
    """True iff f mod p has no repeated roots (gcd(f, f') is constant)."""
    fr = poly_reduce(f, p)
    if len(fr) <= 1:
        return True  # constants are vacuously squarefree
    d = poly_derivative(fr, p)
    if not d:
        return False  # f' = 0 with deg f >= 1 forces repeated factors
    return len(poly_gcd(fr, d, p)) <= 1


# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultiplicativeCharacter:
    """Character of the unit group of Z_p with values as exact angles.

    The value at n with p not dividing n is the root of unity
    exp(2*pi*i * k / order) where k = angle_numerator(n); the angle
    numerator is index * ind(n) mod order, computed from the index table.
    Requires order | p - 1 and gcd(index, order) = 1 so the character has
    exact order `order`.  order = 1 is the trivial character.
    """

    index_table: IndexTable
    order: int
    index: int = 1

    def __post_init__(self):
        p = self.index_table.p
        if self.order < 1:
            raise InvalidParameterError(
                f"character order must be >= 1, got {self.order}"
            )
        if (p - 1) % self.order != 0:
            raise NotDivisorError(
                f"character order {self.order} does not divide p-1 = {p - 1}"
            )
        if math.gcd(self.index, self.order) != 1:
            raise InvalidParameterError(
                f"character index {self.index} not coprime to order {self.order}"
            )

    @property
    def p(self) -> int:
        return self.index_table.p

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def angle_numerator(self, n: int):
        """k with value exp(2*pi*i*k/order) at n, or None when p | n."""
        if n % self.p == 0:
            return None
        return self.index * self.index_table.index_of(n) % self.order

    def angle(self, n: int):
        """Value's angle as an exact fraction of a full turn, in [0, 1)."""
        k = self.angle_numerator(n)
        return None if k is None else Fraction(k, self.order)

    @classmethod
    def build(cls, p: int, order: int, index: int = 1) -> "MultiplicativeCharacter":
        return cls(build_index_table(p), order, index)

    @classmethod
    def legendre(cls, p: int) -> "MultiplicativeCharacter":
        """The quadratic character: angle 0 on squares, 1/2 otherwise."""
        return cls.build(p, 2)
