"""Finite field arithmetic for small prime powers.

A field picks its arithmetic once, when it is built, so no operation
decides again which kind of field it serves.  Prime fields compute mod
p and keep no table.  For GF(p^e) an element is an integer in 0..q-1
whose base-p digits (`vector_from_index`, low degree first) are the
coefficients of a polynomial residue modulo a monic irreducible of
degree e; products and inverses go through one antilog/log pair of
q-entry tables built from a primitive element.  Sums are digit-wise
mod p: for p = 2 that is XOR, and for odd p the field builds one q x q
sum table and a negation table, so a sum is one lookup and a difference
two.  All of this is sized for tiny q, the fields that actually show up
on a desk.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import isqrt


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q == p**e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # the smallest divisor above 1 is prime, and q itself is prime if none is <= sqrt(q)
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(tuple(a))


def _monic_polys(degree: int, p: int):
    """All monic polynomials of the given degree over GF(p), as coeff tuples."""
    return (low + (1,) for low in itertools.product(range(p), repeat=degree))


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    # f of degree e is reducible iff some monic divisor of degree 1..e//2 exists
    small = [g for d in range(1, e // 2 + 1) for g in _monic_polys(d, p)]
    for f in _monic_polys(e, p):
        if not any(_poly_mod(f, g, p) == () for g in small):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def _log_tables(p: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Antilog and log tables of GF(p^e): exp[i] = g^i for the first primitive g."""
    q = p**e
    modulus = _find_irreducible(p, e)
    for g in range(2, q):
        gen = vector_from_index(g, p, e)
        exp, x = [1], gen
        while x != (1,):
            exp.append(index_from_vector(x, p))
            x = _poly_mod(_poly_mul(x, gen, p), modulus, p)
        if len(exp) == q - 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return tuple(exp), tuple(log)
    raise AssertionError("no primitive element found")  # pragma: no cover


class FiniteField:
    """GF(q) with elements encoded as the integers 0..q-1.

    `add`, `sub`, `neg` and `mul` are the functions `__init__` binds for
    this kind of field; `inv` refuses 0 and calls the bound inverse.
    """

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        self.q, self.p, self.e = q, p, e
        if e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self._inverse = lambda a: pow(a, p - 2, p)
        else:
            exp, log = _log_tables(p, e)
            order = q - 1
            self.mul = lambda a, b: exp[(log[a] + log[b]) % order] if a and b else 0
            self._inverse = lambda a: exp[-log[a] % order]
            if p == 2:
                self.add = self.sub = operator.xor
                self.neg = lambda a: a
            else:
                digits = [vector_from_index(a, p, e) for a in range(q)]
                neg = tuple(index_from_vector(tuple(-x % p for x in da), p) for da in digits)
                table = tuple(
                    tuple(index_from_vector(tuple((x + y) % p for x, y in zip(da, db)), p) for db in digits)
                    for da in digits
                )
                self.add = lambda a, b: table[a][b]
                self.sub = lambda a, b: table[a][neg[b]]
                self.neg = neg.__getitem__

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inverse(a)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    return FiniteField(q)


def vector_from_index(index: int, q: int, n: int) -> tuple[int, ...]:
    """Decode a ground-set index into a coordinate tuple (coordinate 0 first)."""
    out = []
    for _ in range(n):
        out.append(index % q)
        index //= q
    return tuple(out)


def index_from_vector(vec: tuple[int, ...], q: int) -> int:
    out = 0
    for c in reversed(vec):
        out = out * q + c
    return out
