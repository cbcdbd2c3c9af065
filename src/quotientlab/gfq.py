"""Finite field arithmetic for small prime powers.

Prime fields use modular arithmetic directly.  For GF(p^e) an element is
an integer in 0..q-1 whose base-p digits are the coefficients of a
polynomial residue modulo a monic irreducible of degree e; products go
through log/antilog tables built from a primitive element.  Sums are
digit-wise mod p: for p = 2 that is XOR, and for odd p the field builds
q x q addition and subtraction tables and a negation table once, so
each sum is one lookup.  All of this is sized for tiny q, the fields
that actually show up on a desk.
"""

from __future__ import annotations

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
    def rec(prefix, left):
        if left == 0:
            yield tuple(prefix) + (1,)
            return
        for c in range(p):
            yield from rec(prefix + [c], left - 1)

    yield from rec([], degree)


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    # f of degree e is reducible iff some monic divisor of degree 1..e//2 exists
    small = [g for d in range(1, e // 2 + 1) for g in _monic_polys(d, p)]
    for f in _monic_polys(e, p):
        if not any(_poly_mod(f, g, p) == () for g in small):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class FiniteField:
    """GF(q) with elements encoded as the integers 0..q-1."""

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = None
            self._exp = None
            self._log = None
        else:
            self.modulus = _find_irreducible(p, e)
            self._build_tables()
        if e == 1 or p == 2:
            self._add = self._neg = self._sub = None
        else:
            digits = [vector_from_index(a, p, e) for a in range(q)]
            self._neg = tuple(index_from_vector(tuple(-x % p for x in da), p) for da in digits)
            self._add = tuple(
                tuple(index_from_vector(tuple((x + y) % p for x, y in zip(da, db)), p) for db in digits)
                for da in digits
            )
            self._sub = tuple(tuple(row[b] for b in self._neg) for row in self._add)

    # int <-> coefficient tuple (degree < e, base-p digits, low degree first)
    def _digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return _poly_trim(tuple(out))

    def _undigits(self, poly) -> int:
        out = 0
        for c in reversed(poly):
            out = out * self.p + c
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        return self._undigits(_poly_mod(prod, self.modulus, self.p))

    def _build_tables(self):
        order = self.q - 1
        for g in range(2, self.q):
            seen = 1
            x = g
            n = 1
            while x != 1:
                x = self._raw_mul(x, g)
                n += 1
                if n > order:
                    break
            if n == order:
                exp = [1] * order
                for i in range(1, order):
                    exp[i] = self._raw_mul(exp[i - 1], g)
                log = [0] * self.q
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp = tuple(exp)
                self._log = tuple(log)
                return
        raise AssertionError("no primitive element found")  # pragma: no cover

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._sub[a][b]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

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
