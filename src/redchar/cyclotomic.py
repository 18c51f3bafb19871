"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are stored as integer coefficient vectors over the power basis
1, zeta, ..., zeta^(phi(e)-1) of Q[x]/Phi_e(x), together with a single
positive denominator.  All arithmetic is exact; there is no floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi is defined for positive integers")
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Trial division that stops at the first divisor, for callers whose
    candidates are mostly composite."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e(x), constant term first.

    Phi_e = prod over d | e of (1 - x^d)^mu(e/d) for e > 1, expanded as a
    power series truncated at degree phi(e); only squarefree e/d contribute.
    """
    if e == 1:
        return (-1, 1)
    phi = euler_phi(e)
    poly = [1] + [0] * phi
    primes = prime_factors(e)
    for mask in range(1 << len(primes)):
        d, sign = e, 1
        for bit, p in enumerate(primes):
            if mask >> bit & 1:
                d //= p
                sign = -sign
        if sign > 0:  # times (1 - x^d)
            for k in range(phi, d - 1, -1):
                poly[k] -= poly[k - d]
        else:  # times 1 / (1 - x^d) = 1 + x^d + x^2d + ...
            for k in range(d, phi + 1):
                poly[k] += poly[k - d]
    return tuple(poly)


_INT64_GUARD = 1 << 62


def _absmax(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def power_matrix(e: int, dtype=np.int64, ks=None) -> np.ndarray:
    """The matrix whose rows are x^k mod Phi_e over the power basis, for the
    strictly ascending exponents k in `ks` (default 0, ..., max(e, 2 phi - 1)
    - 1).

    The coefficients of x^k, highest degree first, are the window
    buf[k : k + phi] of one buffer, read before step k: multiplying by x moves
    the window on by one, and the coefficient that leaves it (of x^phi) is
    replaced by subtracting it times Phi_e in the new window.  A step adds at
    most |top| max|Phi_e| to an entry, so while 1 plus the sum of those
    increments stays below 2^62 / (max|Phi_e| + 1) the int64 rows are exact;
    beyond that they are recomputed over python ints (dtype object).
    """
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    if ks is None:
        ks = range(max(e, 2 * phi - 1))
    low = np.array(poly[phi - 1 :: -1], dtype=dtype)  # Phi_e below x^phi, highest degree first
    step = _absmax(low)
    rows = np.zeros((len(ks), phi), dtype=dtype)
    buf = np.zeros((ks[-1] if len(ks) else 0) + phi, dtype=dtype)
    buf[phi - 1] = 1
    bound = 1
    for j, k in enumerate(ks):
        for i in range(ks[j - 1] if j else 0, k):
            top = buf[i]
            if top:
                buf[i + 1 : i + 1 + phi] -= top * low
                bound += abs(int(top)) * step
        rows[j] = buf[k : k + phi][::-1]
    if dtype is not object and bound * (step + 1) >= _INT64_GUARD:
        return power_matrix(e, object, ks)
    return rows


class _Ring:
    """Cached reduction data for a fixed conductor."""

    def __init__(self, e: int):
        self.e = e
        self.phi = euler_phi(e)

    @cached_property
    def power_rows(self) -> list[tuple[int, ...]]:
        """Row k: x^k mod Phi_e over the power basis (built on first use)."""
        return [tuple(row) for row in power_matrix(self.e).tolist()]

    def reduce_pairs(self, pairs) -> list[int]:
        """Reduce a sparse sum of c*x^k (k may exceed phi) to the power basis."""
        out = [0] * self.phi
        rows = self.power_rows
        phi = self.phi
        for k, c in pairs:
            if c == 0:
                continue
            k %= self.e
            if k < phi:
                out[k] += c
            else:
                row = rows[k]
                for i in range(phi):
                    ri = row[i]
                    if ri:
                        out[i] += c * ri
        return out


@lru_cache(maxsize=None)
def _ring(e: int) -> _Ring:
    return _Ring(e)


def _normalize(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = [-a for a in num]
        den = -den
    g = den
    for a in num:
        if a:
            g = gcd(g, a)
        if g == 1:
            break
    if g > 1:
        num = [a // g for a in num]
        den //= g
    return tuple(num), den


class CyclotomicNumber:
    """An exact element of Q(zeta_e) over the power basis of Q[x]/Phi_e(x).

    Instances are immutable.  Values with different stored conductors
    compare equal iff they agree after lifting to the least common
    conductor.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num, den: int = 1):
        ring = _ring(conductor)
        if len(num) != ring.phi:
            raise ValueError(f"need {ring.phi} coefficients at conductor {conductor}")
        object.__setattr__(self, "conductor", conductor)
        n, d = _normalize([int(a) for a in num], int(den))
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "CyclotomicNumber":
        f = Fraction(value)
        phi = _ring(conductor).phi
        num = [0] * phi
        num[0] = f.numerator
        return CyclotomicNumber(conductor, num, f.denominator)

    @staticmethod
    def zero(conductor: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "CyclotomicNumber":
        return CyclotomicNumber.from_rational(1, conductor)

    # -- basic queries -------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def as_int(self) -> int:
        f = self.as_rational()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    # -- conductor handling --------------------------------------------

    def lift(self, m: int) -> "CyclotomicNumber":
        """Rewrite at conductor m (the current conductor must divide m)."""
        e = self.conductor
        if m == e:
            return self
        if m % e:
            raise ValueError(f"cannot lift conductor {e} to non-multiple {m}")
        step = m // e
        ring = _ring(m)
        out = ring.reduce_pairs((i * step, c) for i, c in enumerate(self.num) if c)
        return CyclotomicNumber(m, out, self.den)

    def _common(self, other: "CyclotomicNumber"):
        e = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(e), other.lift(e), e

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CyclotomicNumber":
        if isinstance(value, CyclotomicNumber):
            return value
        return CyclotomicNumber.from_rational(value)

    def __add__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        a, b, e = self._common(other)
        da, db = a.den, b.den
        num = [x * db + y * da for x, y in zip(a.num, b.num)]
        return CyclotomicNumber(e, num, da * db)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.conductor, [-a for a in self.num], self.den)

    def __sub__(self, other) -> "CyclotomicNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CyclotomicNumber":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CyclotomicNumber":
        other = self._coerce(other)
        a, b, e = self._common(other)
        ring = _ring(e)
        phi = ring.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:phi])
        rows = ring.power_rows
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = rows[k]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CyclotomicNumber(e, out, a.den * b.den)

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equality crosses conductors; no canonical cheap hash

    def __repr__(self) -> str:
        if self.is_rational():
            return str(self.as_rational())
        terms = []
        for i, a in enumerate(self.num):
            if not a:
                continue
            c = Fraction(a, self.den)
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z{self.conductor}^{i}" if i > 1 else f"z{self.conductor}")
            else:
                terms.append(f"{c}*z{self.conductor}^{i}" if i > 1 else f"{c}*z{self.conductor}")
        return " + ".join(terms) if terms else "0"


def zeta(e: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_e^k, stored at its exact order as conductor."""
    k %= e
    g = gcd(e, k) if k else e
    ring = _ring(e // g)
    num = ring.reduce_pairs([(k // g, 1)])
    return CyclotomicNumber(e // g, num)
