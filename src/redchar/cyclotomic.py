"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are stored as integer coefficient vectors over the power basis
1, zeta, ..., zeta^(phi(e)-1) of Q[x]/Phi_e(x), together with a single
positive denominator.  All arithmetic is exact; there is no floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi is defined for positive integers")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            result *= p - 1
            m //= p
            while m % p == 0:
                result *= p
                m //= p
        p += 1
    if m > 1:
        result *= m - 1
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


def power_matrix(e: int, dtype=np.int64) -> np.ndarray:
    """The (max(e, 2 phi - 1), phi) matrix whose row k is x^k mod Phi_e over
    the power basis: row k is row k-1 shifted up one degree, minus its top
    coefficient times Phi_e.

    Every step adds at most max|row| * max|Phi_e| to a row, so int64 rows whose
    entries stay below 2^62 / (max|Phi_e| + 1) were computed exactly; beyond
    that the rows are recomputed over python ints (dtype object).
    """
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    low = np.array(poly[:phi], dtype=dtype)
    rows = np.zeros((max(e, 2 * phi - 1), phi), dtype=dtype)
    rows[:phi] = np.eye(phi, dtype=dtype)
    for k in range(phi, len(rows)):
        rows[k, 1:] = rows[k - 1, :-1]
        rows[k] -= rows[k - 1, -1] * low
    if dtype is not object and _absmax(rows) * (_absmax(low) + 1) >= _INT64_GUARD:
        return power_matrix(e, object)
    return rows


class _Ring:
    """Cached reduction data for a fixed conductor."""

    def __init__(self, e: int):
        self.e = e
        self.phi = euler_phi(e)
        # power_rows[k] = coefficients of x^k mod Phi_e over the power basis.
        self.power_rows = [tuple(row) for row in power_matrix(e).tolist()]

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

    def is_zero(self) -> bool:
        return not any(self.num)

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

    def coefficients(self) -> list[Fraction]:
        return [Fraction(a, self.den) for a in self.num]

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

    def __pow__(self, n: int) -> "CyclotomicNumber":
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = CyclotomicNumber.one(self.conductor)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Image under zeta_e -> zeta_e^(-1) (complex conjugation on characters)."""
        return self.galois(-1)

    def galois(self, k: int) -> "CyclotomicNumber":
        """Image under zeta_e -> zeta_e^k for k coprime to the conductor."""
        e = self.conductor
        k %= e
        if gcd(k, e) != 1:
            raise ValueError(f"exponent {k} is not coprime to conductor {e}")
        ring = _ring(e)
        out = ring.reduce_pairs((i * k, c) for i, c in enumerate(self.num) if c)
        return CyclotomicNumber(e, out, self.den)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equality crosses conductors; no canonical cheap hash

    def sort_key(self, conductor: int) -> tuple:
        """Deterministic total order key among values liftable to `conductor`."""
        v = self.lift(conductor)
        return tuple(Fraction(a, v.den) for a in v.num)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coefficients": [f"{a}/{self.den}" for a in self.num],
        }

    @staticmethod
    def from_json(data: dict) -> "CyclotomicNumber":
        coeffs = [Fraction(s) for s in data["coefficients"]]
        den = 1
        for f in coeffs:
            den = den * f.denominator // gcd(den, f.denominator)
        num = [int(f * den) for f in coeffs]
        return CyclotomicNumber(data["conductor"], num, den)

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


def root_of_unity_sum(e: int, multiplicities: dict[int, int]) -> CyclotomicNumber:
    """Sum of m copies of zeta_e^k for each (k, m) pair, reduced.

    The stored conductor is e divided by the gcd of the exponent support,
    so a sum of m-th roots of unity is stored at a conductor dividing m.
    """
    pairs = [(k % e, c) for k, c in multiplicities.items() if c]
    if not pairs:
        return CyclotomicNumber.zero()
    g = e
    for k, _ in pairs:
        g = gcd(g, k)
        if g == 1:
            break
    conductor = e // g
    ring = _ring(conductor)
    num = ring.reduce_pairs((k // g, c) for k, c in pairs)
    return CyclotomicNumber(conductor, num)


def cyclotomic_arith(a: CyclotomicNumber, b: CyclotomicNumber, op: str) -> CyclotomicNumber:
    """Dispatch form used by the CLI report layer: op in {'add', 'mul'}."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def complex_conjugate(a: CyclotomicNumber) -> CyclotomicNumber:
    return a.conjugate()
