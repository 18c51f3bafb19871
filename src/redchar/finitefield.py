"""Finite fields F_{p^k} with deterministic defining polynomials.

The defining polynomial of F_{p^k} is the lexicographically smallest monic
irreducible of degree k over F_p whose root generates the multiplicative
group (ordering: the integer sum(a_i p^i) over the non-leading coefficients).
Elements are stored as integer codes in [0, p^k): the base-p digits of a code
are the coordinates in the polynomial basis 1, x, ..., x^(k-1).  The stored
multiplicative generator is always the class of x itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .cyclotomic import is_prime, prime_factors


# -- polynomials over F_p -----------------------------------------------------
#
# A polynomial is a list of coefficients, constant term first.  Results are
# reduced mod p and trimmed (a nonzero last coefficient; zero is []).


def _poly_trim(a, p: int) -> list[int]:
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b over F_p."""
    a, b = _poly_trim(a, p), _poly_trim(b, p)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quotient = [0] * max(len(a) - db, 0)
    for k in range(len(quotient) - 1, -1, -1):
        c = a[k + db] * inv_lead % p
        quotient[k] = c
        if c:
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return quotient, _poly_trim(a[:db], p)


def poly_powmod(base, n: int, f, p: int) -> list[int]:
    """base^n mod f over F_p, by repeated squaring.  A product is summed
    unreduced and then reduced once, from the top, by x^d = low(x) mod f
    (d = deg f, low(x) = x^d - f(x) / lead(f))."""
    f = _poly_trim(f, p)
    d = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    low = [-c * inv_lead % p for c in f[:d]]

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k in range(len(out) - 1, d - 1, -1):
            c = out[k] % p
            if c:
                for i, y in enumerate(low, k - d):
                    out[i] += c * y
        return _poly_trim(out[:d], p)

    result, base = [1], _poly_divmod(base, f, p)[1]
    while n:
        if n & 1:
            result = mulmod(result, base)
        n >>= 1
        if n:
            base = mulmod(base, base)
    return result


def poly_gcd(a, b, p: int) -> list[int]:
    """The monic gcd of a and b over F_p ([] when both are zero)."""
    a, b = _poly_trim(a, p), _poly_trim(b, p)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv_lead = pow(a[-1], -1, p) if a else 0
    return [c * inv_lead % p for c in a]


def poly_roots(f, p: int) -> list[int]:
    """The distinct roots, sorted, of an f of degree below p (p odd) that
    splits into linear factors over F_p.

    Multiplicities are below p, so f / gcd(f, f') is the squarefree part of
    f.  It is split by Cantor-Zassenhaus on a stack of factors: for a
    shift s, gcd(g, (x + s)^((p-1)/2) - 1) keeps the roots r of g with r + s
    a nonzero square.  Two distinct roots are separated by some s < p (the
    nonzero squares are not invariant under a translation), so a factor
    that no shift splits does not split over F_p: ValueError.
    """
    f = _poly_trim(f, p)
    derivative = [i * c for i, c in enumerate(f)][1:]
    stack = [_poly_divmod(f, poly_gcd(f, derivative, p), p)[0]]
    roots = []
    while stack:
        g = stack.pop()
        if len(g) < 3:
            roots += [-g[0] * pow(g[1], -1, p) % p] if len(g) == 2 else []
            continue
        for shift in range(p):
            h = poly_powmod([shift, 1], (p - 1) // 2, g, p) or [0]
            h[0] -= 1
            h = poly_gcd(g, h, p)
            if 1 < len(h) < len(g):
                stack += [h, _poly_divmod(g, h, p)[0]]
                break
        else:
            raise ValueError(f"a factor of degree {len(g) - 1} does not split over F_{p}")
    return sorted(roots)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    k = len(f) - 1
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for code in range(p**deg):
            g = [0] * (deg + 1)
            c = code
            for i in range(deg):
                g[i] = c % p
                c //= p
            g[deg] = 1
            if not _poly_divmod(f, g, p)[1]:
                return False
    return True


class FiniteField:
    """The field F_{p^k} with code-level arithmetic and log/exp tables."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("degree must be positive")
        self.p = p
        self.k = k
        self.q = p**k
        self.poly = self._find_polynomial()
        self._build_tables()

    def _find_polynomial(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        for code in range(p**k):
            coeffs = []
            c = code
            for _ in range(k):
                coeffs.append(c % p)
                c //= p
            f = coeffs + [1]
            if f[0] == 0:  # x divides f
                continue
            if not _is_irreducible(f, p):
                continue
            if self._root_is_primitive(f):
                return tuple(f)
        raise RuntimeError("no primitive polynomial found")  # unreachable

    def _root_is_primitive(self, f: list[int]) -> bool:
        """x has order q - 1 mod the irreducible f: no x^((q-1)/r) is 1."""
        q = self.q
        return all(poly_powmod([0, 1], (q - 1) // r, f, self.p) != [1]
                   for r in prime_factors(q - 1))

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        cur, exp = [1], []
        for _ in range(q - 1):
            exp.append(sum(c * p**i for i, c in enumerate(cur)))
            cur = _poly_divmod([0] + cur, self.poly, p)[1]
        self.exp = exp  # exp[i] = code of generator^i
        log = [-1] * q
        for i, c in enumerate(exp):
            log[c] = i
        self.log = log
        self.generator_code = exp[1 % (q - 1)] if q > 2 else 1

    # -- code-level arithmetic ------------------------------------------

    def add_codes(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_code(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out, mult = 0, 1
        while a:
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg_code(b))

    def mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow_code(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return 0
        return self.exp[self.log[a] * n % (self.q - 1)]

    def frobenius_code(self, a: int) -> int:
        return self.pow_code(a, self.p) if a else 0

    def order_of(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of zero")
        return (self.q - 1) // gcd(self.q - 1, self.log[a])

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.k})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))


@lru_cache(maxsize=None)
def finite_field(p: int, k: int) -> FiniteField:
    return FiniteField(p, k)


def field_embedding(small: FiniteField, big: FiniteField):
    """The canonical embedding F_{p^j} -> F_{p^k} for j | k, on codes.

    The generator of the small field is sent to the root of its defining
    polynomial in the big field with the smallest discrete log; this fixes
    the embedding deterministically.  Returns a function on codes.
    """
    if small.p != big.p or big.k % small.k:
        raise ValueError("no embedding between these fields")
    if small.q == big.q:
        return lambda c: c
    root_code = None
    for i in range(big.q - 1):
        cand = big.exp[i]
        acc = 0
        for coeff in reversed(small.poly):
            acc = big.add_codes(big.mul_codes(acc, cand), coeff % big.p)
        if acc == 0:
            root_code = cand
            break
    if root_code is None:
        raise RuntimeError("defining polynomial has no root in the big field")
    t = big.log[root_code]

    def embed(code: int) -> int:
        if code == 0:
            return 0
        return big.exp[small.log[code] * t % (big.q - 1)]

    # the image of the small generator must have exact order small.q - 1
    if big.order_of(embed(small.generator_code)) != small.q - 1:
        raise RuntimeError(f"the embedding of F_{small.q} into F_{big.q} is not injective")
    return embed
