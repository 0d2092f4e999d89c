"""Exact arithmetic in a small residue field F_q and its character data.

Everything downstream runs over a fixed residue field F_q with q an odd
prime power, 4 | q - 1 and q = p or p**2.  The field carries a canonical
primitive root (the smallest generator in a fixed total order), its
discrete-log table, the order-four multiplicative character ``eta`` with
eta(zeta) = i, and the quadratic character ``sgn``.  Character values are
carried exactly: fourth roots of unity as :class:`UnitI`, sums and
structure constants as Gaussian integers (:class:`HeckeCoeff`).  No
floating point anywhere.

Field elements are encoded as plain integers 0..q-1.  For q = p the
encoding is the residue itself; for q = p**2 the integer a + p*b encodes
a + b*x where x**2 equals a fixed non-square of F_p.  Every scalar
operation reads addition, multiplication, negation or inverse tables that
the field builds once from the coordinate formula of that encoding, on one
path for every q.  The Laurent-series layer keeps coefficients as tuples of
encodings; the field supplies its sequence kernels: the truncated product
``mul_trunc`` (a schoolbook loop for short operands over F_p; long
operands, and every product over F_{p^2}, are packed into Python integers
and multiplied once, Kronecker substitution), ``series_inverse`` (a
recurrence, or Newton iteration on packed products for long operands), the
quotient recurrence ``series_quotient`` and the root-squaring step
``graeffe`` that norms are built from.  None of them uses numpy;
``convolve`` is numpy's convolution, kept as the reference that the tests
compare these kernels against.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from sys import byteorder
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Above this many coefficient pairs a series product over F_p is cheaper
# as one packed integer product than by the pure-Python schoolbook loop
# (parity near 16 pairs, at 2x8 and 4x4, at q = 5, 13 and 53 on Python
# 3.11: the loop is 15% faster at 8 pairs, the packed product 10-30%
# faster from 20 pairs and about 2x at 48).
CONVOLVE_CUTOVER = 16
# Above this many terms a series inverse runs Newton iteration on packed
# products rather than the recurrence.  To N = 40 terms (timeit, best of 5,
# 2-core host) Newton overtakes near 24-32 terms over F_p (q = 13: 60 against
# 69 us at 32) but trails the table-driven recurrence to 32 over F_{p^2} (q = 25:
# 189 against 70 us); no benchmark workload inverts a series, so one value serves.
NEWTON_CUTOVER = 16


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


def _packed_product(a, b, top: int) -> array:
    """The integer convolution of two non-empty sequences of ints in [0, top].

    Kronecker substitution: each sequence is packed into one Python int, a
    coefficient per fixed-width slot, the two ints are multiplied once and
    the product is read back slot by slot.  A slot is 32 bits wide unless a
    coefficient, at most min(len(a), len(b)) * top**2, could reach 2**32;
    then it is 64 bits wide, and past 2**64 the product is refused.  Native
    byte order on both sides keeps the slots in coefficient order on either
    endianness.
    """
    bound = min(len(a), len(b)) * top * top
    if bound < 1 << 32:
        code, width = "I", 4
    elif bound < 1 << 64:
        code, width = "Q", 8
    else:
        raise OverflowError(f"a coefficient could reach {bound}, past a 64-bit slot")
    x = int.from_bytes(array(code, a).tobytes(), byteorder)
    y = int.from_bytes(array(code, b).tobytes(), byteorder)
    return array(code, (x * y).to_bytes(width * (len(a) + len(b) - 1), byteorder))


# ---------------------------------------------------------------------------
# exact Gaussian-integer scalars and fourth roots of unity


@dataclass(frozen=True)
class HeckeCoeff:
    """A Gaussian integer re + im*i, the exact carrier for all scalar values."""

    re: int
    im: int

    def __add__(self, other: "HeckeCoeff") -> "HeckeCoeff":
        return HeckeCoeff(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "HeckeCoeff") -> "HeckeCoeff":
        return HeckeCoeff(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "HeckeCoeff":
        return HeckeCoeff(-self.re, -self.im)

    def __mul__(self, other: "HeckeCoeff") -> "HeckeCoeff":
        return HeckeCoeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{self.im:+}i"


COEFF_ZERO = HeckeCoeff(0, 0)
COEFF_ONE = HeckeCoeff(1, 0)


@dataclass(frozen=True)
class UnitI:
    """i**exp for a fixed square root i of -1; exp is reduced mod 4."""

    exp: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "exp", self.exp % 4)

    def __mul__(self, other: "UnitI") -> "UnitI":
        return UnitI(self.exp + other.exp)

    def __pow__(self, n: int) -> "UnitI":
        return UnitI(self.exp * n)

    def inverse(self) -> "UnitI":
        return UnitI(-self.exp)

    def as_coeff(self) -> HeckeCoeff:
        return (COEFF_ONE, HeckeCoeff(0, 1), HeckeCoeff(-1, 0), HeckeCoeff(0, -1))[self.exp]

    def __repr__(self) -> str:
        return ("1", "i", "-1", "-i")[self.exp]


UNIT_ONE = UnitI(0)
UNIT_I = UnitI(1)
UNIT_MINUS_ONE = UnitI(2)


# ---------------------------------------------------------------------------
# the residue field


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, f) with q = p**f, or raise for non-prime-powers."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            return q, 1
        if q % p == 0:
            f = 0
            m = q
            while m % p == 0:
                m //= p
                f += 1
            if m != 1:
                raise ValueError(f"q={q} is not a prime power")
            return p, f
    raise ValueError(f"q={q} is not a prime power")


class ResidueField:
    """F_q with a canonical primitive root and full discrete-log table.

    Immutable after construction; all methods are pure and safe for
    concurrent use.  Scalar elements are integer encodings in [0, q), and
    the scalar operations read tables built at construction; ``convolve``,
    ``mul_trunc``, ``graeffe``, ``series_inverse`` and ``series_quotient``
    act on sequences of encodings.
    """

    def __init__(self, q: int, zeta: int | None = None):
        p, f = _prime_power(q)
        if p == 2:
            raise ValueError(f"q={q} is even; the residue characteristic must be odd")
        if (q - 1) % 4 != 0:
            raise ValueError(f"q={q} rejected: 4 does not divide q-1={q - 1}")
        if q < 5:
            raise ValueError(f"q={q} is too small (need q >= 5)")
        if f > 2:
            raise ValueError(f"q={q} = {p}**{f} unsupported: only f <= 2 is implemented")
        self.q = q
        self.p = p
        self.f = f
        # Modulus x**2 - n for F_{p^2}: the smallest non-square n of F_p; 0 over F_p.
        self.nonsquare = 0
        if f == 2:
            squares = {(a * a) % p for a in range(1, p)}
            self.nonsquare = min(a for a in range(2, p) if a not in squares)

        # (a0 + x a1)(b0 + x b1) = a0 b0 + n a1 b1 + x (a0 b1 + a1 b0) with
        # x**2 = n; over F_p every a1 and n are 0, so one formula serves both.
        n = self.nonsquare
        digits = [divmod(a, p) for a in range(q)]
        self.add_table = [[(a0 + b0) % p + p * ((a1 + b1) % p) for b1, b0 in digits] for a1, a0 in digits]
        self.mul_table = [
            [(a0 * b0 + n * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p) for b1, b0 in digits]
            for a1, a0 in digits
        ]
        self.neg_table = [-a0 % p + p * (-a1 % p) for a1, a0 in digits]
        # entry 0 is a placeholder: `inv` refuses 0 before reading it
        self.inv_table = [0] + [row.index(1) for row in self.mul_table[1:]]

        if zeta is None:
            zeta = self._smallest_generator()
        elif self._order(zeta) != q - 1:
            raise ValueError(f"zeta={zeta} does not generate the unit group of F_{q}")
        self.zeta = zeta

        exp_table = [1]
        x = 1
        for _ in range(q - 2):
            x = self.mul(x, zeta)
            exp_table.append(x)
        self.exp_table = exp_table
        self.log_table = {x: k for k, x in enumerate(exp_table)}
        if len(self.log_table) != q - 1:
            raise AssertionError("primitive root table is inconsistent")

    # -- scalar arithmetic on encodings ------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def affine_values(self, a: int, b: int) -> list[int]:
        """a + x * b for every x of F_q, in encoding order."""
        return list(map(self.add_table[a].__getitem__, self.mul_table[b]))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 is not invertible")
        return self.inv_table[a]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise DomainError("0**n undefined for n <= 0")
            return 0
        return self.exp_table[(self.log_table[a] * n) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        """Discrete log base the canonical primitive root; a must be nonzero."""
        if a == 0:
            raise DomainError("discrete log of 0")
        return self.log_table[a]

    def from_int(self, n: int) -> int:
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def _order(self, a: int) -> int:
        if a == 0:
            return 0
        x = a
        k = 1
        while x != 1:
            x = self.mul(x, a)
            k += 1
            if k > self.q:
                raise AssertionError("order computation ran away")
        return k

    def _smallest_generator(self) -> int:
        for a in range(2, self.q):
            if self._order(a) == self.q - 1:
                return a
        raise AssertionError(f"no generator found for q={self.q}")

    # -- coefficient sequences (the Laurent-series kernels) ------------------

    def convolve(self, a, b) -> np.ndarray:
        """Full linear convolution of two coefficient sequences (series product).

        numpy's convolution, the reference that the tests compare the packed
        kernels against; nothing in the package calls it, so no run of the
        package loads numpy."""
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.f == 1:
            return np.convolve(a, b) % self.p
        p, n = self.p, self.nonsquare
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        r0 = (np.convolve(a0, b0) + n * np.convolve(a1, b1)) % p
        r1 = (np.convolve(a0, b1) + np.convolve(a1, b0)) % p
        return r0 + p * r1

    def mul_trunc(self, a, b, n: int) -> list[int]:
        """First n coefficients of the product of two coefficient sequences.

        A schoolbook loop for at most CONVOLVE_CUTOVER coefficient pairs over
        F_p; a longer product over F_p is one packed integer product.  Over
        F_{p^2} the four products of the F_p coordinates are packed, combined
        over the integers and reduced once.
        """
        p = self.p
        if self.f == 1:
            if len(a) * len(b) > CONVOLVE_CUTOVER:
                return [v % p for v in _packed_product(a, b, p - 1)[:n]]
            # accumulate over the integers, reduce once per coefficient
            out = [0] * min(len(a) + len(b) - 1, n)
            for i, x in enumerate(a[:n]):
                for k, y in enumerate(b[: n - i], i):
                    out[k] += x * y
            return [v % p for v in out]
        # (a0 + x a1)(b0 + x b1) = a0 b0 + r a1 b1 + x (a0 b1 + a1 b0) with x**2 = r
        r = self.nonsquare
        a0, a1 = [v % p for v in a], [v // p for v in a]
        b0, b1 = [v % p for v in b], [v // p for v in b]
        top = p - 1
        return [
            (u + r * v) % p + p * ((s + t) % p)
            for u, v, s, t in zip(
                _packed_product(a0, b0, top)[:n],
                _packed_product(a1, b1, top),
                _packed_product(a0, b1, top),
                _packed_product(a1, b0, top),
            )
        ]

    def graeffe(self, a, n: int) -> list[int]:
        """First n coefficients of a(x) * a(-x) read in x**2, Graeffe's
        root-squaring step: with a(x) = A(x**2) + x * B(x**2) it is
        A**2 - x * B**2, two `mul_trunc` squares of half-length operands."""
        even, odd = a[::2], a[1::2]
        out = self.mul_trunc(even, even, n)
        if odd and n > 1:
            sq = self.mul_trunc(odd, odd, n - 1)
            out += [0] * (len(sq) + 1 - len(out))
            sub = self.sub
            for k, y in enumerate(sq, 1):
                out[k] = sub(out[k], y)
        return out

    def _unit_series(self, b, n: int) -> list[int]:
        """The first n coefficients of b without trailing zeros; b[0] must be a unit."""
        coeffs = [int(v) for v in b[:n]]
        if coeffs[0] == 0:
            raise DomainError("series division needs an invertible constant term")
        while not coeffs[-1]:
            coeffs.pop()
        return coeffs

    def series_inverse(self, b, n: int) -> list[int]:
        """First n coefficients of 1 / (b0 + b1*T + ...); requires b[0] != 0.

        The recurrence of `series_quotient` costs O(n * len(b)) field
        operations; an operand of more than NEWTON_CUTOVER terms instead
        doubles the number of correct terms per step by Newton iteration on
        `mul_trunc` (Brent and Zimmermann, Modern Computer Arithmetic, 4.2).
        """
        coeffs = self._unit_series(b, n)
        if len(coeffs) <= NEWTON_CUTOVER:
            return self._recurrence((1,), coeffs, n)
        x = [self.inv(coeffs[0])]
        k = 1
        while k < n:
            k2 = min(2 * k, n)
            # b * x = 1 + T**k * d mod T**k2, so x - T**k * x * d inverts b mod T**k2
            d = self.mul_trunc(coeffs[:k2], x, k2)[k:]
            x += map(self.neg, self.mul_trunc(x, d, k2 - k))
            k = k2
        return x

    def series_quotient(self, a, b, n: int) -> list[int]:
        """First n coefficients of (a0 + a1*T + ...) / (b0 + b1*T + ...);
        requires b[0] != 0.  The same digits as `mul_trunc(a,
        series_inverse(b, n), n)` from one recurrence, O(n * len(b)) field
        operations."""
        return self._recurrence(a, self._unit_series(b, n), n)

    def _recurrence(self, a, b: list[int], n: int) -> list[int]:
        """x_k = (a_k - sum_{j>=1} b_j x_{k-j}) / b_0 for k < n, b as `_unit_series` leaves it.

        The taps -b_j / b_0 are scaled once, and a window of the last
        len(b) - 1 terms, oldest first, slides along."""
        c = self.inv(b[0])
        window = deque([0] * (len(b) - 1), maxlen=len(b) - 1)
        out = []
        if self.f == 1:
            p = self.p
            taps = [-c * v % p for v in b[:0:-1]]
            heads = [c * v for v in a[:n]]
            for h in heads + [0] * (n - len(heads)):
                v = (h + sum(map(operator.mul, taps, window))) % p
                window.append(v)
                out.append(v)
            return out
        add, mul = self.add_table, self.mul_table
        taps = [mul[self.neg(c)][v] for v in b[:0:-1]]
        heads = [mul[c][v] for v in a[:n]]
        for v in heads + [0] * (n - len(heads)):
            for u, w in zip(taps, window):
                v = add[v][mul[u][w]]
            window.append(v)
            out.append(v)
        return out

    def __repr__(self) -> str:
        return f"ResidueField(q={self.q}, zeta={self.zeta})"


@lru_cache(maxsize=None)
def make_field(q: int, zeta: int | None = None) -> ResidueField:
    """Construct (and cache) the residue field for q; deterministic for fixed q."""
    return ResidueField(q, zeta)


# ---------------------------------------------------------------------------
# characters


def eta_residue(field: ResidueField, x: int) -> UnitI:
    """The order-four character with eta(zeta) = i; multiplicative on F_q^x."""
    if x == 0:
        raise DomainError("eta is undefined at 0")
    return UnitI(field.dlog(x) % 4)


def sgn(field: ResidueField, x: int) -> UnitI:
    """The quadratic character: +1 on squares, -1 on non-squares; equals eta**2."""
    if x == 0:
        raise DomainError("sgn is undefined at 0")
    return UnitI(2 * (field.dlog(x) % 2))


def char_sum_eta_squares(field: ResidueField) -> HeckeCoeff:
    """Sum of eta(x**2) over the multiplicative group; 0 by orthogonality."""
    total = COEFF_ZERO
    for x in range(1, field.q):
        total = total + eta_residue(field, field.mul(x, x)).as_coeff()
    return total
