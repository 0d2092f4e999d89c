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
encodings; the field supplies its sequence kernels, each a loop on the same
tables: the truncated product ``mul_trunc`` (the schoolbook loop),
``series_inverse`` (the one series division, a recurrence) and the
root-squaring step ``graeffe`` that norms are built from.  None of them
uses numpy; ``convolve`` is numpy's convolution, kept as the reference that
the tests compare these kernels against.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


# ---------------------------------------------------------------------------
# exact Gaussian-integer scalars and fourth roots of unity


class Frozen:
    """Base of the package's immutable values.  A subclass names its fields in
    ``__slots__`` and sets each once, when the value is built, through
    ``object.__setattr__``; any later assignment or deletion raises.  Copies
    and pickles rebuild the value through its constructor, so the
    constructor must take the fields in ``__slots__`` order; a subclass with
    a slot that is not a constructor argument, such as a cached hash,
    defines its own ``__reduce__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


_set = object.__setattr__


class HeckeCoeff(Frozen):
    """A Gaussian integer re + im*i, the exact carrier for all scalar values."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        _set(self, "re", re)
        _set(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is not HeckeCoeff:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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


class UnitI(Frozen):
    """i**exp for a fixed square root i of -1; exp is reduced mod 4.

    Interned: ``UnitI(k)``, products, powers, inverses and the characters
    ``eta_residue`` and ``sgn`` return one of four shared instances, so
    copies and pickles, which rebuild through the constructor, do too."""

    __slots__ = ("exp",)

    def __new__(cls, exp: int):
        return _UNITS[exp % 4]

    def __eq__(self, other):
        if other.__class__ is not UnitI:
            return NotImplemented
        return self.exp == other.exp

    def __hash__(self):
        return hash((self.exp,))

    def __mul__(self, other: "UnitI") -> "UnitI":
        return _UNITS[(self.exp + other.exp) % 4]

    def __pow__(self, n: int) -> "UnitI":
        return _UNITS[self.exp * n % 4]

    def inverse(self) -> "UnitI":
        return _UNITS[-self.exp % 4]

    def as_coeff(self) -> HeckeCoeff:
        return _UNIT_COEFFS[self.exp]

    def __repr__(self) -> str:
        return ("1", "i", "-1", "-i")[self.exp]


def _unit(exp: int) -> UnitI:
    u = object.__new__(UnitI)
    _set(u, "exp", exp)
    return u


_UNITS = tuple(map(_unit, range(4)))
_UNIT_COEFFS = (COEFF_ONE, HeckeCoeff(0, 1), HeckeCoeff(-1, 0), HeckeCoeff(0, -1))
UNIT_ONE, UNIT_I, UNIT_MINUS_ONE = _UNITS[:3]


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
    concurrent use.  Scalar elements are integer encodings in [0, q).  The
    scalar operations and the series kernels ``mul_trunc``, ``graeffe`` and
    ``series_inverse`` read tables built at construction, on one path for
    every q; ``convolve``, the numpy reference for the kernels, is the one
    method that reads the encoding's coordinates.
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

        numpy's convolution, the reference that the tests compare the
        table-driven kernels against; nothing in the package calls it, so no
        run of the package loads numpy."""
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

        The schoolbook loop on the field's tables, one path for every q and
        every operand size: each a_i picks one row of the multiplication
        table, and its products with b are added into their slots."""
        add, mul = self.add_table, self.mul_table
        out = [0] * min(len(a) + len(b) - 1, n)
        for i, x in enumerate(a[:n]):
            row = mul[x]
            for k, y in enumerate(b[: n - i], i):
                out[k] = add[out[k]][row[y]]
        return out

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

    def series_inverse(self, b, n: int) -> list[int]:
        """First n coefficients of 1 / (b0 + b1*T + ...); requires b[0] != 0.

        x_0 = 1 / b_0 and x_k = -(b_1 x_{k-1} + b_2 x_{k-2} + ...) / b_0, in
        O(n * len(b)) table reads: the taps -b_j / b_0 are scaled once, and a
        window of the last len(b) - 1 terms, oldest first, slides along."""
        coeffs = [int(v) for v in b[:n]]
        if coeffs[0] == 0:
            raise DomainError("series division needs an invertible constant term")
        while not coeffs[-1]:
            coeffs.pop()
        add, mul = self.add_table, self.mul_table
        c = self.inv(coeffs[0])
        taps = [mul[self.neg(c)][v] for v in coeffs[:0:-1]]
        window = deque([0] * len(taps), maxlen=len(taps))
        out = []
        for v in [c] + [0] * (n - 1):
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
    return _UNITS[field.dlog(x) % 4]


def sgn(field: ResidueField, x: int) -> UnitI:
    """The quadratic character: +1 on squares, -1 on non-squares; equals eta**2."""
    if x == 0:
        raise DomainError("sgn is undefined at 0")
    return _UNITS[2 * (field.dlog(x) % 2)]


def char_sum_eta_squares(field: ResidueField) -> HeckeCoeff:
    """Sum of eta(x**2) over the multiplicative group; 0 by orthogonality."""
    total = COEFF_ZERO
    for x in range(1, field.q):
        total = total + eta_residue(field, field.mul(x, x)).as_coeff()
    return total
