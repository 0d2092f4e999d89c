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
a + b*x where x**2 equals a fixed non-square of F_p.  The encodings keep
numpy-vectorised coefficient arithmetic (used by the Laurent-series layer)
cheap and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


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

    def conjugate(self) -> "HeckeCoeff":
        return HeckeCoeff(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @staticmethod
    def from_int(n: int) -> "HeckeCoeff":
        return HeckeCoeff(n, 0)

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
    concurrent use.  Scalar elements are integer encodings; the vectorised
    helpers (vadd, vmul, convolve, ...) act on int64 numpy arrays of
    encodings and are the workhorses of the Laurent-series arithmetic.
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
        # Modulus x**2 - n for F_{p^2}: the smallest non-square n of F_p.
        self.nonsquare = 0
        if f == 2:
            squares = {(a * a) % p for a in range(1, p)}
            self.nonsquare = min(a for a in range(2, p) if a not in squares)

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
        if self.f == 1:
            return (a + b) % self.p
        p = self.p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.f == 1:
            return (-a) % self.p
        p = self.p
        return (-a % p) % p + p * ((-(a // p)) % p)

    def mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.p
        p, n = self.p, self.nonsquare
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        return (a0 * b0 + n * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("0 is not invertible")
        return self.exp_table[(self.q - 1 - self.log_table[a]) % (self.q - 1)]

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
            if a % self.p == 0 and self.f == 1:
                continue
            if self._order(a) == self.q - 1:
                return a
        raise AssertionError(f"no generator found for q={self.q}")

    # -- vectorised arithmetic on arrays of encodings -----------------------

    def _split(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return arr % self.p, arr // self.p

    def _join(self, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
        return c0 + self.p * c1

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.f == 1:
            return (a + b) % self.p
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join((a0 + b0) % self.p, (a1 + b1) % self.p)

    def vneg(self, a: np.ndarray) -> np.ndarray:
        if self.f == 1:
            return (-a) % self.p
        a0, a1 = self._split(a)
        return self._join((-a0) % self.p, (-a1) % self.p)

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two encoding arrays."""
        if self.f == 1:
            return (a * b) % self.p
        p, n = self.p, self.nonsquare
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join((a0 * b0 + n * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def vscale(self, c: int, a: np.ndarray) -> np.ndarray:
        if self.f == 1:
            return (c * a) % self.p
        p, n = self.p, self.nonsquare
        c0, c1 = c % p, c // p
        a0, a1 = self._split(a)
        return self._join((c0 * a0 + n * c1 * a1) % p, (c0 * a1 + c1 * a0) % p)

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full linear convolution of two coefficient arrays (series product)."""
        if self.f == 1:
            return np.convolve(a, b) % self.p
        p, n = self.p, self.nonsquare
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        r0 = (np.convolve(a0, b0) + n * np.convolve(a1, b1)) % p
        r1 = (np.convolve(a0, b1) + np.convolve(a1, b0)) % p
        return self._join(r0, r1)

    def series_inverse(self, b: np.ndarray, n: int) -> np.ndarray:
        """First n coefficients of 1 / (b0 + b1*T + ...); requires b[0] != 0.

        Newton doubling: x -> x*(2 - b*x) doubles the number of correct
        coefficients per step.
        """
        if b[0] == 0:
            raise DomainError("series inverse needs an invertible constant term")
        nz = np.flatnonzero(b)
        supp = int(nz[-1]) + 1
        out = np.zeros(n, dtype=np.int64)
        out[0] = self.inv(int(b[0]))
        if supp == 1:
            return out
        b = b[: min(supp, n)]
        x = out[:1]
        prec = 1
        two = self.from_int(2)
        while prec < n:
            prec = min(2 * prec, n)
            t = self.vneg(self.convolve(b[:prec], x)[:prec])
            t[0] = self.add(int(t[0]), two)
            x = self.convolve(x, t)[:prec]
        out[: len(x)] = x
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
