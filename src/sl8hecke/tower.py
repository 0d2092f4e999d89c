"""Truncated Laurent-series model of the ramified local-field tower.

The base field is F = F_q((t)) in equal characteristic.  On top of it sit
two totally ramified extensions, each a Laurent-series field in its own
uniformizer:

    E2 = F_q((pi2))  with  pi2**2 = -t,
    E4 = F_q((pi4))  with  pi4**4 = -zeta*t,

where zeta is the canonical primitive root of F_q.  E2 and E4 are separate
towers over F; no embedding between them is needed (and none exists, since
zeta is a non-square).

An element is a leading exponent plus a window of N coefficients from that
exponent, where N is the relative precision fixed by its Tower.  The
window is stored as a trimmed tuple: c0 != 0 and no trailing zeros, so
the tuple's length is the element's support and operations cost what the
support costs.  Arithmetic is exact on exponents; addition renormalises after
cancellation.  If a sum cancels its entire retained window the element is
indistinguishable from zero at this precision and the operation raises
:class:`PrecisionExhausted` -- a hard error, never a silent zero.  All
quantities produced by the verification runs are Laurent polynomials of
tiny support, for which the window model is exact; window tails created by
division are correct to relative precision N.

Galois actions are coefficientwise: the generator of Gal(E2/F) sends
pi2 -> -pi2, the chosen generator of Gal(E4/F) sends pi4 -> i4*pi4 with
i4 = zeta**((q-1)/4) a fixed fourth root of unity in F_q.  Traces to F
sum the conjugates and re-read the result in t.  Norms to F never form the
conjugates: for U = A(pi**2) + pi*B(pi**2), U(pi) * U(-pi) = A**2 - pi**2 * B**2
(Graeffe's root-squaring step), applied once over E2 and twice over E4,
where U(i4*pi) * U(-i4*pi) is the same step with pi**2 -> -pi**2.  Division
is the product with the inverse, and `LaurentElem.inverse` is the one caller
of the field's series inverse.

A monomial, one term c * pi**e, is multiplied, inverted and normed here;
longer elements, the Galois action, traces, `Tower.embed` and the samplers
are `series`'s, imported on first call (this module still serves the
samplers, `__getattr__`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .residue import DomainError, ResidueField, UnitI, eta_residue, moved_method, moved_names

if TYPE_CHECKING:
    from fractions import Fraction

F = "F"
E2 = "E2"
E4 = "E4"

RAMIFICATION = {F: 1, E2: 2, E4: 4}

# the samplers moved to `series`
__getattr__ = moved_names(globals(), series=("norm_unit_image_check", "random_unit", "random_element"))


class PrecisionExhausted(ArithmeticError):
    """Every retained coefficient cancelled; the value cannot be told from 0."""


class TagMismatch(ValueError):
    """Operands live in different fields of the tower."""


class Tower:
    """A session: the residue field plus the three Laurent-series fields.

    Immutable after construction.  ``cache`` is a scratch dict used by
    higher layers to memoise the canonical lifts, their letters, the
    identity element and the coset transversals per session.
    """

    def __init__(self, field: ResidueField, precision: int = 40):
        if precision < 16:
            raise ValueError(f"precision {precision} too small (need >= 16)")
        self.field = field
        self.N = precision
        self.q = field.q
        # Fourth root of unity fixing the E4 Galois generator.
        self.i4 = field.pow(field.zeta, (field.q - 1) // 4)
        # t = u_e * pi_e**e in each upper field.
        self.t_unit = {
            F: 1,
            E2: field.neg(1),
            E4: field.mul(field.neg(1), field.inv(field.zeta)),
        }
        self.cache: dict = {}
        self._zeros: dict = {}
        self._galois_patterns: dict = {}
        self._base_patterns: dict = {}
        self._constants: dict = {}

    # -- constructors -------------------------------------------------------

    def zero(self, tag: str) -> "LaurentElem":
        got = self._zeros.get(tag)
        if got is None:
            got = LaurentElem(self, tag, 0, ())
            self._zeros[tag] = got
        return got

    def from_coeffs(self, tag: str, lead: int, coeffs) -> "LaurentElem":
        vals = [int(v) for v in coeffs]
        # exact unless the given support was truncated away
        exact = not any(vals[self.N :])
        k, window = _trim(vals[: self.N])
        if not window:
            return self.zero(tag)
        return LaurentElem(self, tag, lead + k, window, exact)

    def constant(self, tag: str, enc: int) -> "LaurentElem":
        if enc == 0:
            return self.zero(tag)
        got = self._constants.get((tag, enc, 0))
        if got is None:
            got = LaurentElem(self, tag, 0, (enc,))
            self._constants[(tag, enc, 0)] = got
        return got

    def one(self, tag: str) -> "LaurentElem":
        return self.constant(tag, 1)

    def integer(self, tag: str, n: int) -> "LaurentElem":
        return self.constant(tag, self.field.from_int(n))

    def uniformizer(self, tag: str) -> "LaurentElem":
        got = self._constants.get((tag, 1, 1))
        if got is None:
            got = LaurentElem(self, tag, 1, (1,))
            self._constants[(tag, 1, 1)] = got
        return got

    def t(self, tag: str) -> "LaurentElem":
        """The base uniformizer t viewed inside the field `tag`."""
        # t = t_unit[tag] * pi_e**e in every field of the tower.
        return self.from_coeffs(tag, RAMIFICATION[tag], [self.t_unit[tag]])

    embed = moved_method("series", "embed")  # (x, tag): an F-element viewed in E2 or E4

    def __repr__(self) -> str:
        return f"Tower(q={self.q}, N={self.N})"


def _trim(vals: list) -> tuple[int, tuple]:
    """(number of leading zeros, the values without leading and trailing zeros)."""
    end = len(vals)
    while end and not vals[end - 1]:
        end -= 1
    k = 0
    while k < end and not vals[k]:
        k += 1
    return k, tuple(vals[k:end])


class LaurentElem:
    """pi**lead * (c0 + c1*pi + ... + c_{supp-1}*pi**(supp-1)) in one tower field.

    Immutable value.  ``coeffs`` is the retained window as a trimmed tuple
    of encodings (c0 != 0, no trailing zeros; ``()`` for zero), read as
    zero-padded to N coefficients.  ``exact`` records that the retained
    window is the complete value (a Laurent polynomial), which is what
    licenses recognising a full-window cancellation as a genuine zero;
    division and window overflow clear it.
    """

    __slots__ = ("tower", "tag", "lead", "coeffs", "is_zero", "exact")

    def __init__(self, tower: Tower, tag: str, lead: int, coeffs: tuple, exact: bool = True):
        self.tower = tower
        self.tag = tag
        self.coeffs = coeffs
        self.is_zero = not coeffs
        self.lead = 0 if self.is_zero else lead
        self.exact = exact or self.is_zero

    @property
    def supp(self) -> int:
        """Index of the last nonzero retained coefficient, plus one."""
        return len(self.coeffs)

    # -- valuations ---------------------------------------------------------

    def ord(self) -> Fraction:
        """Valuation normalised so that ord(t) = 1."""
        # fractions is imported here: no report row reads ord, only tests do
        from fractions import Fraction

        if self.is_zero:
            raise DomainError("ord of zero")
        return Fraction(self.lead, RAMIFICATION[self.tag])

    def ord_norm(self) -> int:
        """Valuation normalised so that the field's own uniformizer has ord 1."""
        if self.is_zero:
            raise DomainError("ord of zero")
        return self.lead

    def unit_residue(self) -> int:
        """Leading coefficient; for a unit this is its residue in F_q."""
        if self.is_zero:
            raise DomainError("residue of zero")
        return self.coeffs[0]

    def is_integral(self) -> bool:
        return self.is_zero or self.lead >= 0

    def is_unit(self) -> bool:
        return not self.is_zero and self.lead == 0

    def in_maximal_ideal(self) -> bool:
        return self.is_zero or self.lead >= 1

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "LaurentElem") -> None:
        if self.tag != other.tag:
            raise TagMismatch(f"{self.tag} vs {other.tag}")

    def __add__(self, other: "LaurentElem") -> "LaurentElem":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if other.lead < self.lead:
            self, other = other, self
        tw = self.tower
        N = tw.N
        add = tw.field.add
        a, b = self.coeffs, other.coeffs
        off = other.lead - self.lead
        # the window is [self.lead, self.lead + N); b starts `off` into it
        retained = self.exact and other.exact and off + len(b) <= N
        out = list(a)
        out += [0] * (min(off + len(b), N) - len(a))
        for k, y in enumerate(b[: max(N - off, 0)], off):
            out[k] = add(out[k], y)
        k, window = _trim(out)
        if not window:
            if retained:
                return tw.zero(self.tag)  # certified genuine cancellation
            raise PrecisionExhausted(f"all {N} retained coefficients cancelled in {self.tag}")
        return LaurentElem(tw, self.tag, self.lead + k, window, retained)

    def __neg__(self) -> "LaurentElem":
        if self.is_zero:
            return self
        neg = self.tower.field.neg
        return LaurentElem(self.tower, self.tag, self.lead, tuple(map(neg, self.coeffs)), self.exact)

    def __sub__(self, other: "LaurentElem") -> "LaurentElem":
        return self + (-other)

    def __mul__(self, other: "LaurentElem") -> "LaurentElem":
        self._check(other)
        tw = self.tower
        a, b = self.coeffs, other.coeffs
        if not a:
            return self
        if not b:
            return other
        fld = tw.field
        lead = self.lead + other.lead
        exact = self.exact and other.exact
        if len(a) == len(b) == 1:
            return LaurentElem(tw, self.tag, lead, (fld.mul(a[0], b[0]),), exact)
        exact = exact and len(a) + len(b) - 1 <= tw.N
        # c0 is a product of units; truncation may leave trailing zeros
        return LaurentElem(tw, self.tag, lead, _trim(fld.mul_trunc(a, b, tw.N))[1], exact)

    def inverse(self) -> "LaurentElem":
        tw = self.tower
        if self.is_zero:
            raise ZeroDivisionError(f"division by zero in {self.tag}")
        if self.supp == 1:  # monomial: exact O(1) inversion
            return LaurentElem(tw, self.tag, -self.lead, (tw.field.inv(self.coeffs[0]),), self.exact)
        from .series import inverse_series

        return inverse_series(self)

    def __truediv__(self, other: "LaurentElem") -> "LaurentElem":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "LaurentElem":
        base = self if n >= 0 else self.inverse()
        m = abs(n)
        out = self.tower.one(self.tag)
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElem):
            return NotImplemented
        # zero is the only element with an empty window, and it has lead 0
        return self.tag == other.tag and self.lead == other.lead and self.coeffs == other.coeffs

    __hash__ = None  # equality ignores `exact`: equal keys could differ in precision

    # -- Galois, norm, trace --------------------------------------------------

    galois = moved_method("series", "galois")  # (k): the k-th power of the chosen generator
    _to_base = moved_method("series", "to_base")

    def norm_to_F(self) -> "LaurentElem":
        """Product of all Galois conjugates, read in F."""
        if self.tag == F:
            return self
        if self.is_zero:
            return self.tower.zero(F)
        tw = self.tower
        fld = tw.field
        if self.supp == 1:
            # monomial c * pi**m: the conjugate product collapses to
            # c**2 * t**m over the quadratic field, c**4 * zeta**m * t**m
            # over the quartic one
            c = self.coeffs[0]
            if self.tag == E2:
                value = fld.pow(c, 2)
            else:
                value = fld.mul(fld.pow(c, 4), fld.pow(fld.zeta, self.lead))
            return LaurentElem(tw, F, self.lead, (value,), self.exact)
        from .series import norm_series

        return norm_series(self)

    trace_to_F = moved_method("series", "trace_to_F")

    def eta(self) -> UnitI:
        """The character of F^x that is trivial on t and 1 + tF_q[[t]] and
        sends zeta to i; reads only the unit-part residue."""
        if self.tag != F:
            raise TagMismatch("eta is a character of F^x")
        if self.is_zero:
            raise DomainError("eta of zero")
        return eta_residue(self.tower.field, self.coeffs[0])

    # -- display --------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return f"{self.tag}:0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if len(terms) >= 6:
                terms.append("...")
                break
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append(f"{c}*pi" if c != 1 else "pi")
            else:
                terms.append(f"{c}*pi^{j}" if c != 1 else f"pi^{j}")
        body = " + ".join(terms)
        if self.lead == 0:
            return f"{self.tag}:({body})"
        return f"{self.tag}:pi^{self.lead}*({body})"
