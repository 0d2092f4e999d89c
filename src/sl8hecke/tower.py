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
where U(i4*pi) * U(-i4*pi) is the same step with pi**2 -> -pi**2.  A norm of
a window longer than one term is memoised on its Tower by value and `exact`
flag.
"""

from __future__ import annotations

from fractions import Fraction

from .residue import NEWTON_CUTOVER, DomainError, ResidueField, UnitI, eta_residue

F = "F"
E2 = "E2"
E4 = "E4"

RAMIFICATION = {F: 1, E2: 2, E4: 4}


class PrecisionExhausted(ArithmeticError):
    """Every retained coefficient cancelled; the value cannot be told from 0."""


class TagMismatch(ValueError):
    """Operands live in different fields of the tower."""


class Tower:
    """A session: the residue field plus the three Laurent-series fields.

    Immutable after construction.  ``cache`` is a scratch dict used by
    higher layers to memoise lifts and transversals per session.
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
        self._norms: dict = {}

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

    def embed(self, x: "LaurentElem", tag: str) -> "LaurentElem":
        """View an F-element inside E2 or E4 (identity for tag F)."""
        if x.tag != F:
            raise TagMismatch(f"can only embed F-elements, got {x.tag}")
        if tag == F or x.is_zero:
            return x if tag == F else self.zero(tag)
        e = RAMIFICATION[tag]
        u = self.t_unit[tag]
        fld = self.field
        # base digit j lands at position e*j with the factor u**(lead + j)
        kept = x.coeffs[: -(-self.N // e)]
        out = [0] * (e * (len(kept) - 1) + 1)
        scale = fld.pow(u, x.lead) if x.lead != 0 else 1
        for j, c in enumerate(kept):
            if c:
                out[e * j] = fld.mul(c, scale)
            scale = fld.mul(scale, u)
        exact = x.exact and e * (x.supp - 1) < self.N
        return LaurentElem(self, tag, e * x.lead, _trim(out)[1], exact)

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
        if len(b) == 1:
            if len(a) == 1:
                return LaurentElem(tw, self.tag, lead, (fld.mul(a[0], b[0]),), exact)
            a, b = b, a
        if len(a) == 1:
            # a product of nonzero field elements is nonzero: no trimming
            row = fld.mul_table[a[0]]
            return LaurentElem(tw, self.tag, lead, tuple([row[y] for y in b]), exact)
        exact = exact and len(a) + len(b) - 1 <= tw.N
        # c0 is a product of units; truncation may leave trailing zeros
        return LaurentElem(tw, self.tag, lead, _trim(fld.mul_trunc(a, b, tw.N))[1], exact)

    def inverse(self) -> "LaurentElem":
        tw = self.tower
        if self.is_zero:
            raise ZeroDivisionError(f"division by zero in {self.tag}")
        if self.supp == 1:  # monomial: exact O(1) inversion
            return LaurentElem(tw, self.tag, -self.lead, (tw.field.inv(self.coeffs[0]),), self.exact)
        inv = tw.field.series_inverse(self.coeffs, tw.N)
        return LaurentElem(tw, self.tag, -self.lead, _trim(inv)[1], False)

    def __truediv__(self, other: "LaurentElem") -> "LaurentElem":
        self._check(other)
        if self.is_zero or not 2 <= other.supp <= NEWTON_CUTOVER:
            return self * other.inverse()
        # one recurrence gives the window of self * other.inverse()
        tw = self.tower
        digits = tw.field.series_quotient(self.coeffs, other.coeffs, tw.N)
        return LaurentElem(tw, self.tag, self.lead - other.lead, _trim(digits)[1], False)

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

    def galois(self, k: int) -> "LaurentElem":
        """Apply the k-th power of the chosen Galois generator of this field."""
        tw = self.tower
        e = RAMIFICATION[self.tag]
        k %= e
        if k == 0 or self.is_zero:
            return self
        fld = tw.field
        # multiplier at position j is (generator image unit)**(k*(lead+j)),
        # a periodic pattern cached per (tag, k, lead mod period)
        key = (self.tag, k, self.lead % e)
        pattern = tw._galois_patterns.get(key)
        if pattern is None:
            if self.tag == E2:
                unit = fld.neg(1)  # pi2 -> -pi2
            else:
                unit = fld.pow(tw.i4, k)  # pi4 -> i4**k * pi4
            vals = []
            acc = fld.pow(unit, self.lead % e) if self.lead % e else 1
            for _ in range(tw.N):
                vals.append(acc)
                acc = fld.mul(acc, unit)
            pattern = tuple(vals)
            tw._galois_patterns[key] = pattern
        coeffs = tuple(map(fld.mul, self.coeffs, pattern))
        return LaurentElem(tw, self.tag, self.lead, coeffs, self.exact)

    def _to_base(self, w0: int, digits, exact: bool, sign: int = 1) -> "LaurentElem":
        """Read sign * pi**(e*w0) * sum_j digits[j] * pi**(e*j) (trimmed, at most N/e digits rounded up)
        in F: t = t_unit * pi**e, so base digit j is sign * t_unit**-(w0 + j) * digits[j]."""
        tw = self.tower
        fld = tw.field
        # the w-independent part of the scale is cached
        pattern = tw._base_patterns.get(self.tag)
        if pattern is None:
            u_inv = fld.inv(tw.t_unit[self.tag])
            vals = []
            acc = 1
            for _ in range(tw.N):
                vals.append(acc)
                acc = fld.mul(acc, u_inv)
            pattern = tuple(vals)
            tw._base_patterns[self.tag] = pattern
        scaled = map(fld.mul, digits, pattern)
        head_scale = fld.mul(sign, fld.pow(fld.inv(tw.t_unit[self.tag]), w0))
        if head_scale != 1:
            scaled = [fld.mul(head_scale, c) for c in scaled]
        return LaurentElem(tw, F, w0, tuple(scaled), exact)

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
        key = (self.tag, self.lead, self.coeffs, self.exact)
        got = tw._norms.get(key)
        if got is None:
            # the conjugates of pi**lead * U(pi) are r**lead * pi**lead * U(r*pi) over
            # the e-th roots of unity r, whose product is (-1)**lead; the first N
            # coefficients of the product need only the first N of U
            e = RAMIFICATION[self.tag]
            digits, n = self.coeffs, tw.N
            for _ in range(e.bit_length() - 1):
                n = -(-n // 2)
                digits = fld.graeffe(digits, n)
            # the product of e windows of supp s is exact while its e * (s - 1) + 1 terms fit
            exact = self.exact and e * (self.supp - 1) < tw.N
            sign = fld.neg(1) if self.lead % 2 else 1
            got = tw._norms[key] = self._to_base(self.lead, _trim(digits)[1], exact, sign)
        return got

    def trace_to_F(self) -> "LaurentElem":
        """Sum of all Galois conjugates, read in F."""
        if self.tag == F:
            return self
        if self.is_zero:
            return self.tower.zero(F)
        tw = self.tower
        e = RAMIFICATION[self.tag]
        add = tw.field.add
        # All conjugates share the window [lead, lead+N); sum positionally in
        # one pass so intermediate partial sums cannot masquerade as zero.
        acc = self.coeffs
        for k in range(1, e):
            acc = tuple(map(add, acc, self.galois(k).coeffs))
        j, acc = _trim(acc)
        if not acc:
            if self.exact:
                return tw.zero(F)  # genuinely trace-free (all conjugates cancel)
            raise PrecisionExhausted(
                f"trace cancelled every retained coefficient in {self.tag}"
            )
        lead = self.lead + j
        if lead % e or any(c for k, c in enumerate(acc) if k % e):
            raise AssertionError("Galois-symmetric element has stray coefficients")
        # Window tails beyond N/e base digits are exact only for polynomial
        # support, signalled by the exact flag.  The last coefficient sits
        # at a multiple of e (no strays), so the reading stays trimmed.
        return self._to_base(lead // e, acc[::e], self.exact)

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


def norm_unit_image_check(tower: Tower, tag: str, rng=None, samples: int = 100) -> bool:
    """Check that eta**2 (for E2) resp. eta (for E4) kills all unit norms.

    Exhausts the residue classes of the unit group and samples `samples`
    units with random higher-order terms.
    """
    if tag not in (E2, E4):
        raise ValueError("unit-norm image check applies to E2 or E4")
    power = 2 if tag == E2 else 1
    units = [tower.constant(tag, u) for u in tower.field.units()]
    if rng is not None:
        units += [random_unit(tower, tag, rng) for _ in range(samples)]
    for u in units:
        value = u.norm_to_F().eta() ** power
        if value.exp != 0:
            return False
    return True


def random_unit(tower: Tower, tag: str, rng, depth: int = 6) -> LaurentElem:
    """A random unit with polynomial support (exact under norms and traces)."""
    coeffs = [rng.randrange(1, tower.q)]
    coeffs += [rng.randrange(tower.q) for _ in range(depth)]
    return tower.from_coeffs(tag, 0, coeffs)


def random_element(tower: Tower, tag: str, rng, depth: int = 6, val_range: int = 4) -> LaurentElem:
    return tower.from_coeffs(
        tag,
        rng.randrange(-val_range, val_range + 1),
        [rng.randrange(1, tower.q)] + [rng.randrange(tower.q) for _ in range(depth)],
    )


