"""Concrete matrix model of the group and its compact subgroups.

The ambient group is (GL2(E2) x E4^x) intersected with SL8(F); an element
is a pair (2x2 matrix over E2, nonzero scalar of E4).  The eight-by-eight
determinant-one condition is the exact identity

    N_{E2/F}(det g2) * N_{E4/F}(g4) = 1,

so the eight-dimensional matrices are never materialised.  The standard
Iwahori is a,d units, b integral, c in the maximal ideal, with the E4
component a unit.  Two compact subgroups are modelled: the full stabiliser
(Iwahori pattern + determinant identity) and the parahoric, which adds the
residue condition (det g2 mod p) * (g4 mod p)**2 = 1.

The torus character rho sends a diagonal (x, y, z) to eta(N_{E2/F}(y));
its inflation to the compact group reads the lower-right entry.

An exact monomial, one term c * pi**e in each of its two E2 entries and
its E4 part, is held as terms: (kind, ((r1, e1), (r2, e2), (r4, e4))), kind
"diag" or "anti" and (r, e) each entry's residue and exponent.
`term_product` and `term_inverse` are its product and inverse, one F_q
operation and one integer sum per entry with no Laurent arithmetic;
`monomial_matrix` gives its matrix and `monomial_terms` reads it back from
one.  The letters of the canonical Weyl lifts are defined once, as terms
(`letters`): the unit-determinant reflection s, its affine partner s', the
central-direction torus element z with E4 part pi4**(-2) and the sign
element eps = (-1, 1, 1); `elem_s`, `elem_s_prime`, `elem_z` and `elem_eps`
are their matrices.  The unipotents u(x), l(c) are matrices.

`iwahori_decompose` factors any invertible element as k1 * m * k2 with k1,
k2 Iwahori (unipotent, so they land in both compact subgroups) and m
monomial; pivots prefer the diagonal, then row order.  It has two parts.
`pivot_step` works on invariants alone: the four entries' valuations and
leading residues and the valuation and residue of the exact determinant.
It gives m's kind, the valuations and residues of m's entries and the
quotient valuations that decide whether k1 and k2 are Iwahori, so callers
that hold only invariants (the transversal families of the Hecke layer)
share it.  The lazy builders of `Decomposition` make m's series entry, k1
and k2 (each needing the pivot inverse) on first read from the matrix; a
singular matrix raises ValueError.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cached_property

from .residue import Frozen, UnitI, eta_residue, sgn
from .tower import E2, E4, F, LaurentElem, Tower

STABILIZER = "stabilizer"
PARAHORIC = "parahoric"
VARIANTS = (STABILIZER, PARAHORIC)


class MembershipError(ValueError):
    """An element was used where a subgroup membership precondition fails."""


_set = object.__setattr__


class GroupElem(Frozen):
    """(2x2 matrix over E2, unit-scale element of E4)."""

    __slots__ = ("a", "b", "c", "d", "g4")

    def __init__(self, a: LaurentElem, b: LaurentElem, c: LaurentElem, d: LaurentElem, g4: LaurentElem):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "g4", g4)

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.g4 * other.g4,
        )

    def det2(self) -> LaurentElem:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "GroupElem":
        inv = self.det2().inverse()
        return GroupElem(
            self.d * inv, -(self.b * inv), -(self.c * inv), self.a * inv, self.g4.inverse()
        )

    def __pow__(self, n: int) -> "GroupElem":
        base = self if n >= 0 else self.inverse()
        m = abs(n)
        out = identity(self.a.tower)
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def is_diagonal(self) -> bool:
        return self.b.is_zero and self.c.is_zero

    def to_torus(self) -> "TorusElem":
        if not self.is_diagonal():
            raise ValueError("not a diagonal element")
        return TorusElem(self.a, self.d, self.g4)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElem):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
            and self.g4 == other.g4
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]] x {self.g4!r}"


class TorusElem(Frozen):
    """Diagonal element (x, y, z) of the maximal torus."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: LaurentElem, y: LaurentElem, z: LaurentElem):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def to_group(self) -> GroupElem:
        tw = self.x.tower
        return GroupElem(self.x, tw.zero(E2), tw.zero(E2), self.y, self.z)

    def __mul__(self, other: "TorusElem") -> "TorusElem":
        return TorusElem(self.x * other.x, self.y * other.y, self.z * other.z)

    def inverse(self) -> "TorusElem":
        return TorusElem(self.x.inverse(), self.y.inverse(), self.z.inverse())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusElem):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    __hash__ = None

    def __repr__(self) -> str:
        return f"TorusElem(x={self.x!r}, y={self.y!r}, z={self.z!r})"


def commutator(g: GroupElem, h: GroupElem) -> GroupElem:
    return g * h * g.inverse() * h.inverse()


# -- named elements --------------------------------------------------------------


def identity(tower: Tower) -> GroupElem:
    got = tower.cache.get("identity_elem")
    if got is None:
        one2, zero2 = tower.one(E2), tower.zero(E2)
        got = GroupElem(one2, zero2, zero2, one2, tower.one(E4))
        tower.cache["identity_elem"] = got
    return got


def letters(tower: Tower) -> dict[str, tuple]:
    """The letters of the canonical lifts as monomial terms, memoised per
    tower: s = ((0, 1), (-1, 0)) x 1, the finite reflection; s' = ((0, pi2**-1),
    (-pi2, 0)) x 1, the affine reflection; z = (diag(zeta*pi2, pi2), pi4**-2),
    the central-direction translation; eps = (-1, 1, 1), the stabiliser-only
    torus element of order two."""
    got = tower.cache.get("letters")
    if got is None:
        minus = tower.field.neg(1)
        got = tower.cache["letters"] = {
            "s": ("anti", ((1, 0), (minus, 0), (1, 0))),
            "s'": ("anti", ((1, -1), (minus, 1), (1, 0))),
            "z": ("diag", ((tower.field.zeta, 1), (1, 1), (1, -2))),
            "eps": ("diag", ((minus, 0), (1, 0), (1, 0))),
        }
    return got


def elem_s(tower: Tower) -> GroupElem:
    return monomial_matrix(tower, letters(tower)["s"])


def elem_s_prime(tower: Tower) -> GroupElem:
    return monomial_matrix(tower, letters(tower)["s'"])


def elem_z(tower: Tower) -> GroupElem:
    return monomial_matrix(tower, letters(tower)["z"])


def elem_eps(tower: Tower) -> GroupElem:
    return monomial_matrix(tower, letters(tower)["eps"])


def torus(tower: Tower, x: LaurentElem, y: LaurentElem, z: LaurentElem) -> TorusElem:
    return TorusElem(x, y, z)


def upper_u(tower: Tower, x) -> GroupElem:
    """u(x) = ((1, x), (0, 1)) x 1; x a Laurent element of E2 or a residue encoding."""
    if not isinstance(x, LaurentElem):
        x = tower.constant(E2, x)
    z2 = tower.zero(E2)
    return GroupElem(tower.one(E2), x, z2, tower.one(E2), tower.one(E4))


def lower_l(tower: Tower, c) -> GroupElem:
    """l(c) = ((1, 0), (c, 1)) x 1."""
    if not isinstance(c, LaurentElem):
        c = tower.constant(E2, c)
    z2 = tower.zero(E2)
    return GroupElem(tower.one(E2), z2, c, tower.one(E2), tower.one(E4))


# -- memberships ------------------------------------------------------------------


def in_g0(g: GroupElem) -> bool:
    """Determinant-one condition: N(det g2) * N(g4) = 1."""
    tw = g.a.tower
    det = g.det2()
    if det.is_zero or g.g4.is_zero:
        return False
    return det.norm_to_F() * g.g4.norm_to_F() == tw.one(F)


def in_iwahori(g: GroupElem) -> bool:
    return (
        g.a.is_unit()
        and g.d.is_unit()
        and g.b.is_integral()
        and g.c.in_maximal_ideal()
        and g.g4.is_unit()
    )


def _residue_condition(g: GroupElem) -> bool:
    tw = g.a.tower
    det = g.det2()
    lhs = tw.field.mul(det.unit_residue(), tw.field.pow(g.g4.unit_residue(), 2))
    return lhs == 1


def in_K0(g: GroupElem, variant: str) -> bool:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (in_iwahori(g) and in_g0(g)):
        return False
    if variant == PARAHORIC:
        return _residue_condition(g)
    return True


def compact_torus_conditions(field, variant: str, ords, residues, xy=None, z: LaurentElem | None = None) -> bool:
    """The compact-torus conditions on a diagonal (x, y, z), read from the
    valuations and leading residues of x, y, z: units, the parahoric residue
    condition, N(x * y) * N(z) = 1.  The norms read the factors xy of x * y
    and z as Laurent elements; with xy and z None, x * y and z are single
    exact terms, whose norms are (rx * ry)**2 and rz**4 by their residues."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if any(ords):
        return False
    rx, ry, rz = residues
    mul = field.mul_table
    rxy, rzz = mul[rx][ry], mul[rz][rz]
    # cheap residue condition first
    if variant == PARAHORIC and mul[rxy][rzz] != 1:
        return False
    if z is None:
        return mul[mul[rxy][rxy]][mul[rzz][rzz]] == 1
    return (xy[0] * xy[1]).norm_to_F() * z.norm_to_F() == z.tower.one(F)


def in_KM0(tt: TorusElem, variant: str) -> bool:
    entries = (tt.x, tt.y, tt.z)
    # a zero entry has infinite valuation, so its placeholder residue is never read
    residues = [0 if e.is_zero else e.unit_residue() for e in entries]
    return compact_torus_conditions(tt.z.tower.field, variant, list(map(_ordn, entries)), residues, (tt.x, tt.y), tt.z)


# -- characters ---------------------------------------------------------------------


def rho_M0(tt: TorusElem) -> UnitI:
    """eta(N_{E2/F}(y)) on torus elements of the compact part."""
    if not in_KM0(tt, STABILIZER):
        raise MembershipError("torus element is outside the compact part")
    return tt.y.norm_to_F().eta()


def rho_residues(field, rx: int, ry: int, rz: int) -> UnitI:
    """rho on a compact-torus element read from the leading residues of its
    entries: eta(N(y)), and E2/F is ramified, so N(y) has residue ry**2."""
    return eta_residue(field, field.mul(ry, ry))


def rho0(g: GroupElem, variant: str = STABILIZER) -> UnitI:
    """The depth-zero character of the compact subgroup: eta(N(d))."""
    if not in_K0(g, variant):
        raise MembershipError("element is outside the compact subgroup")
    return g.d.norm_to_F().eta()


# -- Iwahori factorisation ------------------------------------------------------------


class Monomial:
    """The middle factor of an Iwahori decomposition: diag(first, second) or
    antidiag(first; second), with the E4 part g4.  Row i holds entry i of
    (first, second), in column i for "diag" and in column 1 - i for "anti".
    Its complementary entry may be a series; it only converts with
    `as_group`.  An exact monomial, one term c * pi**e per entry, is held as
    terms instead (`term_product`)."""

    __slots__ = ("kind", "first", "second", "g4")

    def __init__(self, kind: str, first: LaurentElem, second: LaurentElem, g4: LaurentElem):
        self.kind = kind  # "diag" | "anti"
        self.first = first
        self.second = second
        self.g4 = g4

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return (self.kind, self.first, self.second, self.g4) == (other.kind, other.first, other.second, other.g4)

    def __repr__(self) -> str:
        return f"Monomial(kind={self.kind!r}, first={self.first!r}, second={self.second!r}, g4={self.g4!r})"

    def as_group(self) -> GroupElem:
        tw = self.first.tower
        z2 = tw.zero(E2)
        if self.kind == "diag":
            return GroupElem(self.first, z2, z2, self.second, self.g4)
        return GroupElem(z2, self.first, self.second, z2, self.g4)


IDENTITY_TERMS = ("diag", ((1, 0), (1, 0), (1, 0)))


def term_product(field, left, right) -> tuple[str, tuple]:
    """The product of two exact monomials given as terms (kind, ((r1, e1),
    (r2, e2), (r4, e4))), the (residue, exponent) pairs of first, second and
    the E4 part: one F_q product and one exponent sum per entry.  Row i of
    left meets row i of right (diag) or row 1 - i (anti)."""
    (kind1, ((r1, e1), (r2, e2), (r4, e4))), (kind2, ((s1, f1), (s2, f2), (s4, f4))) = left, right
    if kind1 != "diag":
        s1, f1, s2, f2 = s2, f2, s1, f1
    mul = field.mul_table
    terms = ((mul[r1][s1], e1 + f1), (mul[r2][s2], e2 + f2), (mul[r4][s4], e4 + f4))
    return ("diag" if kind1 == kind2 else "anti"), terms


def term_inverse(field, m) -> tuple[str, tuple]:
    """The inverse of an exact monomial given as terms: each entry inverted,
    the two E2 entries swapped for "anti"."""
    kind, ((r1, e1), (r2, e2), (r4, e4)) = m
    first, second = (field.inv(r1), -e1), (field.inv(r2), -e2)
    if kind == "anti":
        first, second = second, first
    return kind, (first, second, (field.inv(r4), -e4))


def monomial_matrix(tower: Tower, m) -> GroupElem:
    """The matrix of an exact monomial given as terms."""
    kind, ((r1, e1), (r2, e2), (r4, e4)) = m
    first, second = LaurentElem(tower, E2, e1, (r1,)), LaurentElem(tower, E2, e2, (r2,))
    return Monomial(kind, first, second, LaurentElem(tower, E4, e4, (r4,))).as_group()


def monomial_terms(g: GroupElem) -> tuple[str, tuple] | None:
    """g as the terms of an exact monomial, or None unless g is diagonal or
    antidiagonal with one exact term in every entry."""
    if g.b.is_zero and g.c.is_zero:
        kind, entries = "diag", (g.a, g.d, g.g4)
    elif g.a.is_zero and g.d.is_zero:
        kind, entries = "anti", (g.b, g.c, g.g4)
    else:
        return None
    if not all(len(x.coeffs) == 1 and x.exact for x in entries):
        return None
    return kind, tuple((x.coeffs[0], x.lead) for x in entries)


# Each pivot case as (pivot, num, rest, y), indices into the entries
# (a, b, c, d), then m's kind and the constructors of k1 and k2:
# g = make_k1(x) * m * make_k2(y / pivot) with x = num / pivot, and m holds
# the pivot and rest - x * y = +-det(g) / pivot.
PIVOT_CASES = (
    (0, 2, 3, 1, "diag", lower_l, upper_u),  # l(c/a) * diag(a, d - x b) * u(b/a)
    (3, 1, 0, 2, "diag", upper_u, lower_l),  # u(b/d) * diag(a - x c, d) * l(c/d)
    (1, 3, 2, 0, "anti", lower_l, lower_l),  # l(d/b) * antidiag(b, c - x a) * l(a/b)
    (2, 0, 1, 3, "anti", upper_u, upper_u),  # u(a/c) * antidiag(b - x d, c) * u(d/c)
)


def _pivot_case(ords) -> int:
    """Pivot preference (1,1), (2,2), (1,2), (2,1) on the valuations of
    (a, b, c, d), math.inf for zero; every pattern falls in exactly one case."""
    va, vb, vc, vd = ords
    if va <= vb and va <= vd and va < vc:
        return 0
    if vd <= vb and vd <= va and vd < vc:
        return 1
    if vb < va and vb < vd:
        return 2
    return 3


def pivot_step(field, ords, residues, det_ord: int, det_res: int) -> tuple:
    """The pivot case of an invertible matrix, read from its entries'
    valuations (math.inf for zero) and leading residues and from the
    valuation and residue of its determinant.

    Returns (case, ords of m's entries, their residues, the quotient
    valuations ord(num) - ord(pivot) and ord(y) - ord(pivot)).  m's
    complementary entry is +-det / pivot, so nothing is inverted and only the
    pivot's residue is read.
    """
    case = _pivot_case(ords)
    piv, num, _, y, kind, _, _ = PIVOT_CASES[case]
    vp, rp = ords[piv], residues[piv]
    product_res = det_res if kind == "diag" else field.neg(det_res)
    comp = (det_ord - vp, field.mul(product_res, field.inv(rp)))
    # the pivot is m's first entry iff it sits in g's first row
    first, second = ((vp, rp), comp) if piv < 2 else (comp, (vp, rp))
    return case, (first[0], second[0]), (first[1], second[1]), (ords[num] - vp, ords[y] - vp)


def quotients_in_iwahori(quotient_ords, make_k1, make_k2) -> bool:
    """k1 and k2 are Iwahori: the quotient valuation is >= 0 for u(x) and
    >= 1 for l(c) (math.inf for a zero quotient)."""
    return quotient_ords[0] >= (make_k1 is lower_l) and quotient_ords[1] >= (make_k2 is lower_l)


class Decomposition(
    namedtuple("Decomposition", "g case kind ords residues quotient_ords product make_k1 make_k2")
):
    """g = make_k1(x) * m * make_k2(y / pivot) in the pivot case `case` of
    PIVOT_CASES.  kind ("diag" or "anti"), ords (ord_norm of m's first and
    second entries), residues (their leading residues) and quotient_ords
    (ord(num) - ord(pivot), ord(y) - ord(pivot)) come from `pivot_step`;
    product is first * second, det(g) for "diag" and -det(g) for "anti";
    make_k1 and make_k2 build k1 and k2 from the tower and a quotient.
    `pivot_inv`, `monomial` (with the series entry), k1 and k2 are built on
    first read and kept in the instance dict, which this subclass has for
    them (it declares no ``__slots__``)."""

    @property
    def g4(self) -> LaurentElem:
        return self.g.g4

    def _entries(self) -> tuple[LaurentElem, ...]:
        """(pivot, num, rest, y)"""
        entries = (self.g.a, self.g.b, self.g.c, self.g.d)
        return tuple(entries[i] for i in PIVOT_CASES[self.case][:4])

    def factors_in_iwahori(self) -> bool:
        return quotients_in_iwahori(self.quotient_ords, self.make_k1, self.make_k2)

    @cached_property
    def pivot_inv(self) -> LaurentElem:
        return self._entries()[0].inverse()

    @cached_property
    def x(self) -> LaurentElem:
        return self._entries()[1] * self.pivot_inv

    @cached_property
    def monomial(self) -> Monomial:
        pivot, _, rest, y = self._entries()
        comp = rest - self.x * y
        first, second = (pivot, comp) if PIVOT_CASES[self.case][0] < 2 else (comp, pivot)
        return Monomial(self.kind, first, second, self.g.g4)

    @cached_property
    def k1(self) -> GroupElem:
        return self.make_k1(self.g.a.tower, self.x)

    @cached_property
    def k2(self) -> GroupElem:
        return self.make_k2(self.g.a.tower, self._entries()[3] * self.pivot_inv)


def _ordn(x: LaurentElem):
    return math.inf if x.is_zero else x.ord_norm()


def iwahori_decompose(g: GroupElem) -> Decomposition:
    """Factor g = k1 * m * k2 with k1, k2 unipotent Iwahori and m monomial.

    The unipotent factors have determinant 1 and trivial E4 part, so they
    lie in both compact subgroups.  Inverts nothing; raises ValueError for a
    singular matrix.
    """
    det = g.det2()
    if det.is_zero:
        raise ValueError("matrix is singular: the determinant is zero")
    entries = (g.a, g.b, g.c, g.d)
    residues = [0 if e.is_zero else e.unit_residue() for e in entries]
    case, ords, m_residues, quotient_ords = pivot_step(
        det.tower.field, [_ordn(e) for e in entries], residues, det.lead, det.unit_residue()
    )
    _, _, _, _, kind, make_k1, make_k2 = PIVOT_CASES[case]
    product = det if kind == "diag" else -det
    return Decomposition(g, case, kind, ords, m_residues, quotient_ords, product, make_k1, make_k2)


# -- the sign-character triviality check ------------------------------------------------


def admissible_torus_residues(field, variant: str):
    """The residue pairs (xy, z) of x * y and z over the unit triples
    (x, y, z) of the compact torus: every pair of units, in order, that
    passes `compact_torus_conditions`.  The conditions read x and y only
    through x * y, so each pair stands for its fibre of q - 1 triples."""
    for xy in range(1, field.q):
        for zr in range(1, field.q):
            if compact_torus_conditions(field, variant, (0, 0, 0), (xy, 1, zr)):
                yield xy, zr


def sign_character_trivial(field, variant: str) -> bool:
    """Exhaust the residue pairs allowed by the compact-torus constraints
    and check that the quadratic character of x*y is trivially 1 on all of them.

    The constraints force (xy)**2 * z**4 = 1 (plus xy * z**2 = 1 for the
    parahoric), so xy = +-z**(-2) is a square as -1 is when 4 | q - 1.
    """
    return all(sgn(field, xy).exp == 0 for xy, _ in admissible_torus_residues(field, variant))


# -- random members (exact constructions, used by property checks) ----------------------


def random_KM0(tower: Tower, variant: str, rng: random.Random) -> TorusElem:
    """A random element of the compact torus.

    Built from pieces whose norm condition holds exactly by construction:
    a unit pair (u, u**-1, 1), Galois-quotient twists w/sigma(w) and
    v/sigma(v) (norm one on the nose), and a constant triple
    (zeta^a, zeta^b, zeta^c) solving 2(a+b) + 4c = 0 mod q-1.  The choice
    of c mod (q-1)/4 steers the parahoric residue condition.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    fld = tower.field
    from .tower import random_unit

    u = random_unit(tower, E2, rng, depth=4)
    w = random_unit(tower, E2, rng, depth=3)
    v = random_unit(tower, E4, rng, depth=3)
    a = rng.randrange(fld.q - 1)
    b = rng.randrange(fld.q - 1)
    if (a + b) % 2:
        b = (b + 1) % (fld.q - 1)
    s = a + b
    quarter = (fld.q - 1) // 4
    c = (-(s // 2)) % quarter
    # s + 2c mod (q-1) is 0 or (q-1)/2 depending on the shift below
    if (s + 2 * c) % (fld.q - 1) != 0:
        c += quarter
    if variant == STABILIZER and rng.randrange(2):
        c += quarter  # flips into the sign coset, stabiliser only
    x = u * (w / w.galois(1)) * tower.constant(E2, fld.pow(fld.zeta, a))
    y = u.inverse() * tower.constant(E2, fld.pow(fld.zeta, b))
    z = (v / v.galois(1)) * tower.constant(E4, fld.pow(fld.zeta, c))
    tt = TorusElem(x, y, z)
    if not in_KM0(tt, variant):
        raise AssertionError("random compact-torus construction failed its membership")
    return tt


def random_K0(tower: Tower, variant: str, rng: random.Random) -> GroupElem:
    """A random element of the compact subgroup: a product of unipotents and
    compact-torus members, each an exact member.

    A draw is rejected and retried when a matrix entry cancels below window
    certainty (a rare genuine zero under inexact factors), so the sampler
    never manufactures an uncertified value.
    """
    from .tower import PrecisionExhausted

    for _ in range(64):
        try:
            g = identity(tower)
            for _ in range(rng.randrange(2, 5)):
                kind = rng.randrange(3)
                if kind == 0:
                    x = tower.from_coeffs(
                        E2,
                        rng.randrange(0, 3),
                        [rng.randrange(1, tower.q)] + [rng.randrange(tower.q) for _ in range(3)],
                    )
                    g = g * upper_u(tower, x)
                elif kind == 1:
                    c = tower.from_coeffs(
                        E2,
                        rng.randrange(1, 4),
                        [rng.randrange(1, tower.q)] + [rng.randrange(tower.q) for _ in range(3)],
                    )
                    g = g * lower_l(tower, c)
                else:
                    g = g * random_KM0(tower, variant, rng).to_group()
        except PrecisionExhausted:
            continue
        if not in_K0(g, variant):
            raise AssertionError("random compact-subgroup construction failed its membership")
        return g
    raise AssertionError("compact-subgroup sampling kept cancelling below window certainty")
