"""The matrix model: group elements as matrices, and the matrix path of the
Hecke layer.

Everything the verifier certifies is read from exact monomial terms and
residue data (`groupmodel`, `weyl.lift_terms`, `hecke`); the matrices here
are the oracles that the tests, the certificates and the sampled
cross-checks compare those readings against.  The module is imported where
a matrix is first needed, and the modules that held its names still serve
them (`__getattr__` of `groupmodel`, `weyl`, `hecke` and the package):

  * `GroupElem`, a pair (2x2 matrix over E2, nonzero scalar of E4), and
    `TorusElem`, a diagonal (x, y, z); the letter matrices `elem_s`,
    `elem_s_prime`, `elem_z` and `elem_eps`; the memberships `in_g0`,
    `in_iwahori`, `in_K0` and `in_KM0`; the characters `rho0` and `rho_M0`;
    `Monomial`, the middle factor of an Iwahori decomposition;
    `monomial_matrix` and `monomial_terms`, between terms and matrices.
  * `lift` and `lift_inverse`, the matrices of the canonical lifts' terms,
    memoised per tower, and `h_M0`, a torus element's valuation triple.
  * `coset_key`, the right-K-invariant key of a matrix, and the bodies of
    the methods of `hecke` that take or give a matrix: `classify` and `phi`
    through `analyze_matrix`, `same_coset`, a base family's `members` and
    `entry`, and a transversal family's `analyze` and `phi`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .groupmodel import STABILIZER, VARIANTS, PARAHORIC, MembershipError, compact_torus_conditions, letters
from .hecke import ClassificationError, TransversalError, _coset_key, _series_digits
from .residue import COEFF_ONE, HeckeCoeff, UnitI
from .tower import E2, E4, F, LaurentElem, Tower
from .weyl import WeylElem, lift_terms

if TYPE_CHECKING:
    from .hecke import BaseFamily, HeckeContext, TransversalFamily
    from .reference import Decomposition

class GroupElem(namedtuple("GroupElem", "a b c d g4")):
    """(2x2 matrix over E2, unit-scale element of E4)."""

    __slots__ = ()

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

    __hash__ = None

    def __repr__(self) -> str:
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]] x {self.g4!r}"


class TorusElem(namedtuple("TorusElem", "x y z")):
    """Diagonal element (x, y, z) of the maximal torus."""

    __slots__ = ()

    def to_group(self) -> GroupElem:
        tw = self.x.tower
        return GroupElem(self.x, tw.zero(E2), tw.zero(E2), self.y, self.z)

    def __mul__(self, other: "TorusElem") -> "TorusElem":
        return TorusElem(self.x * other.x, self.y * other.y, self.z * other.z)

    def inverse(self) -> "TorusElem":
        return TorusElem(self.x.inverse(), self.y.inverse(), self.z.inverse())

    __hash__ = None


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


def rho0(g: GroupElem, variant: str = STABILIZER) -> UnitI:
    """The depth-zero character of the compact subgroup: eta(N(d))."""
    if not in_K0(g, variant):
        raise MembershipError("element is outside the compact subgroup")
    return g.d.norm_to_F().eta()


# -- monomials ----------------------------------------------------------------------


class Monomial(namedtuple("Monomial", "kind first second g4")):
    """The middle factor of an Iwahori decomposition: diag(first, second) or
    antidiag(first; second), with the E4 part g4; kind is "diag" or "anti".
    Row i holds entry i of (first, second), in column i for "diag" and in
    column 1 - i for "anti".  Its complementary entry may be a series; it
    only converts with `as_group`.  An exact monomial, one term c * pi**e
    per entry, is held as terms instead (`groupmodel.term_product`)."""

    __slots__ = ()

    def as_group(self) -> GroupElem:
        tw = self.first.tower
        z2 = tw.zero(E2)
        if self.kind == "diag":
            return GroupElem(self.first, z2, z2, self.second, self.g4)
        return GroupElem(z2, self.first, self.second, z2, self.g4)


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


def _ordn(x: LaurentElem):
    return math.inf if x.is_zero else x.ord_norm()


# -- the canonical lifts as matrices --------------------------------------------------


def lift(tower: Tower, w: WeylElem) -> GroupElem:
    """Canonical matrix representative, the matrix of `weyl.lift_terms`; memoised."""
    return _memo(tower, "weyl_lift", w, lambda: monomial_matrix(tower, lift_terms(tower, w)))


def lift_inverse(tower: Tower, w: WeylElem) -> GroupElem:
    """Memoised inverse of the canonical representative."""
    return _memo(tower, "weyl_lift_inv", w, lambda: monomial_matrix(tower, lift_terms(tower, w, True)))


def _memo(tower: Tower, name: str, w: WeylElem, make):
    cache = tower.cache.setdefault(name, {})
    got = cache.get(w)
    if got is None:
        got = cache[w] = make()
    return got


def h_M0(tt: TorusElem) -> tuple[int, int, int]:
    """(ord x, ord y, ord z) in each field's own uniformizer units."""
    return (tt.x.ord_norm(), tt.y.ord_norm(), tt.z.ord_norm())


# -- the matrix path of the Hecke layer -------------------------------------------------


def coset_key(h: GroupElem) -> tuple:
    """A key of h that is invariant under h -> h * k for k in the Iwahori x O4^x,
    hence for k in either compact subgroup.

    The key holds ord of the E4 part and the Hermite data of two lattices
    that the Iwahori preserves: the span of the columns of h's 2x2 part, and
    of h * diag(1, pi2).  Such a lattice has the basis (pi^e1, pi^e1 * y),
    (0, pi^beta), with e1 the least valuation in its top row, beta =
    ord(det) - e1, and y the quotient bottom / top of a column attaining e1,
    determined modulo pi^(beta - e1).  `hecke._coset_key` computes it.
    """
    cols = ((h.a, h.c), (h.b, h.d))
    return _coset_key(
        [_ordn(top) for top, _ in cols],
        (0, 0),
        h.det2().lead,
        h.g4.lead,
        lambda j, bound: _quotient_digits(cols[j][1], cols[j][0], bound),
    )


def _quotient_digits(num: LaurentElem, den: LaurentElem, bound: int) -> tuple:
    """num / den modulo pi^bound, by truncated division: (exponent of the
    leading digit, the digits up to exponent bound - 1), or () when the
    quotient lies in pi^bound O.  Raises TransversalError when a digit it
    needs lies beyond an inexact operand's window."""
    if num.is_zero:
        return ()
    lead = num.lead - den.lead
    count = bound - lead
    if count <= 0:
        return ()
    tw = num.tower
    if count > tw.N and not (num.exact and den.exact):
        raise TransversalError(f"coset key needs {count} quotient digits; the window certifies {tw.N}")
    return lead, _series_digits(tw.field, num.coeffs, den.coeffs, count)


def analyze_matrix(ctx: HeckeContext, g: GroupElem) -> tuple[WeylElem, Decomposition, int]:
    """`HeckeContext._analyze_matrix`: (label, the Iwahori decomposition,
    residue of the discrepancy's y-entry) of g; raises ClassificationError
    when g has no label."""
    from .reference import iwahori_decompose

    dec = iwahori_decompose(g)
    got = ctx._choose_label(dec.kind, dec.ords, dec.residues, dec.product, dec.g4)
    if isinstance(got, str):
        raise ClassificationError(got)
    label, ly_res, pos = got
    return label, dec, ctx.tower.field.mul(ly_res, dec.residues[pos])


def classify(ctx: HeckeContext, g: GroupElem) -> WeylElem:
    """`HeckeContext.classify`: the double-coset label of g; raises
    WindowExceeded outside the window."""
    w = ctx._analyze_matrix(g)[0]
    ctx.require_window(w)
    return w


def phi(ctx: HeckeContext, w: WeylElem, g: GroupElem, scale: HeckeCoeff = COEFF_ONE) -> HeckeCoeff:
    """`HeckeContext.phi`: the value at g of the basis function supported on
    the double coset of w, normalised to `scale` at the canonical lift;
    raises ClassificationError when g has no double-coset label."""
    label, dec, disc_ry = ctx._analyze_matrix(g)
    return ctx._phi_value(w, label, dec.factors_in_iwahori(), disc_ry, scale)


def same_coset(w_lift_inv: GroupElem, r_i_inv: GroupElem, r_j: GroupElem, h_j: GroupElem) -> bool:
    """r_i and r_j share a coset of K cap wKw^-1 for either variant's K,
    with h_j = r_j * lift(w): r_i^-1 r_j lies in wKw^-1 and in K, the first,
    rarely true, tested first.  Both products have det 1 and E4 part 1, so
    the parahoric residue condition holds and the two variants agree."""
    conjugate = w_lift_inv * (r_i_inv * h_j)
    return any(in_K0(conjugate, v) and in_K0(r_i_inv * r_j, v) for v in VARIANTS)


def family_entry(base: BaseFamily, i: int, k: int) -> LaurentElem:
    """`BaseFamily.entry`: entry k (of a, b, c, d) of member i, with
    `Tower.from_coeffs`'s window."""
    lo, rows = base._rows[k]
    return base.tower.from_coeffs(E2, lo, [row[i] for row in rows])


def family_members(base: BaseFamily) -> list[GroupElem]:
    """`BaseFamily.members`: the members' matrices, each entry from its digits."""
    one4 = base.tower.one(E4)
    return [GroupElem(*(base.entry(i, k) for k in range(4)), one4) for i in range(len(base))]


def family_analyze(fam: TransversalFamily, i: int) -> tuple[WeylElem, bool, int]:
    """`TransversalFamily.analyze`: (label, k1 and k2 Iwahori, residue of the
    discrepancy's y-entry) at member i."""
    label, in_iwahori, src, scale, at_pivot = fam.pattern(i)
    # the y-entry meets m's pivot entry, or the complement product / pivot
    fld = fam.ctx.tower.field
    rb = fam.base.residues[i][src]
    return label, in_iwahori, fld.mul(scale, rb if at_pivot else fld.inv(rb))


def family_phi(fam: TransversalFamily, w: WeylElem, i: int) -> HeckeCoeff:
    """`TransversalFamily.phi`: the basis function of w at member i."""
    return fam.ctx._phi_value(w, *fam.analyze(i))
