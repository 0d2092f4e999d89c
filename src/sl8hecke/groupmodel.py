"""The group and its compact subgroups, read from exact terms and residues.

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
`in_compact_torus` tests it against the compact torus.  The letters of the
canonical Weyl lifts are defined once, as terms (`letters`): the
unit-determinant reflection s, its affine partner s', the central-direction
torus element z with E4 part pi4**(-2) and the sign element eps = (-1, 1,
1); `letter_relations` checks their relations on terms.

`pivot_step` is the pivot step of the Iwahori factorisation g = k1 * m * k2
(k1, k2 unipotent Iwahori, m monomial; pivots prefer the diagonal, then row
order), worked on invariants alone: the four entries' valuations and
leading residues and the valuation and residue of the exact determinant.
It gives m's kind, the valuations and residues of m's entries and the
quotient valuations that decide whether k1 and k2 are Iwahori, so callers
that hold only invariants (the transversal families of the Hecke layer)
need no matrix.

The matrices themselves (`GroupElem`, `TorusElem`, the letter matrices,
the memberships `in_K0` and `in_KM0`, the characters `rho0` and `rho_M0`)
are in `matrices`, and the factorisation of a matrix
(`iwahori_decompose`) and the random members `random_KM0` and `random_K0`
in `reference`; this module still serves those names (`__getattr__`),
loading their home on first read.  The unipotents u(x) and l(c), which
`PIVOT_CASES` names, stay here and build their matrices there.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .residue import UnitI, eta_residue, moved_names, sgn
from .tower import E2, E4, F, LaurentElem, Tower

if TYPE_CHECKING:
    from .matrices import GroupElem

STABILIZER = "stabilizer"
PARAHORIC = "parahoric"
VARIANTS = (STABILIZER, PARAHORIC)

# the matrix model moved to `matrices`, the matrix factorisation and the random members to `reference`
__getattr__ = moved_names(
    globals(),
    matrices=(
        "GroupElem", "TorusElem", "Monomial", "identity", "torus", "elem_s", "elem_s_prime", "elem_z", "elem_eps",
        "commutator", "in_g0", "in_iwahori", "_residue_condition", "in_K0", "in_KM0", "rho_M0", "rho0",
        "monomial_matrix", "monomial_terms", "_ordn",
    ),
    reference=("iwahori_decompose", "random_KM0", "random_K0"),
)


class MembershipError(ValueError):
    """An element was used where a subgroup membership precondition fails."""


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


def upper_u(tower: Tower, x) -> GroupElem:
    """u(x) = ((1, x), (0, 1)) x 1; x a Laurent element of E2 or a residue encoding."""
    from .matrices import GroupElem

    if not isinstance(x, LaurentElem):
        x = tower.constant(E2, x)
    z2 = tower.zero(E2)
    return GroupElem(tower.one(E2), x, z2, tower.one(E2), tower.one(E4))


def lower_l(tower: Tower, c) -> GroupElem:
    """l(c) = ((1, 0), (c, 1)) x 1."""
    from .matrices import GroupElem

    if not isinstance(c, LaurentElem):
        c = tower.constant(E2, c)
    z2 = tower.zero(E2)
    return GroupElem(tower.one(E2), z2, c, tower.one(E2), tower.one(E4))


# -- memberships ------------------------------------------------------------------


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


# -- characters ---------------------------------------------------------------------


def rho_residues(field, rx: int, ry: int, rz: int) -> UnitI:
    """rho on a compact-torus element read from the leading residues of its
    entries: eta(N(y)), and E2/F is ramified, so N(y) has residue ry**2."""
    return eta_residue(field, field.mul(ry, ry))


# -- Iwahori factorisation ------------------------------------------------------------


IDENTITY_TERMS = ("diag", ((1, 0), (1, 0), (1, 0)))


def term_product(field, first, *rest) -> tuple[str, tuple]:
    """The product, left to right, of exact monomials given as terms (kind,
    ((r1, e1), (r2, e2), (r4, e4))), the (residue, exponent) pairs of first,
    second and the E4 part: one F_q product and one exponent sum per entry
    and factor.  Row i of the left factor meets row i of the right one (diag)
    or row 1 - i (anti)."""
    kind, ((r1, e1), (r2, e2), (r4, e4)) = first
    mul = field.mul_table
    for kind2, ((s1, f1), (s2, f2), (s4, f4)) in rest:
        if kind != "diag":
            s1, f1, s2, f2 = s2, f2, s1, f1
        r1, e1, r2, e2, r4, e4 = mul[r1][s1], e1 + f1, mul[r2][s2], e2 + f2, mul[r4][s4], e4 + f4
        kind = "diag" if kind == kind2 else "anti"
    return kind, ((r1, e1), (r2, e2), (r4, e4))


def term_inverse(field, m) -> tuple[str, tuple]:
    """The inverse of an exact monomial given as terms: each entry inverted,
    the two E2 entries swapped for "anti"."""
    kind, ((r1, e1), (r2, e2), (r4, e4)) = m
    first, second = (field.inv(r1), -e1), (field.inv(r2), -e2)
    if kind == "anti":
        first, second = second, first
    return kind, (first, second, (field.inv(r4), -e4))


def in_compact_torus(field, variant: str, m) -> bool:
    """Whether an exact monomial given as terms lies in the variant's compact torus."""
    kind, ((rx, nx), (ry, ny), (rz, nz)) = m
    return kind == "diag" and compact_torus_conditions(field, variant, (nx, ny, nz), (rx, ry, rz))


def letter_relations(tower: Tower, variant: str) -> dict[str, bool]:
    """Whether each relation of the letters lies in the variant's compact
    torus: a**2, [a, z] and [a, eps] for a in {s, s'}, and eps**2, on terms."""
    fld, let = tower.field, letters(tower)
    inv = {name: term_inverse(fld, m) for name, m in let.items()}
    relations = {}
    for a in ("s", "s'"):
        relations[f"{a}^2"] = in_compact_torus(fld, variant, term_product(fld, let[a], let[a]))
        for b in ("z", "eps"):
            relations[f"[{a}, {b}]"] = in_compact_torus(fld, variant, term_product(fld, let[a], let[b], inv[a], inv[b]))
    relations["eps^2"] = in_compact_torus(fld, variant, term_product(fld, let["eps"], let["eps"]))
    return relations


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
