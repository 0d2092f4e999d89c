"""Hecke-algebra computations for the depth-zero pair.

Everything here runs over a :class:`HeckeContext`, which fixes the tower,
the compact-subgroup variant, and the verification window (maximal word
length and central exponent).  The main computations:

  * ``coset_reps(w)``: an exact transversal of K/(K cap wKw^-1).  For a
    reduced word a_1 ... a_L it is the set of products of L root-subgroup
    factors (Iwahori-Matsumoto), factor i the letter unipotent, u(x) for
    the finite reflection and l(pi2*x) for the affine one, x over residue
    representatives, conjugated by the lift of a_1 ... a_{i-1}: an
    elementary unipotent whose coefficient is one exact term.  It is held
    as the product's multilinear forms over F_q (``base_family``), and is
    validated exhaustively from them: entry valuations show each member r
    in K, and r gets ``coset_key(r * lift(w))``, read from r's own entries,
    a right-K-invariant key (Hermite data of two Iwahori-stable lattices
    and ord of the E4 part).  Only members sharing a key get the exact pair
    test on their matrices, which are read off the forms on request
    (`matrices.coset_key` is the key of a matrix, the tests' oracle).

  * ``classify(g)``: the double-coset label of g, obtained by the pivot
    step of the Iwahori factorisation on g's invariants (entry valuations
    and residues, the exact determinant), reading the valuation triple of
    the monomial part, and fixing the sign bit so that the discrepancy
    against the canonical lift lands in the compact torus.  The
    discrepancy membership is asserted; a failure would mean a wrong label.
    ``classify`` and ``phi`` analyse one matrix; they are the reference for
    the families below.

  * :class:`BaseFamily`: the members r(p) of a transversal, or their
    inverses, p the residue parameters.  Its entries are multilinear forms
    in p, composed from the factors (the inverses' from the factors in
    reverse order at -p), and each entry's digits are evaluated over F_q at
    every point; the members are grouped by the valuation pattern of their
    four entries (a handful per family).  Both directions are built, validated
    and memoised once per word and tower, for both variants (``base_family``).

  * :class:`TransversalFamily`: left * r(p) * right over a base family, for
    exact monomial frames left and right given as terms (canonical lifts,
    `weyl.lift_terms`).  A monomial frame permutes the entries and shifts
    each one's exponent and scales its residue by a fixed term, so each
    point's invariants are read from the base with no matrix arithmetic,
    and everything but two residues is memoised per valuation pattern of
    the base's four entries.

  * ``convolve_at(w1, w2, g)``: the finite convolution sum
    sum_h phi_{w1}(h) phi_{w2}(h^-1 g) over h in the left cosets of
    K w1 K, evaluated exactly in Gaussian integers at g = lift(v), given as
    the Weyl element v and read as its lift's terms, or at an exact monomial
    matrix g (one exact term per entry), read once as terms
    (`matrices.monomial_terms`).  The second factors come from one family
    lift(w1)^-1 * r^-1 * g, one valuation pattern at a time: phi_{w2} at a
    member is the quadratic character of the discrepancy's y-residue, a
    pattern's fixed scale times a base residue, so each pattern adds its
    scale's sign times a sum over its members (``BaseFamily.sign_sums``).  The
    left values phi_{w1}(r * lift(w1)) are all 1: every member r is a
    product of unipotents with d-entry residue 1 (checked), so the value is
    rho0(r) = eta(N(d)) = 1.

  * ``double_coset_product(w1, w2)``: the set of double cosets in
    K w1 K w2 K, the labels of the valuation patterns of the family
    lift(w1) * r * lift(w2) over the middle transversal r of
    K/(K cap w2 K w2^-1), one label per pattern.

The 2-cocycle of the lift family and its certificates are in `cocycle`; the
matrix model and the bodies of the methods that take or give a matrix
(`classify`, `phi`, `coset_reps`, the pair test of a shared key) are in
`matrices`, which those methods import on first call, and the matrix
oracles (`iwahori_decompose`) and random members in `reference`.  The moved
names that callers still read here are served (`__getattr__`), loaded on
first read.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import TYPE_CHECKING

from .groupmodel import (
    PARAHORIC,
    STABILIZER,
    PIVOT_CASES,
    MembershipError,
    compact_torus_conditions,
    pivot_step,
    quotients_in_iwahori,
    term_product,
)
from .residue import COEFF_ONE, COEFF_ZERO, HeckeCoeff, eta_residue, moved_method, moved_names
from .tower import E2, E4, LaurentElem, Tower
from .weyl import (
    S,
    W_S,
    WeylElem,
    lift_terms,
    plength,
    translation_power,
    window_elements,
)

if TYPE_CHECKING:
    from .matrices import GroupElem

# the 2-cocycle moved to `cocycle` and the matrix path to `matrices`; the names callers still import from here
__getattr__ = moved_names(
    globals(),
    cocycle=("CocycleTable", "nontriviality_certificate", "perturbed_table", "multiplicative_family_search"),
    matrices=("coset_key", "_quotient_digits", "GroupElem", "in_K0", "monomial_terms", "lift", "lift_inverse", "_ordn"),
)


# the verification window: words of length at most 4, central exponents of absolute value at most 2
WINDOW_WORDS, WINDOW_Z = 4, 2


class WindowExceeded(ValueError):
    """A Weyl element fell outside the verification window, or outside W."""


class ClassificationError(RuntimeError):
    """The double-coset label could not be established."""


class TransversalError(RuntimeError):
    """A coset transversal failed its validation: a member outside K, two
    members in one coset, or a member whose d-entry residue is not 1."""


def _coset_key(tops, shifts, det_ord: int, g4_ord: int, quotient) -> tuple:
    """`matrices.coset_key` of the matrix whose column j has a top entry of valuation
    tops[j] (math.inf for zero) and is scaled by a term of exponent
    shifts[j], given ord of its det and E4 part; quotient(j, bound) is
    `_quotient_digits` of column j's bottom entry over its top to that bound."""
    (top1, top2), (s1, s2) = tops, shifts
    key = [g4_ord]
    for shift in (0, 1):
        # (e1, beta, y mod pi^(beta - e1)) of the span of column 1 and pi^shift *
        # column 2, y read in the first column attaining e1; scaling a column
        # leaves its quotient as it is
        e1, j = min((top1 + s1, 0), (top2 + s2 + shift, 1))
        beta = det_ord + shift - e1
        key.append((e1, beta, quotient(j, beta - e1)))
    return tuple(key)


def _series_digits(fld, n, d, count: int) -> tuple:
    """The first `count` digits of the quotient of two digit sequences, each
    read from its leading digit (d[0] != 0) and as zero past its end.

    It keeps its own loop rather than `series_inverse` and `mul_trunc`: a
    call needs one to four digits, and through those kernels a call cost
    about twice as much (2.7-3.1 against 5.6-6.4 us, the best of 5 in each
    of two runs on every 12th of the 247,524 calls that `omega_check(4, 2)`
    makes at q = 13 over both variants, on a 2-core host)."""
    d0_inv = fld.inv(d[0])
    digits: list[int] = []
    for k in range(count):
        acc = n[k] if k < len(n) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = fld.sub(acc, fld.mul(d[j], digits[k - j]))
        digits.append(fld.mul(acc, d0_inv))
    return tuple(digits)


class HeckeContext:
    """Session state: tower + variant + window, with memoised labels; the
    transversals, which both variants share, are memoised on the tower.

    Nothing here draws random numbers; `rng` is accepted for callers that
    still pass one and is ignored."""

    def __init__(
        self,
        tower: Tower,
        variant: str = STABILIZER,
        window_words: int = WINDOW_WORDS,
        window_z: int = WINDOW_Z,
        rng: random.Random | None = None,
    ):
        if variant not in (STABILIZER, PARAHORIC):
            raise ValueError(f"unknown variant {variant!r}")
        self.tower = tower
        self.variant = variant
        self.window_words = window_words
        self.window_z = window_z
        # word -> (its transversal's base family, the inverses'), shared by every context on the tower
        self._transversals = tower.cache.setdefault("hecke_transversals", {})
        self._labels: dict[tuple, tuple | str] = {}
        self._windows: dict[tuple[int, int], list[WeylElem]] = {}

    # -- window -------------------------------------------------------------

    def require_in_W(self, w: WeylElem) -> None:
        """Raise WindowExceeded unless w is an element of W, which holds eps in the parahoric variant only."""
        if w.ebit and self.variant == STABILIZER:
            raise WindowExceeded(f"{w} is not an element of W in the stabilizer variant")

    def require_window(self, w: WeylElem) -> None:
        """Raise WindowExceeded unless w lies in the window and in W."""
        if len(w.word) > self.window_words or abs(w.zexp) > self.window_z:
            raise WindowExceeded(f"{w} outside window (words<={self.window_words}, |z|<={self.window_z})")
        self.require_in_W(w)

    def window(self, max_word: int | None = None, max_z: int | None = None) -> list[WeylElem]:
        """The elements of W with words of length <= max_word and |zexp| <= max_z
        (the context's window by default), sorted; memoised, each call a new list."""
        key = (self.window_words if max_word is None else max_word, self.window_z if max_z is None else max_z)
        got = self._windows.get(key)
        if got is None:
            got = self._windows[key] = window_elements(*key, include_eps=(self.variant == PARAHORIC))
        return list(got)

    def lift(self, w: WeylElem) -> GroupElem:
        from .matrices import lift

        return lift(self.tower, w)

    def lift_inverse(self, w: WeylElem) -> GroupElem:
        from .matrices import lift_inverse

        return lift_inverse(self.tower, w)

    def lift_terms(self, w: WeylElem, inverse: bool = False) -> tuple[str, tuple]:
        return lift_terms(self.tower, w, inverse)

    # -- transversals ----------------------------------------------------------

    def coset_reps(self, w: WeylElem) -> list[GroupElem]:
        return list(self.base_family(w).members)

    def coset_reps_with_inverses(self, w: WeylElem) -> list[tuple[GroupElem, GroupElem]]:
        return list(zip(self.base_family(w).members, self.base_family(w, True).members))

    def base_family(self, w: WeylElem, inverse: bool = False) -> "BaseFamily":
        """The transversal of K/(K cap wKw^-1) (its members, or their inverses
        when `inverse`); it depends only on the tower and the word part.

        For the reduced word a_1 ... a_L, member i is r(p) = X_1(p_1) ... X_L(p_L)
        with p the base-q digits of i, p_1 the most significant, and its
        inverse is X_L(-p_L) ... X_1(-p_1) (`_factors`).  Both directions are
        built from their forms, validated, and memoised on the tower."""
        self.require_window(w)
        got = self._transversals.get(w.word)
        if got is None:
            tw, length, factors = self.tower, len(w.word), self._factors(w.word)
            directions = (factors, [(i, lower, tw.field.neg(c), e) for i, lower, c, e in reversed(factors)])
            got = tuple(BaseFamily(tw, length, _product_forms(tw.field, length, f)) for f in directions)
            self._validate_transversal(w, *got)
            self._transversals[w.word] = got
        return got[inverse]

    def _factors(self, word: tuple[str, ...]) -> list[tuple[int, bool, int, int]]:
        """The root-subgroup factors X_i(p_i) = P Y_{a_i}(p_i) P^-1 of the
        transversal of a reduced word, P = lift(a_1 ... a_{i-1}), with
        Y_s(x) = u(x) and Y_{s'}(x) = l(pi2 * x): each the elementary
        unipotent u(c * pi2**e * p_i), or l(...) when lower, as (i, lower, c, e).

        A diagonal P = diag(m1, m2) scales the coefficient of u by m1 / m2 and
        of l by m2 / m1; an antidiagonal one also swaps u and l."""
        fld = self.tower.field
        out = []
        for i, letter in enumerate(word):
            kind, ((r1, e1), (r2, e2), _) = self.lift_terms(WeylElem(word[:i]))
            lower = (letter != S) != (kind == "anti")
            (rn, en), (rd, ed) = ((r2, e2), (r1, e1)) if lower else ((r1, e1), (r2, e2))
            out.append((i, lower, fld.mul(rn, fld.inv(rd)), en - ed + (letter != S)))
        return out

    def _validate_transversal(self, w: WeylElem, base: "BaseFamily", inverse: "BaseFamily") -> None:
        """Every member r of `base` (`inverse` holds their inverses) must lie
        in K with d-entry residue 1, and distinct members in distinct cosets
        of K cap wKw^-1, checked exhaustively and for both variants at once.

        Every member is a product of elementary unipotents, so its det and E4
        part are 1, and it lies in K (either variant) iff a and d are units,
        b is integral and c lies in the maximal ideal, read from `base.ords`.
        With d = 1 mod pi2, phi_w(r * lift(w)) = rho0(r) = eta(N(d)) = 1.

        r * k with k in K cap wKw^-1 gives (r * k) * lift(w) =
        (r * lift(w)) * (lift(w)^-1 k lift(w)), a right K-multiple, so the
        `coset_key` of r * lift(w), right-invariant under either K, is
        constant on a coset of either variant: distinct keys prove distinct
        cosets for both, and only members sharing a key get the exact pair
        test on their matrices (`_same_coset`), of both variants.  Column j of
        r * lift(w) is a column of r, swapped when lift(w) is antidiagonal, times one term of
        lift(w): the key is read from r's entry valuations and, for a quotient
        that needs them, its digits (`BaseFamily.quotient_digits`)."""
        word = WeylElem(w.word)
        kind, ((_, e1), (_, e2), (_, e4)) = self.lift_terms(word)
        cols, shifts = (((0, 2), (1, 3)), (e1, e2)) if kind == "diag" else (((1, 3), (0, 2)), (e2, e1))
        buckets: dict[tuple, list[int]] = {}
        for i, (ords, res) in enumerate(zip(base.ords, base.residues)):
            na, nb, nc, nd = ords
            if na != 0 or nd != 0 or nb < 0 or nc < 1:
                raise TransversalError(f"non-member representative for {w}")
            if res[3] != 1:
                raise TransversalError(f"a member of the transversal of {w} has d-entry residue other than 1")
            key = _coset_key(
                (ords[cols[0][0]], ords[cols[1][0]]),
                shifts,
                e1 + e2,
                e4,
                lambda j, bound: base.quotient_digits(i, cols[j][1], cols[j][0], bound),
            )
            buckets.setdefault(key, []).append(i)
        for bucket in buckets.values():
            for k, i in enumerate(bucket):
                for j in bucket[k + 1 :]:
                    r_j = base.members[j]
                    if self._same_coset(self.lift_inverse(word), inverse.members[i], r_j, r_j * self.lift(word)):
                        raise TransversalError(f"duplicate coset in transversal of {w}")

    def _same_coset(self, w_lift_inv: GroupElem, r_i_inv: GroupElem, r_j: GroupElem, h_j: GroupElem) -> bool:
        """r_i and r_j share a coset of K cap wKw^-1 for either variant's K (`matrices.same_coset`)."""
        from .matrices import same_coset

        return same_coset(w_lift_inv, r_i_inv, r_j, h_j)

    # -- classification -----------------------------------------------------------

    def _candidates(self, anti: bool, n1: int, n2: int, n3: int):
        """The sign-bit candidates for monomial data of this kind and valuation
        triple, as (label, the terms of the x- and y-entries and E4 part of the
        label's lift inverse), or the message of the ClassificationError they raise."""
        if n3 % 2 or n1 + n2 + n3 != 0:
            return f"valuation triple {(n1, n2, n3)} outside the group image"
        zexp = -n3 // 2
        b = n1 - zexp
        if n2 != zexp - b:
            return f"inconsistent valuation triple {(n1, n2, n3)}"
        core = translation_power(b)
        if anti:
            core = core * W_S
        out = []
        for ebit in (0, 1) if self.variant == PARAHORIC else (0,):
            cand = WeylElem(core.word, zexp, ebit)
            kind, terms = self.lift_terms(cand, inverse=True)
            # inv * m is diagonal iff inv is monomial of m's kind
            if (kind == "anti") != anti:
                return "discrepancy is not diagonal"
            out.append((cand, *terms))
        return out

    def _choose_label(self, kind: str, ords, residues, product, g4):
        """Name the double coset of monomial data m of this kind, with entry
        valuations `ords`, residues `residues`, exact entry product `product`
        and E4 part g4: (label, residue of the y-entry of the label's lift
        inverse, index of m's entry it meets in the compact-torus
        discrepancy lift(label)^-1 * m), or the ClassificationError message.

        The discrepancy's residue condition reads rx * ry = res(lx * ly) * r1 * r2
        and r1 * r2 = res(product), so with product and g4 fixed the outcome
        depends on the residues not at all: it is memoised on kind, ords,
        product and g4 (`_find_label` is the analysis itself).
        """
        key = (kind, ords, product.lead, product.coeffs, g4.lead, g4.coeffs)
        got = self._labels.get(key)
        if got is None:
            got = self._labels[key] = self._find_label(kind, ords, residues, product, g4)
        return got

    def _find_label(self, kind: str, ords, residues, product, g4):
        anti = kind == "anti"
        (n1, n2), (r1, r2) = ords, residues
        cands = self._candidates(anti, n1, n2, g4.ord_norm())
        if isinstance(cands, str):
            return cands
        tw = self.tower
        fld = tw.field
        # disc = diag(lx * first, ly * second), or (lx * second, ly * first) if anti
        (nx, rx), (ny, ry), pos = ((n2, r2), (n1, r1), 0) if anti else ((n1, r1), (n2, r2), 1)
        for cand, (lxr, lxe), (lyr, lye), (l4r, l4e) in cands:
            z = LaurentElem(tw, E4, l4e, (l4r,)) * g4
            disc_ords = (lxe + nx, lye + ny, z.lead)
            res = (fld.mul(lxr, rx), fld.mul(lyr, ry), z.unit_residue())
            lxy = LaurentElem(tw, E2, lxe + lye, (fld.mul(lxr, lyr),))
            if compact_torus_conditions(fld, self.variant, disc_ords, res, (lxy, product), z):
                return cand, lyr, pos
        return "no sign bit matches the discrepancy"

    # on a matrix g: (label, decomposition, discrepancy y-residue), and the label alone
    _analyze_matrix = moved_method("matrices", "analyze_matrix")
    classify = moved_method("matrices", "classify")

    # -- basis functions and convolution ----------------------------------------------

    phi = moved_method("matrices", "phi")  # (w, g, scale=1): the basis function of w at the matrix g

    def _phi_value(
        self, w: WeylElem, label: WeylElem, factors_in_iwahori: bool, disc_ry: int, scale: HeckeCoeff = COEFF_ONE
    ) -> HeckeCoeff:
        if label != w:
            return COEFF_ZERO
        # rho0(k1) * rho0(disc * k2) with disc in the compact torus: both lie in
        # K iff k1 and k2 are Iwahori, rho0(k1) = 1, and rho0(disc * k2) is eta
        # of N(y-entry of disc), which reads only its residue disc_ry**2
        if not factors_in_iwahori:
            raise MembershipError("element is outside the compact subgroup")
        fld = self.tower.field
        value = eta_residue(fld, fld.mul(disc_ry, disc_ry)).as_coeff()
        return value if scale is COEFF_ONE else scale * value

    def convolve_at(self, w1: WeylElem, w2: WeylElem, g: WeylElem | GroupElem) -> HeckeCoeff:
        """(phi_{w1} * phi_{w2})(g), an exact Gaussian integer, at g = lift(v)
        given as the Weyl element v, whose lift's terms are read from the memo,
        or at an exact monomial matrix g (one exact term per entry, as at every
        canonical lift); any other g raises ValueError.  The left value
        phi_{w1}(r * lift(w1)) is 1 at every member r (`base_family` checks
        its d-residue), so each valuation pattern of the family
        lift(w1)^-1 * r^-1 * g adds its value at its scale times S(source)."""
        self.require_window(w1)
        self.require_window(w2)
        if g.__class__ is WeylElem:
            right = self.lift_terms(g)
        else:
            from .matrices import monomial_terms

            right = monomial_terms(g)
            if right is None:
                raise ValueError("convolve_at needs an exact monomial g, one exact term per entry")
        fam = TransversalFamily(self, self.lift_terms(w1, inverse=True), self.base_family(w1, True), right)
        total = COEFF_ZERO
        for first, sums in fam.base.sign_sums:
            label, in_iwahori, src, scale, _ = fam.pattern(first)
            value = self._phi_value(w2, label, in_iwahori, scale)
            if not value.is_zero():
                total = total + value * sums[src]
        return total

    def double_coset_product(self, w1: WeylElem, w2: WeylElem) -> frozenset[WeylElem]:
        """The set of double cosets meeting (K w1 K)(K w2 K): one label per
        valuation pattern of the family lift(w1) * r * lift(w2)."""
        self.require_window(w1)
        self.require_window(w2)
        fam = TransversalFamily(self, self.lift_terms(w1), self.base_family(w2), self.lift_terms(w2))
        return frozenset(fam.pattern(members[0])[0] for members in fam.base.patterns)

    # -- the length-zero verification ---------------------------------------------------

    def omega_check(self, max_word: int = 2, max_z: int = 1, details: list | None = None) -> bool:
        """Every window pair multiplies into a single line of the algebra.

        For pairs with additive word length the double-coset product must be
        the single coset of the product; for the others the convolution must
        vanish at every extraneous double coset.  In particular this checks
        the two quadratic-relation collapses (phi_s * phi_s)(lift(s)) = 0
        and likewise for the affine reflection.
        """
        window = self.window(max_word, max_z)
        ok = True
        for w1 in window:
            for w2 in window:
                entry = None if details is None else {}
                passed = self._omega_pair(w1, w2, entry)
                if details is not None:
                    details.append(entry)
                ok = ok and passed
        return ok

    def _omega_pair(self, w1: WeylElem, w2: WeylElem, entry: dict | None) -> bool:
        """Whether the pair passes; a given entry receives the pair's details
        (the names, the cosets and the extraneous convolution values)."""
        product = w1 * w2
        cosets = self.double_coset_product(w1, w2)
        additive = plength(product) == plength(w1) + plength(w2)
        passed = cosets == {product} if additive else product in cosets
        vanishing = {}
        if passed and not additive:
            for v in cosets:
                if v != product:
                    vanishing[v] = value = self.convolve_at(w1, w2, v)
                    if not value.is_zero():
                        passed = False
                        break
        if entry is not None:
            entry.update(w1=str(w1), w2=str(w2), additive=additive, cosets=sorted(str(c) for c in cosets))
            entry["pass"] = passed
            if not additive and product in cosets:
                entry["vanishing"] = {str(v): repr(value) for v, value in vanishing.items()}
        return passed


def _sgn_sum(fld, residues) -> HeckeCoeff:
    """The sum of sgn over nonzero residues: +1 on the squares, the even powers of the generator."""
    return HeckeCoeff(sum(-1 if fld.dlog(r) % 2 else 1 for r in residues), 0)


def _grid_values(field, coeffs) -> list[int]:
    """Values of the multilinear form sum_S coeffs[S] * prod_{i in S} p_i at
    every p in F_q^L, p_1 most significant in both the bit mask S and the
    output order."""
    half = len(coeffs) // 2
    if not half:
        return list(coeffs)
    # rows[j][x] is coefficient j of the form left after p_1 = x
    rows = [field.affine_values(a, b) for a, b in zip(coeffs[:half], coeffs[half:])]
    if half == 1:
        return rows[0]
    out = []
    for column in zip(*rows):
        out += _grid_values(field, column)
    return out


def _product_forms(field, length: int, factors) -> list[dict[int, list[int]]]:
    """The forms of the entries a, b, c, d of the product of elementary
    unipotents, each factor (i, lower, c, e) being u(c * pi2**e * p_i), or
    l(...) when lower, over p in F_q^length.  An entry's form
    sum_S G_S * prod_{i in S} p_i is given by levels: exponent k -> the pi2**k
    digit of G_S at every bit mask S, p_1 the most significant bit.  The
    factors are multiplied on the right into the identity's forms, each a
    column operation with one F_q product per coefficient."""
    size = 2**length
    forms: list[dict[int, list[int]]] = [{0: [1] + [0] * (size - 1)}, {}, {}, {0: [1] + [0] * (size - 1)}]
    for i, lower, c, e in factors:
        bit = 1 << (length - 1 - i)
        # u(x) adds x times column 0 to column 1; l(x) adds x times column 1 to column 0
        for src, dst in ((1, 0), (3, 2)) if lower else ((0, 1), (2, 3)):
            for k, coeffs in forms[src].items():
                target = forms[dst].setdefault(k + e, [0] * size)
                # p_i occurs in one factor only, so no mask here holds its bit
                for mask, g in enumerate(coeffs):
                    if g:
                        target[mask | bit] = field.add(target[mask | bit], field.mul(c, g))
    return forms


class BaseFamily:
    """The members r(p) of a length-L transversal (or their inverses), p in
    F_q^L the residue parameters: member i has the base-q digits of i as p,
    p_1 the most significant.

    Each r(p) is a product of L elementary unipotents, each linear in one
    parameter, so every matrix entry is a multilinear form
    sum_S G_S * prod_{i in S} p_i with exact Laurent coefficients G_S, and
    det and the E4 part are 1.  `forms` gives them as `_product_forms` does,
    and each level is evaluated over F_q at every point.  Each entry's
    valuation (math.inf for zero) and leading residue is its lowest nonzero
    level, and `members` holds the matrices, built on first read, each entry
    from its digits (`entry`) with no Laurent arithmetic.  `patterns` lists
    the member indices of each distinct valuation pattern of the four
    entries, the patterns in order of first occurrence.
    """

    def __init__(self, tower: Tower, length: int, forms):
        fld, n = tower.field, tower.q**length
        # per entry: exponent -> the digit at that exponent at every point, ascending
        levels = [{k: _grid_values(fld, form[k]) for k in sorted(form)} for form in forms]
        columns = [self._leading(entry, n) for entry in levels]
        self.ords = list(zip(*(c[0] for c in columns)))
        self.residues = list(zip(*(c[1] for c in columns)))
        patterns: dict[tuple, list[int]] = {}
        for i, ords in enumerate(self.ords):
            patterns.setdefault(ords, []).append(i)
        self.patterns = list(patterns.values())
        self.tower = tower
        # per entry: its lowest exponent and one row of digits per exponent from there up
        spans = [range(min(e), max(e) + 1) if e else range(0) for e in levels]
        self._rows = [(span.start, [e.get(k, [0] * n) for k in span]) for e, span in zip(levels, spans)]

    def __len__(self) -> int:
        return len(self.ords)

    @staticmethod
    def _leading(levels: dict[int, list[int]], n: int) -> tuple[list, list]:
        """Valuation (math.inf for zero) and leading residue of an entry at every point."""
        ords, residues = [math.inf] * n, [0] * n
        todo = range(n)
        for k, values in levels.items():
            for i in todo:
                if values[i]:
                    ords[i], residues[i] = k, values[i]
            todo = [i for i in todo if not values[i]]
            if not todo:
                break
        return ords, residues

    entry = moved_method("matrices", "family_entry")  # (i, k): entry k of member i as a Laurent element

    def quotient_digits(self, i: int, num: int, den: int, bound: int) -> tuple:
        """`matrices._quotient_digits` of entry num over entry den of member i, read
        from the valuations and digit rows with no Laurent element.  The rows
        hold every digit of the entries' exact forms, so no operand is
        inexact and it never raises."""
        ords = self.ords[i]
        lead = ords[num] - ords[den]
        count = bound - lead
        # a zero num has valuation math.inf, so its quotient is ()
        if count <= 0:
            return ()
        (lo_n, rows_n), (lo_d, rows_d) = self._rows[num], self._rows[den]
        n = [row[i] for row in rows_n[ords[num] - lo_n :]]
        d = [row[i] for row in rows_d[ords[den] - lo_d :]]
        return lead, _series_digits(self.tower.field, n, d, count)

    members = cached_property(moved_method("matrices", "family_members"))

    @cached_property
    def sign_sums(self) -> list[tuple[int, dict[int, HeckeCoeff]]]:
        """Per valuation pattern: (first member, S(k) = the sum of sgn(residue
        of entry k at i) over the pattern's members i, by entry k, none for an
        entry that is zero across the pattern and so never a pivot)."""
        fld, res = self.tower.field, self.residues
        return [
            (members[0], {k: _sgn_sum(fld, (res[i][k] for i in members)) for k in range(4) if res[members[0]][k]})
            for members in self.patterns
        ]


class TransversalFamily:
    """The elements left * r(p) * right over a base family r(p), for
    exact monomial frames left and right given as terms (`groupmodel`).

    With l_i and m_i the row-i entries of left and right, and a, b = 1 for
    an antidiagonal left, right frame (0 for a diagonal one), entry (i, j)
    of left * r * right is l_i * r[i ^ a][j ^ b] * m_{j ^ b}.  So each point's
    entry valuations and leading residues are the base's, permuted, shifted
    by a fixed exponent and scaled by a fixed residue per entry; det and the
    E4 part are the frames' (the base's are 1).  Labels and basis-function
    values come from the pivot step on those invariants, with no matrix
    arithmetic per point, and everything but two residues is memoised per
    valuation pattern of the base's four entries.

    `base` is a memoised `BaseFamily` (``HeckeContext.base_family``).
    """

    def __init__(self, ctx: HeckeContext, left: tuple, base: BaseFamily, right: tuple):
        self.ctx = ctx
        self.base = base
        (left_kind, lt), (right_kind, rt) = left, right
        a, b = left_kind == "anti", right_kind == "anti"
        tw = ctx.tower
        fld = tw.field
        mul = fld.mul_table
        # entry k = 2i + j reads base entry 2 (i ^ a) + (j ^ b)
        self.source, self.shift, self.scale = [], [], []
        for i in (0, 1):
            for j in (0, 1):
                (c1, e1), (c2, e2) = lt[i], rt[j ^ b]
                self.source.append(2 * (i ^ a) + (j ^ b))
                self.shift.append(e1 + e2)
                self.scale.append(mul[c1][c2])
        # det and the E4 part are the frames' (the base's are 1), each one term:
        # those of the monomial left * right, whose det is first * second, negated if anti
        kind, ((r1, e1), (r2, e2), (r4, e4)) = term_product(fld, left, right)
        det_res = mul[r1][r2]
        self.det_ord, self.det_res = e1 + e2, det_res if kind == "diag" else fld.neg(det_res)
        self.g4 = LaurentElem(tw, E4, e4, (r4,))
        self.products = {
            "diag": LaurentElem(tw, E2, self.det_ord, (self.det_res,)),
            "anti": LaurentElem(tw, E2, self.det_ord, (fld.neg(self.det_res),)),
        }
        self._patterns: dict[tuple, tuple | str] = {}

    def __len__(self) -> int:
        return len(self.base)

    def pattern(self, i: int) -> tuple[WeylElem, bool, int, int, bool]:
        """`_pattern` of member i's valuation pattern, memoised per pattern;
        raises ClassificationError for a pattern with no label."""
        ords = self.base.ords[i]
        got = self._patterns.get(ords)
        if got is None:
            got = self._patterns[ords] = self._pattern(ords, self.base.residues[i])
        if isinstance(got, str):
            raise ClassificationError(got)
        return got

    analyze = moved_method("matrices", "family_analyze")  # (i): label, k1 and k2 Iwahori, disc y-residue

    def _pattern(self, base_ords, base_residues):
        """All of `analyze` that the base's four entry valuations decide, from
        one member with those valuations: (label, k1 and k2 Iwahori, the base
        entry under the pivot, scale, whether the discrepancy's y-entry meets
        the pivot) with disc_ry = scale * base residue, or scale / base
        residue; or the ClassificationError message.  The label reads no
        residue (see `HeckeContext._choose_label`)."""
        fld = self.ctx.tower.field
        mul = fld.mul_table
        ords = [base_ords[s] + e for s, e in zip(self.source, self.shift)]
        residues = [mul[base_residues[s]][c] for s, c in zip(self.source, self.scale)]
        case, m_ords, m_residues, quotient_ords = pivot_step(fld, ords, residues, self.det_ord, self.det_res)
        piv, _, _, _, kind, make_k1, make_k2 = PIVOT_CASES[case]
        product = self.products[kind]
        got = self.ctx._choose_label(kind, m_ords, m_residues, product, self.g4)
        if isinstance(got, str):
            return got
        label, ly_res, pos = got
        # the pivot is m's first entry iff it sits in g's first row
        at_pivot = (pos == 0) == (piv < 2)
        scale = ly_res if at_pivot else mul[ly_res][product.unit_residue()]
        # the pivot's residue is the base residue times the frame's scale
        c = self.scale[piv]
        scale = mul[scale][c] if at_pivot else mul[scale][fld.inv(c)]
        return label, quotients_in_iwahori(quotient_ords, make_k1, make_k2), self.source[piv], scale, at_pivot

    phi = moved_method("matrices", "family_phi")  # (w, i): the basis function of w at member i
