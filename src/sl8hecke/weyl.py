"""The extended affine Weyl group attached to the compact torus character.

Elements are normal forms (word, zexp, ebit): a reduced alternating word
in the two reflections s, s' (infinite dihedral, s**2 = s'**2 = 1, no
other relation), an integer power of the central translation z, and a
sign bit for the order-two element eps.  The sign bit is meaningful only
for the parahoric variant; in the stabiliser variant eps lifts into the
compact torus and its class is trivial.

`WeylElem` is a namedtuple, compared and hashed as its field tuple.  Its
public constructor validates the word; products and inverses build their
result through a trusted internal constructor, since the product of two
reduced alternating words cancels only at the junction and is reduced
without a scan.

`lift_terms` sends a normal form to the canonical representative, or to
its inverse, as the terms of an exact monomial (see `groupmodel`): the
letter lifts in word order, times the z-lift to the zexp, times the
eps-lift to the ebit, every product one F_q operation and one exponent sum
per entry, memoised per tower and direction in the two dicts of
`lift_memos`, which hot callers may read directly.  The matrices of those
terms, `lift` and `lift_inverse`, and `h_M0`, the valuation triple of a
torus element, are in `matrices`; `lattice_check`, which verifies that the
triples form the lattice {n1 + n2 + n3 = 0, n3 even}, is in `lattice`.  This
module still serves those names (`__getattr__`), loading their home on
first read.
"""

from __future__ import annotations

from collections import namedtuple

from .groupmodel import (
    PARAHORIC,
    IDENTITY_TERMS,
    in_compact_torus,
    letter_relations,
    letters,
    term_commutator,
    term_inverse,
    term_product,
)
from .residue import moved_names
from .tower import Tower

S = "s"
SP = "s'"

# the lift matrices moved to `matrices`, the lattice section's code to `lattice`
__getattr__ = moved_names(
    globals(),
    matrices=("lift", "lift_inverse", "_memo", "h_M0", "GroupElem", "TorusElem", "monomial_matrix"),
    lattice=("lattice_check",),
)


def _reduce(word) -> tuple[str, ...]:
    out: list[str] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class WeylElem(namedtuple("WeylElem", "word zexp ebit")):
    """A normal form (word, zexp, ebit).  The constructor checks that the word
    is a reduced word in s and s' and that ebit is 0 or 1.  Products and
    inverses of valid forms are built by `_trusted`, which skips the checks;
    copies and pickles rebuild through the validating constructor."""

    __slots__ = ()

    def __new__(cls, word: tuple[str, ...] = (), zexp: int = 0, ebit: int = 0):
        if any(l not in (S, SP) for l in word):
            raise ValueError(f"bad letters in {word!r}")
        if _reduce(word) != word:
            raise ValueError(f"word {word!r} is not reduced")
        if ebit not in (0, 1):
            raise ValueError("ebit must be 0 or 1")
        return _trusted(word, zexp, ebit)

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        # both words are reduced and alternate, so cancellation at the junction
        # runs until the shorter word is used up, and what is left is reduced
        a, b = self.word, other.word
        if a and b and a[-1] == b[0]:
            word = a[: len(a) - len(b)] if len(a) > len(b) else b[len(a) :]
        else:
            word = a + b
        return _trusted(word, self.zexp + other.zexp, self.ebit ^ other.ebit)

    def inverse(self) -> "WeylElem":
        return _trusted(self.word[::-1], -self.zexp, self.ebit)

    def __pow__(self, n: int) -> "WeylElem":
        base = self if n >= 0 else self.inverse()
        out = W_ID
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return not self.word and self.zexp == 0 and self.ebit == 0

    def __str__(self) -> str:
        parts = list(self.word)
        if self.zexp == 1:
            parts.append("z")
        elif self.zexp:
            parts.append(f"z^{self.zexp}")
        if self.ebit:
            parts.append("e")
        return ".".join(parts) if parts else "1"

    def sort_key(self):
        return (len(self.word), self.word, self.zexp, self.ebit)


def _trusted(word: tuple[str, ...], zexp: int, ebit: int) -> WeylElem:
    """A WeylElem from a reduced word and an ebit of 0 or 1, unchecked."""
    return tuple.__new__(WeylElem, (word, zexp, ebit))


W_ID = WeylElem()
W_S = WeylElem((S,))
W_SP = WeylElem((SP,))
W_Z = WeylElem((), 1)
W_EPS = WeylElem((), 0, 1)


def plength(w: WeylElem) -> int:
    """Reduced word length; blind to the central part."""
    return len(w.word)


def translation_power(n: int) -> WeylElem:
    """(s s')**n as a normal form."""
    if n >= 0:
        return WeylElem((S, SP) * n)
    return WeylElem((SP, S) * (-n))


def lift_memos(tower: Tower) -> tuple[dict, dict]:
    """The memos of `lift_terms` on this tower, forward and inverse: dicts
    from normal form to terms, made once per tower."""
    got = tower.cache.get("weyl_lift_terms")
    if got is None:
        got = tower.cache["weyl_lift_terms"] = ({}, {})
    return got


def lift_terms(tower: Tower, w: WeylElem, inverse: bool = False) -> tuple[str, tuple]:
    """The canonical representative, or its inverse, as the terms of an exact
    monomial: the letter lifts in word order, times z to the zexp, times eps
    to the ebit; memoised per tower and direction."""
    try:
        return tower.cache["weyl_lift_terms"][inverse][w]
    except KeyError:
        pass
    got = term_inverse(tower.field, lift_terms(tower, w)) if inverse else _letter_product(tower, w)
    lift_memos(tower)[inverse][w] = got
    return got


def _letter_product(tower: Tower, w: WeylElem) -> tuple[str, tuple]:
    fld, let = tower.field, letters(tower)
    z = let["z"] if w.zexp >= 0 else term_inverse(fld, let["z"])
    factors = [let[letter] for letter in w.word] + [z] * abs(w.zexp) + [let["eps"]] * w.ebit
    return term_product(fld, IDENTITY_TERMS, *factors)


# -- group-structure verification ----------------------------------------------------


def group_structure_check(tower: Tower, variant: str, order_bound: int = 50) -> bool:
    """Verification of the presentation on the letters' terms.

    Checks: the letter lifts square into the compact torus; z and (for the
    parahoric) eps are central modulo the compact torus with eps of order
    two outside it (`letter_relations`, with [z, eps]); the translations
    (ss')**n and z**n stay non-trivial for 1 <= n <= order_bound, certified
    by their valuation triples, the exponents of their terms (which prove
    non-triviality for every n by linearity).
    """
    fld, let = tower.field, letters(tower)
    relations = letter_relations(tower, variant)
    if variant == PARAHORIC:
        z, eps = let["z"], let["eps"]
        relations["[z, eps]"] = in_compact_torus(fld, variant, term_commutator(fld, z, eps))
        relations["eps"] = not in_compact_torus(fld, variant, eps)  # non-trivial in the parahoric quotient
    else:
        relations = {name: held for name, held in relations.items() if "eps" not in name}
    if not all(relations.values()):
        return False
    for letter, triple in ((term_product(fld, let["s"], let["s'"]), (1, -1, 0)), (let["z"], (1, 1, -2))):
        acc = IDENTITY_TERMS
        for n in range(1, order_bound + 1):
            acc = term_product(fld, acc, letter)
            kind, ((_, e1), (_, e2), (_, e4)) = acc
            if kind != "diag" or (e1, e2, e4) != tuple(n * e for e in triple):
                return False
    return True


def window_elements(
    max_word: int, max_z: int, include_eps: bool
) -> list[WeylElem]:
    """All normal forms with word length <= max_word and |zexp| <= max_z,
    sorted deterministically."""
    words: list[tuple[str, ...]] = [()]
    for length in range(1, max_word + 1):
        for start in (S, SP):
            w = tuple((S, SP)[(i + (start == SP)) % 2] for i in range(length))
            words.append(w)
    out = []
    for w in words:
        for zz in range(-max_z, max_z + 1):
            for eb in (0, 1) if include_eps else (0,):
                out.append(WeylElem(w, zz, eb))
    return sorted(out, key=WeylElem.sort_key)
