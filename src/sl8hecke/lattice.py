"""The lattice section: the valuation-triple lattice of the compact torus.

On the compact-quotient level the torus part of the group is the integer
lattice of valuation triples (n1, n2, n3) with n1 + n2 + n3 = 0 and n3
even (`weyl.h_M0` reads a torus element's triple).  `lattice_check`
verifies that lattice two ways: its Hermite normal form equals that of the
span of (1, 1, -2) and (1, -1, 0), and on a box membership matches the
exact norm condition, evaluated on the uniformizers' powers.  Only the
lattice row calls it, and the CLI imports this module in that row.
"""

from __future__ import annotations

from .residue import sgn
from .tower import E2, E4, Tower


def hermite_normal_form(vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style HNF basis of the lattice spanned by the rows."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    ncols = len(rows[0])
    basis: list[list[int]] = []
    for vec in rows:
        vec = vec[:]
        for row in basis:
            j = next(k for k, x in enumerate(row) if x)
            if vec[j]:
                # gcd-reduce vec against the pivot row
                a, b = row[j], vec[j]
                x, y, g = _xgcd(a, b)
                new_row = [x * r + y * v for r, v in zip(row, vec)]
                vec = [(a // g) * v - (b // g) * r for r, v in zip(row, vec)]
                row[:] = new_row
        if any(vec):
            basis.append(vec)
            basis.sort(key=lambda r: next(k for k, x in enumerate(r) if x))
    # canonicalise: positive pivots, entries above a pivot reduced mod it
    for i, row in enumerate(basis):
        j = next(k for k, x in enumerate(row) if x)
        if row[j] < 0:
            basis[i] = [-x for x in row]
    for i in reversed(range(len(basis))):
        j = next(k for k, x in enumerate(basis[i]) if x)
        for i2 in range(i):
            q = basis[i2][j] // basis[i][j]
            if q:
                basis[i2] = [a - q * b for a, b in zip(basis[i2], basis[i])]
    return tuple(tuple(r) for r in basis)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def congruence_lattice_members(bound: int):
    """All triples with |n_i| <= bound, zero sum and even last entry."""
    rng = range(-bound, bound + 1)
    return [
        (n1, n2, n3)
        for n1 in rng
        for n2 in rng
        for n3 in rng
        if n1 + n2 + n3 == 0 and n3 % 2 == 0
    ]


def norm_condition_holds(tower: Tower, n: tuple[int, int, int]) -> bool:
    """Exact evaluation: is N(pi2**(n1+n2)) * N(pi4**n3) a unit whose residue
    is an even power of the primitive root?"""
    n1, n2, n3 = n
    value = (tower.uniformizer(E2) ** (n1 + n2)).norm_to_F() * (
        tower.uniformizer(E4) ** n3
    ).norm_to_F()
    if value.ord_norm() != 0:
        return False
    return sgn(tower.field, value.unit_residue()).exp == 0


def lattice_check(tower: Tower, bound: int = 4) -> bool:
    """HNF equality of the congruence lattice with <(1,1,-2), (1,-1,0)>, plus
    the equivalence of membership with the exact norm condition on a box."""
    span = hermite_normal_form([(1, 1, -2), (1, -1, 0)])
    congruence = hermite_normal_form(congruence_lattice_members(2))
    if span != congruence:
        return False
    for n1 in range(-bound, bound + 1):
        for n2 in range(-bound, bound + 1):
            for n3 in range(-bound, bound + 1):
                member = (n1 + n2 + n3 == 0) and n3 % 2 == 0
                if member != norm_condition_holds(tower, (n1, n2, n3)):
                    return False
    return True
