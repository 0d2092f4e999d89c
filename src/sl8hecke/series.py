"""The long-series kernels: arithmetic on elements of more than one term.

A monomial c * pi**e, which is what every canonical lift, transversal frame
and double-coset label of the verifier is made of, is multiplied, inverted
and normed by the fast paths of `tower` alone.  The code here serves the
rest, and each of its callers imports it on first call:

  * the residue field's sequence kernels (`residue.ResidueField` keeps a
    method for each): the truncated product ``mul_trunc``, the series
    division ``series_inverse``, Graeffe's root-squaring step ``graeffe``
    and numpy's ``convolve``, the reference the tests compare them against;
  * the Laurent operations on longer elements (`tower.LaurentElem` and
    `tower.Tower` keep a method for each): the series branches of
    ``inverse`` and ``norm_to_F``, ``galois``, the base-field reading
    ``to_base``, ``trace_to_F`` and ``embed``;
  * the samplers ``random_unit`` and ``random_element`` and the sampled
    ``norm_unit_image_check``, still importable from `tower`.

Every series division goes through ``ResidueField.series_inverse``, the
method, so a caller that replaces it sees every division.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .residue import DomainError
from .tower import E2, E4, F, RAMIFICATION, LaurentElem, PrecisionExhausted, TagMismatch, Tower, _trim

if TYPE_CHECKING:
    import numpy as np

    from .residue import ResidueField


# -- coefficient sequences ------------------------------------------------------------


def convolve(field: ResidueField, a, b) -> np.ndarray:
    """Full linear convolution of two coefficient sequences (series product).

    numpy's convolution, the reference that the tests compare the
    table-driven kernels against; nothing in the package calls it, so no
    run of the package loads numpy."""
    import numpy as np

    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if field.f == 1:
        return np.convolve(a, b) % field.p
    p, n = field.p, field.nonsquare
    a0, a1 = a % p, a // p
    b0, b1 = b % p, b // p
    r0 = (np.convolve(a0, b0) + n * np.convolve(a1, b1)) % p
    r1 = (np.convolve(a0, b1) + np.convolve(a1, b0)) % p
    return r0 + p * r1


def mul_trunc(field: ResidueField, a, b, n: int) -> list[int]:
    """First n coefficients of the product of two coefficient sequences.

    The schoolbook loop on the field's tables, one path for every q and
    every operand size: each a_i picks one row of the multiplication
    table, and its products with b are added into their slots."""
    add, mul = field.add_table, field.mul_table
    out = [0] * min(len(a) + len(b) - 1, n)
    for i, x in enumerate(a[:n]):
        row = mul[x]
        for k, y in enumerate(b[: n - i], i):
            out[k] = add[out[k]][row[y]]
    return out


def graeffe(field: ResidueField, a, n: int) -> list[int]:
    """First n coefficients of a(x) * a(-x) read in x**2, Graeffe's
    root-squaring step: with a(x) = A(x**2) + x * B(x**2) it is
    A**2 - x * B**2, two `mul_trunc` squares of half-length operands."""
    even, odd = a[::2], a[1::2]
    out = mul_trunc(field, even, even, n)
    if odd and n > 1:
        sq = mul_trunc(field, odd, odd, n - 1)
        out += [0] * (len(sq) + 1 - len(out))
        sub = field.sub
        for k, y in enumerate(sq, 1):
            out[k] = sub(out[k], y)
    return out


def series_inverse(field: ResidueField, b, n: int) -> list[int]:
    """First n coefficients of 1 / (b0 + b1*T + ...); requires b[0] != 0.

    x_0 = 1 / b_0 and x_k = -(b_1 x_{k-1} + b_2 x_{k-2} + ...) / b_0, in
    O(n * len(b)) table reads: the taps -b_j / b_0 are scaled once, and a
    window of the last len(b) - 1 terms, oldest first, slides along."""
    coeffs = [int(v) for v in b[:n]]
    if coeffs[0] == 0:
        raise DomainError("series division needs an invertible constant term")
    while not coeffs[-1]:
        coeffs.pop()
    add, mul = field.add_table, field.mul_table
    c = field.inv(coeffs[0])
    taps = [mul[field.neg(c)][v] for v in coeffs[:0:-1]]
    window = deque([0] * len(taps), maxlen=len(taps))
    out = []
    for v in [c] + [0] * (n - 1):
        for u, w in zip(taps, window):
            v = add[v][mul[u][w]]
        window.append(v)
        out.append(v)
    return out


# -- Laurent elements of more than one term ---------------------------------------------


def embed(tower: Tower, x: LaurentElem, tag: str) -> LaurentElem:
    """View an F-element inside E2 or E4 (identity for tag F)."""
    if x.tag != F:
        raise TagMismatch(f"can only embed F-elements, got {x.tag}")
    if tag == F or x.is_zero:
        return x if tag == F else tower.zero(tag)
    e = RAMIFICATION[tag]
    u = tower.t_unit[tag]
    fld = tower.field
    # base digit j lands at position e*j with the factor u**(lead + j)
    kept = x.coeffs[: -(-tower.N // e)]
    out = [0] * (e * (len(kept) - 1) + 1)
    scale = fld.pow(u, x.lead) if x.lead != 0 else 1
    for j, c in enumerate(kept):
        if c:
            out[e * j] = fld.mul(c, scale)
        scale = fld.mul(scale, u)
    exact = x.exact and e * (x.supp - 1) < tower.N
    return LaurentElem(tower, tag, e * x.lead, _trim(out)[1], exact)


def inverse_series(x: LaurentElem) -> LaurentElem:
    """1 / x for x of more than one term, correct to the window."""
    tw = x.tower
    inv = tw.field.series_inverse(x.coeffs, tw.N)
    return LaurentElem(tw, x.tag, -x.lead, _trim(inv)[1], False)


def norm_series(x: LaurentElem) -> LaurentElem:
    """The norm to F of x in E2 or E4 of more than one term.

    The conjugates of pi**lead * U(pi) are r**lead * pi**lead * U(r*pi) over
    the e-th roots of unity r, whose product is (-1)**lead; the first N
    coefficients of the product need only the first N of U."""
    tw = x.tower
    fld = tw.field
    e = RAMIFICATION[x.tag]
    digits, n = x.coeffs, tw.N
    for _ in range(e.bit_length() - 1):
        n = -(-n // 2)
        digits = graeffe(fld, digits, n)
    # the product of e windows of supp s is exact while its e * (s - 1) + 1 terms fit
    exact = x.exact and e * (x.supp - 1) < tw.N
    sign = fld.neg(1) if x.lead % 2 else 1
    return x._to_base(x.lead, _trim(digits)[1], exact, sign)


def galois(x: LaurentElem, k: int) -> LaurentElem:
    """The k-th power of the chosen Galois generator of x's field, applied to x."""
    tw = x.tower
    e = RAMIFICATION[x.tag]
    k %= e
    if k == 0 or x.is_zero:
        return x
    fld = tw.field
    # multiplier at position j is (generator image unit)**(k*(lead+j)),
    # a periodic pattern cached per (tag, k, lead mod period)
    key = (x.tag, k, x.lead % e)
    pattern = tw._galois_patterns.get(key)
    if pattern is None:
        if x.tag == E2:
            unit = fld.neg(1)  # pi2 -> -pi2
        else:
            unit = fld.pow(tw.i4, k)  # pi4 -> i4**k * pi4
        vals = []
        acc = fld.pow(unit, x.lead % e) if x.lead % e else 1
        for _ in range(tw.N):
            vals.append(acc)
            acc = fld.mul(acc, unit)
        pattern = tuple(vals)
        tw._galois_patterns[key] = pattern
    coeffs = tuple(map(fld.mul, x.coeffs, pattern))
    return LaurentElem(tw, x.tag, x.lead, coeffs, x.exact)


def to_base(x: LaurentElem, w0: int, digits, exact: bool, sign: int = 1) -> LaurentElem:
    """Read sign * pi**(e*w0) * sum_j digits[j] * pi**(e*j) (trimmed, at most N/e digits rounded up)
    in F: t = t_unit * pi**e, so base digit j is sign * t_unit**-(w0 + j) * digits[j]."""
    tw = x.tower
    fld = tw.field
    # the w-independent part of the scale is cached
    pattern = tw._base_patterns.get(x.tag)
    if pattern is None:
        u_inv = fld.inv(tw.t_unit[x.tag])
        vals = []
        acc = 1
        for _ in range(tw.N):
            vals.append(acc)
            acc = fld.mul(acc, u_inv)
        pattern = tuple(vals)
        tw._base_patterns[x.tag] = pattern
    scaled = map(fld.mul, digits, pattern)
    head_scale = fld.mul(sign, fld.pow(fld.inv(tw.t_unit[x.tag]), w0))
    if head_scale != 1:
        scaled = [fld.mul(head_scale, c) for c in scaled]
    return LaurentElem(tw, F, w0, tuple(scaled), exact)


def trace_to_F(x: LaurentElem) -> LaurentElem:
    """Sum of all Galois conjugates of x, read in F."""
    if x.tag == F:
        return x
    tw = x.tower
    if x.is_zero:
        return tw.zero(F)
    e = RAMIFICATION[x.tag]
    add = tw.field.add
    # All conjugates share the window [lead, lead+N); sum positionally in
    # one pass so intermediate partial sums cannot masquerade as zero.
    acc = x.coeffs
    for k in range(1, e):
        acc = tuple(map(add, acc, x.galois(k).coeffs))
    j, acc = _trim(acc)
    if not acc:
        if x.exact:
            return tw.zero(F)  # genuinely trace-free (all conjugates cancel)
        raise PrecisionExhausted(f"trace cancelled every retained coefficient in {x.tag}")
    lead = x.lead + j
    if lead % e or any(c for k, c in enumerate(acc) if k % e):
        raise AssertionError("Galois-symmetric element has stray coefficients")
    # Window tails beyond N/e base digits are exact only for polynomial
    # support, signalled by the exact flag.  The last coefficient sits
    # at a multiple of e (no strays), so the reading stays trimmed.
    return x._to_base(lead // e, acc[::e], x.exact)


# -- samplers ----------------------------------------------------------------------------


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
