import random

import pytest
from hypothesis import given, strategies as st

from sl8hecke.residue import (
    COEFF_ZERO,
    NEWTON_CUTOVER,
    DomainError,
    HeckeCoeff,
    UNIT_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    UnitI,
    _packed_product,
    char_sum_eta_squares,
    eta_residue,
    make_field,
    sgn,
)
from sl8hecke.tower import E2, Tower

ADMISSIBLE_Q = [5, 9, 13, 17, 25, 29]


def brute_force_order(field, a):
    x = a
    k = 1
    while x != 1:
        x = field.mul(x, a)
        k += 1
    return k


def test_make_field_q5_canonical_zeta():
    f = make_field(5)
    # independent oracle: smallest encoding of full order, found by enumeration
    expected = next(a for a in range(2, 5) if brute_force_order(f, a) == 4)
    assert f.zeta == expected == 2


def test_make_field_q13_canonical_zeta():
    f = make_field(13)
    assert brute_force_order(f, 2) == 12
    assert f.zeta == 2


def test_make_field_q9_extension():
    f = make_field(9)
    assert (f.p, f.f) == (3, 2)
    expected = next(a for a in range(2, 9) if brute_force_order(f, a) == 8)
    assert f.zeta == expected == 4  # encodes 1 + x with x**2 = 2


def test_make_field_q25_extension():
    f = make_field(25)
    assert (f.p, f.f, f.nonsquare) == (5, 2, 2)
    expected = next(a for a in range(2, 25) if brute_force_order(f, a) == 24)
    assert f.zeta == expected == 7  # encodes 2 + x with x**2 = 2


# every admissible q < 128 with f <= 2
TABLE_Q = [5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 89, 97, 101, 109, 113, 121]


def coordinate_ops(p, f, n):
    """The scalar operations from the coordinate formulas of the a0 + p*a1
    encoding, one branch per degree: the oracle for the tables."""
    if f == 1:
        return (lambda a, b: (a + b) % p), (lambda a: -a % p), (lambda a, b: a * b % p)

    def add(a, b):
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    def neg(a):
        return (-a % p) % p + p * ((-(a // p)) % p)

    def mul(a, b):
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        return (a0 * b0 + n * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p)

    return add, neg, mul


@pytest.mark.parametrize("q", TABLE_Q)
def test_tables_match_the_coordinate_formulas_exhaustively(q):
    f = make_field(q)
    add, neg, mul = coordinate_ops(f.p, f.f, f.nonsquare)
    elems = range(q)
    add_rows = [[add(a, b) for b in elems] for a in elems]
    mul_rows = [[mul(a, b) for b in elems] for a in elems]
    for a in elems:
        assert f.neg(a) == neg(a)
        assert [f.add(a, b) for b in elems] == add_rows[a]
        assert [f.sub(a, b) for b in elems] == [add(a, neg(b)) for b in elems]
        assert [f.mul(a, b) for b in elems] == mul_rows[a]
        if a:
            assert mul(a, f.inv(a)) == 1
        # a + x * b for every x, against the oracle's rows
        row = add_rows[a]
        assert [f.affine_values(a, b) for b in elems] == [[row[m[b]] for m in mul_rows] for b in elems]
    with pytest.raises(DomainError):
        f.inv(0)
    # a monomial times a series, on either side, is the truncated product
    tw = Tower(f, precision=max(16, q))
    series = tw.from_coeffs(E2, 3, [1, 0] + list(range(2, q)))
    for c in f.units():
        mono = tw.from_coeffs(E2, -1, [c])
        want = f.mul_trunc([c], series.coeffs, tw.N)
        assert (mono * series).coeffs == (series * mono).coeffs == tuple(want)
        assert (mono * series).lead == 2


@pytest.mark.parametrize("bad", [4, 7, 6, 8, 11, 3, 27, 2])
def test_make_field_rejects_inadmissible(bad):
    with pytest.raises(ValueError):
        make_field(bad)


@pytest.mark.parametrize("q", ADMISSIBLE_Q)
def test_field_axioms_exhaustive_small(q):
    f = make_field(q)
    xs = list(f.elements())
    for a in xs:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in xs[:: max(1, q // 7)]:
        for b in xs:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(f.add(a, b), b) == a


def test_dlog_inverts_exponentiation():
    for q in ADMISSIBLE_Q:
        f = make_field(q)
        for k in range(q - 1):
            assert f.dlog(f.exp_table[k]) == k


def test_eta_values_q5():
    f = make_field(5)
    assert eta_residue(f, f.zeta) == UNIT_I
    assert eta_residue(f, f.mul(f.zeta, f.zeta)) == UNIT_MINUS_ONE
    assert eta_residue(f, 1) == UNIT_ONE


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_eta_multiplicative_exhaustive(q):
    f = make_field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert eta_residue(f, f.mul(a, b)) == eta_residue(f, a) * eta_residue(f, b)


@pytest.mark.parametrize("q", [5, 13, 17])
def test_eta_has_exact_order_four(q):
    f = make_field(q)
    image = {eta_residue(f, a).exp for a in range(1, q)}
    assert image == {0, 1, 2, 3}
    # eta**2 is non-trivial
    assert any((eta_residue(f, a) ** 2).exp != 0 for a in range(1, q))


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_sgn_matches_square_enumeration(q):
    f = make_field(q)
    squares = {f.mul(a, a) for a in range(1, q)}
    for a in range(1, q):
        expected = UNIT_ONE if a in squares else UNIT_MINUS_ONE
        assert sgn(f, a) == expected
        assert sgn(f, a) == eta_residue(f, a) ** 2


def test_sgn_specific_values_q5():
    f = make_field(5)
    assert sgn(f, f.zeta) == UNIT_MINUS_ONE
    assert sgn(f, f.pow(f.zeta, 2)) == UNIT_ONE
    assert sgn(f, 4) == UNIT_ONE  # 4 = 2**2 in F_5


def test_eta_sgn_reject_zero():
    f = make_field(5)
    with pytest.raises(DomainError):
        eta_residue(f, 0)
    with pytest.raises(DomainError):
        sgn(f, 0)


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25])
def test_char_sum_eta_squares_vanishes(q):
    assert char_sum_eta_squares(make_field(q)) == COEFF_ZERO


def test_char_sum_pencil_check_q5():
    # group the sum over x by the value of x**2: each square hit twice
    f = make_field(5)
    total = COEFF_ZERO
    for s in {f.mul(a, a) for a in range(1, 5)}:
        total = total + eta_residue(f, s).as_coeff() + eta_residue(f, s).as_coeff()
    assert total == COEFF_ZERO


def test_alternative_generator_same_conclusions():
    # the canonical zeta is a convention: spot-check another generator
    f = make_field(5)
    other = next(a for a in range(f.zeta + 1, 5) if brute_force_order(f, a) == 4)
    g = make_field.__wrapped__(5, zeta=other)
    assert eta_residue(g, g.mul(g.zeta, g.zeta)) == UNIT_MINUS_ONE
    assert char_sum_eta_squares(g) == COEFF_ZERO
    for a in range(1, 5):
        assert sgn(g, a) == sgn(f, a)


def test_make_field_rejects_non_generator_zeta():
    with pytest.raises(ValueError):
        make_field.__wrapped__(5, zeta=4)  # order 2


# -- Gaussian-integer scalars -------------------------------------------------

gauss = st.builds(HeckeCoeff, st.integers(-50, 50), st.integers(-50, 50))


@given(gauss, gauss, gauss)
def test_heckecoeff_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == COEFF_ZERO


def test_unit_i_embeds_as_the_four_units():
    assert UnitI(0).as_coeff() == HeckeCoeff(1, 0)
    assert UnitI(1).as_coeff() == HeckeCoeff(0, 1)
    assert UnitI(2).as_coeff() == HeckeCoeff(-1, 0)
    assert UnitI(3).as_coeff() == HeckeCoeff(0, -1)
    for a in range(4):
        for b in range(4):
            assert (UnitI(a) * UnitI(b)).as_coeff() == UnitI(a).as_coeff() * UnitI(b).as_coeff()


def test_unit_i_group_structure():
    i = UNIT_I
    assert i * i == UNIT_MINUS_ONE
    assert i ** 4 == UNIT_ONE
    assert i.inverse() * i == UNIT_ONE


# -- vectorised helpers ---------------------------------------------------------


@pytest.mark.parametrize("q", [5, 9, 13])
def test_convolve_matches_schoolbook(q):
    import numpy as np

    f = make_field(q)
    rngs = [(3 * k + 1) % q for k in range(6)]
    a = np.array(rngs, dtype=np.int64)
    b = np.array(rngs[::-1], dtype=np.int64)
    got = f.convolve(a, b)
    for k in range(len(got)):
        acc = 0
        for i in range(len(a)):
            j = k - i
            if 0 <= j < len(b):
                acc = f.add(acc, f.mul(int(a[i]), int(b[j])))
        assert acc == int(got[k])


@pytest.mark.parametrize("q", [5, 9, 13])
def test_mul_trunc_matches_truncated_convolution(q):
    # every shape on both sides of the packed-product cut-over, truncated at n = 17
    f = make_field(q)
    n = 17
    for sa in range(1, 21):
        for sb in range(1, 21):
            a = [(3 * k + 1) % q or 1 for k in range(sa)]
            b = [(5 * k + 2) % q or 1 for k in range(sb)]
            full = [int(v) for v in f.convolve(a, b)]
            assert f.mul_trunc(a, b, n) == full[:n]


@pytest.mark.parametrize("q", [5, 9, 13])
def test_series_inverse_roundtrip(q):
    import numpy as np

    f = make_field(q)
    b = np.array([2 % q, 1, 3 % q, 0, 4 % q, 1, 1, 0], dtype=np.int64)
    n = 12
    c = f.series_inverse(b, n)
    prod = f.convolve(b, c)[:n]
    assert int(prod[0]) == 1
    assert not prod[1:].any()


def recurrence_inverse(f, b, n):
    """1 / b mod T**n by the term-by-term recurrence in scalar field operations."""
    x = [f.inv(b[0])]
    for k in range(1, n):
        acc = 0
        for j in range(1, min(k, len(b) - 1) + 1):
            acc = f.add(acc, f.mul(b[j], x[k - j]))
        x.append(f.mul(f.neg(x[0]), acc))
    return x


@pytest.mark.parametrize("q", ADMISSIBLE_Q + [37, 41, 49, 53])
def test_newton_inverse_matches_the_recurrence(q):
    # operands of 17 to N + 3 terms: Newton iteration over F_p, the
    # recurrence over F_{p^2}; trailing zeros shorten some below the cut-over
    f = make_field(q)
    rng = random.Random(q)
    for n in (17, 40):
        for supp in range(17, n + 4):
            b = [rng.randrange(q) for _ in range(supp)]
            b[0] = rng.randrange(1, q)
            assert f.series_inverse(b, n) == recurrence_inverse(f, b, n)


# -- packed kernels against numpy and the scalar recurrence ------------------------

PACKED_Q = [5, 9, 13, 25, 49, 53]


@pytest.mark.parametrize("q", PACKED_Q)
def test_mul_trunc_matches_numpy_at_every_shape_up_to_the_window(q):
    # every shape 1..40 x 1..40, truncated at N = 40: the schoolbook loop and
    # the packed product over F_p, the packed coordinate products over F_{p^2};
    # one operand pair per shape is all q - 1, the largest slot values
    f = make_field(q)
    rng = random.Random(q)
    n = 40
    for sa in range(1, n + 1):
        for sb in range(1, n + 1):
            a = [rng.randrange(q) for _ in range(sa)]
            b = [rng.randrange(q) for _ in range(sb)]
            for x, y in ((a, b), ([q - 1] * sa, [q - 1] * sb)):
                assert f.mul_trunc(x, y, n) == f.convolve(x, y)[:n].tolist(), (sa, sb)


@pytest.mark.parametrize("q", PACKED_Q)
def test_graeffe_matches_the_conjugate_product(q):
    # a(x) * a(-x) by numpy's convolution, read in x**2
    f = make_field(q)
    rng = random.Random(q)
    for size in range(1, 41):
        a = [rng.randrange(q) for _ in range(size)]
        minus = [c if k % 2 == 0 else f.neg(c) for k, c in enumerate(a)]
        full = f.convolve(a, minus).tolist()
        assert not any(full[1::2])
        for n in (1, 7, 17, 20, 40):
            assert f.graeffe(a, n) == full[::2][:n], (size, n)


@pytest.mark.parametrize("q", ADMISSIBLE_Q + [37, 41, 49, 53])
def test_packed_newton_matches_the_recurrence_past_one_window(q):
    # one Newton loop for every f, the F_{p^2} fields included; n past 40
    # makes Newton steps whose correction d is shorter than the step, for
    # supports just past the cut-over; all-(q - 1) operands too, the largest
    # packed slot values
    f = make_field(q)
    rng = random.Random(q)
    for n in (64, 97, 40):
        for supp in (NEWTON_CUTOVER + 1, NEWTON_CUTOVER + 2, 33, n):
            b = [rng.randrange(q) for _ in range(supp)]
            b[0] = rng.randrange(1, q)
            for divisor in (b, [q - 1] * supp):
                got = f.series_inverse(divisor, n)
                assert got == recurrence_inverse(f, divisor, n) == f._recurrence((1,), divisor, n)


@pytest.mark.parametrize("q", ADMISSIBLE_Q + [37, 41, 49, 53])
def test_series_quotient_is_the_product_with_the_inverse(q):
    f = make_field(q)
    rng = random.Random(q)
    for n in (17, 40):
        for supp in (1, 2, 3, 4, 5, 8, 16, 17, n):
            b = [rng.randrange(q) for _ in range(supp)]
            b[0] = rng.randrange(1, q)
            for size in (1, 2, 4, 13, n, n + 3):
                a = [rng.randrange(q) for _ in range(size)]
                assert f.series_quotient(a, b, n) == f.mul_trunc(a, recurrence_inverse(f, b, n), n)
    with pytest.raises(DomainError):
        f.series_quotient([1, 2], [0, 1], 17)


def test_packed_product_widens_slots_past_32_bits():
    def exact(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    # min(len) * top**2 reaches 2**32 exactly: a 32-bit slot would read 0
    assert list(_packed_product([1 << 16], [1 << 16], 1 << 16)) == [1 << 32]
    assert list(_packed_product([(1 << 16) - 1], [(1 << 16) - 1], (1 << 16) - 1)) == [((1 << 16) - 1) ** 2]
    a = [(1 << 20) - 1, 3, 1 << 19, (1 << 20) - 7]
    b = [(1 << 20) - 3, 1 << 20, 5]
    assert list(_packed_product(a, b, 1 << 20)) == exact(a, b)
    # products of p - 1 sums within 32 bits: the same digits from both widths
    top = 52
    a, b = [top] * 40, [top, 0, top] * 13
    assert list(_packed_product(a, b, top)) == list(_packed_product(a, b, 1 << 20)) == exact(a, b)
    with pytest.raises(OverflowError):
        _packed_product([1], [1], 1 << 32)
