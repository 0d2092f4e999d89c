import copy
import hashlib
import json
import math
import random
from functools import partial

import pytest

from sl8hecke import weyl
from sl8hecke.groupmodel import (
    PARAHORIC,
    STABILIZER,
    MembershipError,
    commutator,
    elem_eps,
    elem_s,
    elem_s_prime,
    elem_z,
    identity,
    in_K0,
    in_KM0,
    lower_l,
    monomial_matrix,
    monomial_terms,
    rho0,
    rho_M0,
    term_commutator,
    term_inverse,
    term_product,
    torus,
    upper_u,
)
from sl8hecke.cocycle import CocycleTable, nontriviality_certificate, perturbed_table, sz_perturbed_table
from sl8hecke.hecke import ClassificationError, HeckeContext, TransversalFamily, WindowExceeded
from sl8hecke.reference import PerturbedCocycleTable, iwahori_decompose, random_K0
from sl8hecke.residue import COEFF_ONE, COEFF_ZERO, HeckeCoeff, ResidueField, UNIT_MINUS_ONE, UNIT_ONE, make_field
from sl8hecke.tower import E2, E4, Tower
from sl8hecke.weyl import W_EPS, W_ID, W_S, W_SP, W_Z, WeylElem


@pytest.fixture(scope="module")
def ctx_stab(tower5_module):
    return HeckeContext(tower5_module, STABILIZER)


@pytest.fixture(scope="module")
def ctx_par(tower5_module):
    return HeckeContext(tower5_module, PARAHORIC)


@pytest.fixture(scope="module")
def tower5_module():
    from sl8hecke.residue import make_field
    from sl8hecke.tower import Tower

    return Tower(make_field(5), 40)


# -- transversals -----------------------------------------------------------------


def test_coset_reps_counts(ctx_stab):
    q = ctx_stab.tower.q
    assert len(ctx_stab.coset_reps(W_ID)) == 1
    assert len(ctx_stab.coset_reps(W_S)) == q
    assert len(ctx_stab.coset_reps(W_SP)) == q
    assert len(ctx_stab.coset_reps(W_S * W_SP)) == q * q


def test_coset_reps_central_parts_share_transversal(ctx_stab):
    assert ctx_stab.coset_reps(WeylElem((), 1)) == ctx_stab.coset_reps(W_ID)


def test_coset_reps_window_enforced(ctx_stab):
    with pytest.raises(WindowExceeded):
        ctx_stab.coset_reps(WeylElem(("s", "s'") * 3))


def test_the_sign_element_is_outside_the_stabilizer_variant(ctx_stab, ctx_par):
    # eps is an element of W in the parahoric variant only; a stabiliser
    # context that took it would read phi_eps as phi_1 (its lift classifies
    # as the identity there) and report 0 for a convolution whose value is 1;
    # its cocycle table refuses eps as well
    assert ctx_stab.classify(ctx_stab.lift(W_EPS)) == W_ID
    for call in (
        lambda ctx: ctx.convolve_at(W_EPS, W_EPS, ctx.lift(W_ID)),
        lambda ctx: ctx.double_coset_product(W_EPS, W_S),
        lambda ctx: ctx._omega_pair(W_EPS, W_S, None),
        lambda ctx: ctx.coset_reps(W_S * W_EPS),
        lambda ctx: CocycleTable(ctx).mu(W_S, W_EPS),
        lambda ctx: CocycleTable(ctx).beta(W_S, W_EPS),
    ):
        with pytest.raises(WindowExceeded, match="not an element of W"):
            call(ctx_stab)
    assert ctx_par.classify(ctx_par.lift(W_EPS)) == W_EPS
    assert ctx_par.convolve_at(W_EPS, W_EPS, ctx_par.lift(W_ID)) == COEFF_ONE
    assert ctx_par.double_coset_product(W_EPS, W_S) == {W_S * W_EPS}
    assert ctx_par._omega_pair(W_EPS, W_S, None)
    CocycleTable(ctx_par).beta(W_S, W_EPS)


def test_convolve_at_refuses_a_target_outside_w(ctx_stab, ctx_par):
    # a Weyl target is checked like the two basis elements: eps is no element
    # of W in the stabiliser variant, where its lift would read as the identity's
    with pytest.raises(WindowExceeded, match="not an element of W"):
        ctx_stab.convolve_at(W_S, W_S, W_EPS)
    assert ctx_par.convolve_at(W_S, W_S, W_EPS) == ctx_par.convolve_at(W_S, W_S, ctx_par.lift(W_EPS))


def test_coset_reps_longer_word(ctx_stab):
    reps = ctx_stab.coset_reps(WeylElem(("s", "s'", "s")))
    assert len(reps) == ctx_stab.tower.q ** 3


def _planted(ctx, w, j, r, r_inv):
    """Copies of the families of w's transversal, its members and their
    inverses, with r and r_inv planted as member j: its valuations, leading
    residues, digit rows, entries and matrix."""
    out = []
    for inverse, g in ((False, r), (True, r_inv)):
        base = copy.copy(ctx.base_family(w, inverse))
        entries = (g.a, g.b, g.c, g.d)
        base.ords, base.residues, base.members = list(base.ords), list(base.residues), list(base.members)
        base.ords[j] = tuple(math.inf if x.is_zero else x.lead for x in entries)
        base.residues[j] = tuple(0 if x.is_zero else x.unit_residue() for x in entries)
        base.members[j] = g
        base.entry = lambda i, k, entry=base.entry, entries=entries: entries[k] if i == j else entry(i, k)
        base._rows = [_planted_rows(rows, j, x, len(base)) for rows, x in zip(base._rows, entries)]
        out.append(base)
    return out


def _planted_rows(rows, j, x, n):
    """An entry's (lowest exponent, digit rows) over n members with member
    j's digits replaced by those of x, the rows widened to cover x's digits."""
    lo, digits = rows
    lead = lo if x.is_zero else x.lead
    start, stop = min(lo, lead), max(lo + len(digits), lead + len(x.coeffs))
    out = [list(digits[k - lo]) if lo <= k < lo + len(digits) else [0] * n for k in range(start, stop)]
    for k in range(start, stop):
        out[k - start][j] = x.coeffs[k - lead] if 0 <= k - lead < len(x.coeffs) else 0
    return start, out


def test_duplicate_transversal_is_rejected(ctx_stab, ctx_par):
    # member 2 of the transversal of s is u(2); planted again as member 3,
    # rejected whichever variant's context validates
    from sl8hecke.hecke import TransversalError

    for ctx in (ctx_stab, ctx_par):
        tw = ctx.tower
        u2 = upper_u(tw, 2)
        assert ctx.coset_reps(W_S)[2] == u2
        doctored = _planted(ctx, W_S, 3, u2, upper_u(tw, tw.field.neg(2)))
        with pytest.raises(TransversalError, match="duplicate"):
            ctx._validate_transversal(W_S, *doctored)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_a_coset_shared_under_either_variant_fails_the_shared_build(variant, monkeypatch):
    # both variants read one validated build, so a colliding pair that shares
    # a coset under one variant's K only must fail it, whichever context asks;
    # a fresh tower, as the membership test on the build path is doctored
    import sl8hecke.matrices as matrices
    from sl8hecke.hecke import TransversalError

    tw = Tower(make_field(5), 40)
    membership = matrices.in_K0
    monkeypatch.setattr(matrices, "in_K0", lambda g, v: v == variant and membership(g, v))
    w = W_S * W_SP
    for asking in (STABILIZER, PARAHORIC):
        ctx = HeckeContext(tw, asking)
        doctored = _stabilised(ctx, w, 0, len(ctx.coset_reps(w)) - 1)
        with pytest.raises(TransversalError, match="duplicate"):
            ctx._validate_transversal(w, *doctored)


def test_both_variants_share_one_validated_build_per_word(monkeypatch):
    # the transversals depend on the tower and the word only: a stabiliser and
    # a parahoric context on one tower read the same families, each word's
    # built and validated once, central parts and sign bits included (the
    # stabiliser takes no sign bit, so it reads the family of w without it)
    tw = Tower(make_field(5), 40)
    validated = _count_calls(monkeypatch, HeckeContext, "_validate_transversal")
    stab, par = HeckeContext(tw, STABILIZER), HeckeContext(tw, PARAHORIC)
    assert stab.omega_check() and par.omega_check()
    window = par.window(2, 1)
    for w in window:
        for inverse in (False, True):
            assert stab.base_family(WeylElem(w.word, w.zexp), inverse) is par.base_family(w, inverse)
    assert len(validated) == len({w.word for w in window})


def test_non_member_representative_is_rejected(ctx_stab):
    from sl8hecke.groupmodel import elem_z
    from sl8hecke.hecke import TransversalError

    z = elem_z(ctx_stab.tower)
    with pytest.raises(TransversalError, match="non-member"):
        ctx_stab._validate_transversal(W_S, *_planted(ctx_stab, W_S, 0, z, z.inverse()))


def _shared_coset_pairs(ctx, w, reps):
    """The all-pairs oracle: every (i, j), i < j, whose representatives share
    a coset of K cap wKw^-1 for ctx's variant: r_i^-1 r_j lies in wKw^-1
    and in K, by the exact membership tests."""
    word = WeylElem(w.word)
    w_lift, w_lift_inv = ctx.lift(word), ctx.lift_inverse(word)
    hs = [r * w_lift for r, _ in reps]
    n = len(reps)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if in_K0(w_lift_inv * (reps[i][1] * hs[j]), ctx.variant) and in_K0(reps[i][1] * reps[j][0], ctx.variant)
    ]


def _stabilised(ctx, w, i, j):
    """The families of w's transversal with member j replaced by r_i * k,
    k = u(pi2^4) a non-identity element of K cap wKw^-1 (checked); k keeps
    the d-entry residue, so only the pair test can reject the copy."""
    tw = ctx.tower
    k = upper_u(tw, tw.uniformizer(E2) ** 4)
    word = WeylElem(w.word)
    assert in_K0(k, ctx.variant)
    assert in_K0(ctx.lift_inverse(word) * k * ctx.lift(word), ctx.variant)
    r_i, r_i_inv = ctx.coset_reps_with_inverses(w)[i]
    return _planted(ctx, w, j, r_i * k, k.inverse() * r_i_inv)


@pytest.mark.parametrize(
    "q, max_word",
    [
        pytest.param(5, 2, id="q5"),
        pytest.param(9, 2, id="q9"),
        pytest.param(13, 2, id="q13"),
        pytest.param(5, 3, id="q5-words3"),
    ],
)
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_keyed_validation_agrees_with_the_all_pairs_oracle(q, max_word, variant, request):
    # every transversal of the window (words of length max_word only, when 3):
    # the key separates every representative, the oracle finds no shared
    # coset, and on a copy with a planted duplicate both reject
    from sl8hecke.hecke import TransversalError, coset_key

    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    words = {w.word for w in ctx.window(max_word, 1) if max_word == 2 or len(w.word) == 3}
    for word in sorted(words):
        w = WeylElem(word)
        reps = ctx.coset_reps_with_inverses(w)  # runs the keyed validation
        keys = [coset_key(r * ctx.lift(w)) for r, _ in reps]
        assert len(set(keys)) == len(reps)
        assert _shared_coset_pairs(ctx, w, reps) == []
        if len(reps) > 1:
            doctored = _stabilised(ctx, w, 0, len(reps) - 1)
            pairs = list(zip(doctored[0].members, doctored[1].members))
            assert _shared_coset_pairs(ctx, w, pairs) == [(0, len(reps) - 1)]
            with pytest.raises(TransversalError, match="duplicate"):
                ctx._validate_transversal(w, *doctored)


@pytest.mark.parametrize("q, max_word", [(5, 3), (9, 2), (13, 2)])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_validation_keys_are_the_matrix_coset_keys(q, max_word, variant, monkeypatch):
    # validation reads each member's key from the family's valuations and
    # digit rows and builds no Laurent element; every key equals coset_key of
    # r * lift(w) on the matrix, member by member.  A fresh tower: the
    # session's towers hold transversals that other tests built
    import sl8hecke.hecke as hecke

    keys, key_of = [], hecke._coset_key
    monkeypatch.setattr(hecke, "_coset_key", lambda *args: keys.append(key_of(*args)) or keys[-1])
    built = _count_calls(monkeypatch, Tower, "from_coeffs")
    ctx = HeckeContext(Tower(make_field(q), 40), variant)
    expected = []
    for word in sorted({w.word for w in ctx.window(max_word, 1)}):
        ctx.base_family(WeylElem(word))
        expected.append((word, len(keys)))
    assert not built
    got = list(keys)
    for word, end in reversed(expected):
        w = WeylElem(word)
        start = end - len(ctx.base_family(w))
        assert got[start:end] == [hecke.coset_key(r * ctx.lift(w)) for r in ctx.coset_reps(w)], word


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_coset_key_is_right_K_invariant(q, variant, request):
    from sl8hecke.hecke import coset_key

    tw = request.getfixturevalue(f"tower{q}")
    ctx = HeckeContext(tw, variant)
    window = ctx.window(2, 1)
    rng = random.Random(100 * q + len(variant))
    for _ in range(50):
        w = rng.choice(window)
        h = rng.choice(ctx.coset_reps(w)) * ctx.lift(w)
        # random_K0 factors carry inexact series entries
        assert coset_key(h * random_K0(tw, variant, rng)) == coset_key(h)


def test_duplicate_coset_is_found_at_q17():
    # 289 representatives, 41,616 pairs: one planted duplicate must be found
    from sl8hecke.hecke import TransversalError
    from sl8hecke.residue import make_field
    from sl8hecke.tower import Tower

    ctx = HeckeContext(Tower(make_field(17), 40), STABILIZER)
    w = W_S * W_SP
    with pytest.raises(TransversalError, match="duplicate"):
        ctx._validate_transversal(w, *_stabilised(ctx, w, 3, 250))


def test_quotient_digits_raise_beyond_an_inexact_window(tower5):
    from sl8hecke.hecke import TransversalError, _quotient_digits

    tw = tower5
    one, pi2 = tw.one(E2), tw.uniformizer(E2)
    series = one / (one + pi2)  # inexact: 1 - pi2 + pi2^2 - ...
    assert _quotient_digits(one, one + pi2, 3) == (0, tuple(series.coeffs[:3]))
    assert _quotient_digits(pi2 ** 3, one, 3) == ()
    # an exact operand is zero beyond its window
    assert _quotient_digits(pi2 ** -50, one, 0) == (-50, (1,) + (0,) * 49)
    with pytest.raises(TransversalError):
        _quotient_digits(series, one, tw.N + 1)


# -- classification ------------------------------------------------------------------


@pytest.mark.parametrize("variant_fixture", ["ctx_stab", "ctx_par"])
def test_classify_roundtrips_lifts(variant_fixture, request):
    ctx = request.getfixturevalue(variant_fixture)
    for w in ctx.window(2, 1):
        assert ctx.classify(ctx.lift(w)) == w


def test_classify_lower_unipotent_unit_is_s(ctx_stab):
    tw = ctx_stab.tower
    g = lower_l(tw, 3)
    assert ctx_stab.classify(g) == W_S


def test_classify_upper_unipotent_is_identity(ctx_stab):
    assert ctx_stab.classify(upper_u(ctx_stab.tower, 2)) == W_ID


def test_classify_eps_variants(ctx_stab, ctx_par):
    from sl8hecke.groupmodel import elem_eps

    eps = elem_eps(ctx_stab.tower)
    assert ctx_stab.classify(eps) == W_ID  # absorbed into the compact torus
    assert ctx_par.classify(eps) == W_EPS


def test_classify_roundtrip_with_central_power(ctx_stab):
    w = WeylElem(("s",), 2)
    assert ctx_stab.classify(ctx_stab.lift(w)) == w


def test_classify_products_against_normal_form(ctx_stab, rng):
    window = ctx_stab.window(2, 1)
    for _ in range(25):
        w1, w2 = rng.choice(window), rng.choice(window)
        g = ctx_stab.lift(w1) * ctx_stab.lift(w2)
        assert ctx_stab.classify(g) == ctx_stab.classify(ctx_stab.lift(w1 * w2))


@pytest.mark.parametrize("variant_fixture", ["ctx_stab", "ctx_par"])
def test_classify_is_a_double_coset_invariant(variant_fixture, request, rng):
    # the label may not move under multiplication by compact elements
    ctx = request.getfixturevalue(variant_fixture)
    window = ctx.window(2, 1)
    for _ in range(20):
        w = rng.choice(window)
        k1 = random_K0(ctx.tower, ctx.variant, rng)
        k2 = random_K0(ctx.tower, ctx.variant, rng)
        assert ctx.classify(k1 * ctx.lift(w) * k2) == w


# -- convolution -----------------------------------------------------------------------


def one_coeff():
    return HeckeCoeff(1, 0)


def _convolve_by_points(ctx, w1, w2, g):
    """(phi_{w1} * phi_{w2})(g) point by point on the matrix path, at any g:
    phi_{w1}(r * lift(w1)) * phi_{w2}(lift(w1)^-1 * r^-1 * g) summed over the
    transversal r of w1, the second factor read only where the first is nonzero."""
    total = COEFF_ZERO
    for r, r_inv in ctx.coset_reps_with_inverses(w1):
        first = ctx.phi(w1, r * ctx.lift(w1))
        if not first.is_zero():
            total = total + first * ctx.phi(w2, ctx.lift_inverse(w1) * (r_inv * g))
    return total


def test_convolution_vanishing_s(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        assert ctx.convolve_at(W_S, W_S, ctx.lift(W_S)) == COEFF_ZERO


def test_convolution_vanishing_s_prime(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        assert ctx.convolve_at(W_SP, W_SP, ctx.lift(W_SP)) == COEFF_ZERO


def test_convolution_at_identity_is_q(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        q = ctx.tower.q
        assert ctx.convolve_at(W_S, W_S, identity(ctx.tower)) == HeckeCoeff(q, 0)


def test_convolution_terms_match_character_values(ctx_stab):
    # independent oracle: the x-th term of (phi_s * phi_s)(lift(s)) is the
    # quadratic character of -x for nonzero x and 0 for x = 0, so the sum
    # is a full character sum and vanishes
    from sl8hecke.residue import COEFF_ZERO, sgn

    tw = ctx_stab.tower
    s_lift = ctx_stab.lift(W_S)
    s_inv = s_lift.inverse()
    total = COEFF_ZERO
    for enc in range(tw.q):
        x = tw.constant(E2, enc)
        first = ctx_stab.phi(W_S, upper_u(tw, x) * s_lift)
        assert first == HeckeCoeff(1, 0)
        term = ctx_stab.phi(W_S, s_inv * upper_u(tw, -x) * s_lift)
        if enc == 0:
            assert term.is_zero()
        else:
            assert term == sgn(tw.field, tw.field.neg(enc)).as_coeff()
        total = total + first * term
    assert total == COEFF_ZERO
    assert total == ctx_stab.convolve_at(W_S, W_S, s_lift)


def test_reflection_square_is_q_times_identity_function(ctx_stab, ctx_par, rng):
    # phi_s * phi_s is supported on {1, s} and vanishes at the reflection,
    # so it must equal q * phi_1 as a function: check at sample points.
    # convolve_at takes the monomial points; the random_K0 draws are not
    # monomial, so the per-point oracle sums them
    for ctx in (ctx_stab, ctx_par):
        q = HeckeCoeff(ctx.tower.q, 0)
        for w_pair in (W_S, W_SP):
            monomial = [identity(ctx.tower), ctx.lift(W_Z), ctx.lift(W_SP if w_pair == W_S else W_S)]
            sampled = [
                random_K0(ctx.tower, ctx.variant, rng),
                random_K0(ctx.tower, ctx.variant, rng) * ctx.lift(w_pair),
            ]
            for convolve, points in ((ctx.convolve_at, monomial), (partial(_convolve_by_points, ctx), sampled)):
                for point in points:
                    got = convolve(w_pair, w_pair, point)
                    expected = q * ctx.phi(W_ID, point)
                    assert got == expected


def test_double_coset_product_inverse_pair(ctx_stab):
    assert ctx_stab.double_coset_product(W_Z, W_Z.inverse()) == frozenset({W_ID})


def test_identity_acts_as_unit(ctx_stab):
    for w in (W_S, W_SP, W_Z, W_S * W_SP):
        assert ctx_stab.convolve_at(W_ID, w, ctx_stab.lift(w)) == one_coeff()
        assert ctx_stab.convolve_at(w, W_ID, ctx_stab.lift(w)) == one_coeff()


def test_basis_function_equivariance_and_scale(ctx_stab, rng):
    scale = HeckeCoeff(2, 1)
    s_lift = ctx_stab.lift(W_S)
    assert ctx_stab.phi(W_S, s_lift, scale) == HeckeCoeff(2, 1)
    assert ctx_stab.phi(W_S, ctx_stab.lift(W_SP), scale).is_zero()
    for _ in range(10):
        k1 = random_K0(ctx_stab.tower, STABILIZER, rng)
        k2 = random_K0(ctx_stab.tower, STABILIZER, rng)
        lhs = ctx_stab.phi(W_S, k1 * s_lift * k2, scale)
        rhs = rho0(k1, STABILIZER).as_coeff() * HeckeCoeff(2, 1) * rho0(k2, STABILIZER).as_coeff()
        assert lhs == rhs


def test_phi_raises_outside_the_group_image(ctx_stab):
    # diag(pi2, 1) x 1 has valuation triple (1, 0, 0), which no double coset
    # of G0 carries: phi must report the failure instead of reading 0
    tw = ctx_stab.tower
    g = torus(tw, tw.uniformizer(E2), tw.one(E2), tw.one(E4)).to_group()
    with pytest.raises(ClassificationError):
        ctx_stab.phi(W_ID, g)


# -- labels and values read from the factorisation's invariants ---------------------------


def _materialised_label_and_value(ctx, g):
    """Reference: build k1, m and k2, find the window element whose lift
    inverse carries m into the compact torus, and evaluate
    rho0(k1) * rho0(disc * k2) on the built matrices."""
    dec = iwahori_decompose(g)
    k1, m, k2 = dec.k1, dec.monomial.as_group(), dec.k2
    assert k1 * m * k2 == g
    found = []
    for cand in ctx.window(2, 1):
        disc = ctx.lift_inverse(cand) * m
        if disc.is_diagonal() and in_KM0(disc.to_torus(), ctx.variant):
            found.append((cand, rho0(k1, ctx.variant) * rho0(disc * k2, ctx.variant)))
    assert len(found) == 1
    return found[0]


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_classify_and_phi_match_the_materialised_factorisation(q, variant, request):
    tw = request.getfixturevalue(f"tower{q}")
    ctx = HeckeContext(tw, variant)
    window = ctx.window(2, 1)
    rng = random.Random(1000 * q + len(variant))
    for _ in range(25):
        w, other = rng.choice(window), rng.choice(window)
        # random_K0 factors carry inexact series entries (Galois quotients)
        g = random_K0(tw, variant, rng) * ctx.lift(w) * random_K0(tw, variant, rng)
        label, value = _materialised_label_and_value(ctx, g)
        assert label == w
        assert ctx.classify(g) == label
        for v in (w, other):
            assert ctx.phi(v, g) == (value.as_coeff() if v == label else COEFF_ZERO)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_double_cosets_and_convolutions_invert_no_series(variant, tower13, monkeypatch):
    # (s, s s') and (s s', s') meet non-monomial Iwahori pivots such as
    # 1 + x * pi2; labels and values must come from valuations and residues
    ctx = HeckeContext(tower13, variant)
    ss = W_S * W_SP
    for w in (W_S, W_SP, ss):
        ctx.coset_reps(w)
    calls = []
    series_inverse = ResidueField.series_inverse

    def counting(self, b, n):
        calls.append(len(b))
        return series_inverse(self, b, n)

    monkeypatch.setattr(ResidueField, "series_inverse", counting)
    assert ctx.double_coset_product(W_S, ss) == frozenset({W_SP, ss})
    values = [ctx.convolve_at(ss, W_SP, ctx.lift(v)) for v in (W_S, ss)]
    assert values == [HeckeCoeff(13, 0), COEFF_ZERO]
    assert calls == []


# sha256 of json.dumps(details, sort_keys=True) for omega_check(details=...) at
# q = 5, recorded before labels and values were read from the invariants; the
# CLI's omega JSON carries verdicts only, so this pins every coset set and
# every convolution value.  No label or value names q, so q = 13 gives the same digest
OMEGA_DETAILS_SHA256 = {
    STABILIZER: "8adb20e259a67135dd29e9825ca7a84a34f142de7015eaf38e0a97f2bd673168",
    PARAHORIC: "afccad06dcf5a25cf6fd86bf75adce03d5aad57e80fed15cfa81fa518ab448e0",
}


@pytest.mark.parametrize(
    "variant, q",
    [
        pytest.param(STABILIZER, 5, id="stabilizer"),
        pytest.param(PARAHORIC, 5, id="parahoric"),
        pytest.param(STABILIZER, 13, id="stabilizer-q13"),
        pytest.param(PARAHORIC, 13, id="parahoric-q13"),
    ],
)
def test_omega_details_match_the_recorded_digest(variant, q, request):
    details = []
    assert HeckeContext(request.getfixturevalue(f"tower{q}"), variant).omega_check(details=details)
    blob = json.dumps(details, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == OMEGA_DETAILS_SHA256[variant]


# -- transversal families ------------------------------------------------------------------


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the error type is part of the compared outcome
        return type(exc)


@pytest.mark.parametrize("q", [5, 9, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_families_match_the_matrix_path(q, variant, request):
    # every transversal point of both family kinds over every window pair:
    # lift(w1) * r * lift(w2) as in double_coset_product, and
    # lift(w1)^-1 * r^-1 * g as in convolve_at, here with g = lift(w2)
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    window = ctx.window(2, 1)
    right = {w: [r * ctx.lift(w) for r in ctx.coset_reps(w)] for w in window}
    left = {
        w: [ctx.lift_inverse(w) * r_inv for _, r_inv in ctx.coset_reps_with_inverses(w)] for w in window
    }

    def by_matrix(g):
        # classify and phi, sharing one decomposition
        label, dec, disc_ry = ctx._analyze_matrix(g)
        return label, ctx._phi_value(label, label, dec.factors_in_iwahori(), disc_ry)

    def by_family(fam, i):
        label = fam.analyze(i)[0]
        return label, fam.phi(label, i)

    for w1 in window:
        for w2 in window:
            kinds = (
                (ctx.lift_terms(w1), ctx.base_family(w2), [ctx.lift(w1) * m for m in right[w2]]),
                (ctx.lift_terms(w1, True), ctx.base_family(w1, True), [m * ctx.lift(w2) for m in left[w1]]),
            )
            for fam_left, base, matrices in kinds:
                fam = TransversalFamily(ctx, fam_left, base, ctx.lift_terms(w2))
                assert len(fam) == len(matrices)
                for i, g in enumerate(matrices):
                    assert _outcome(lambda: by_family(fam, i)) == _outcome(lambda: by_matrix(g))


@pytest.mark.parametrize("q", [5, 9, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_pattern_sums_match_the_point_sums(q, variant, request):
    # double_coset_product and convolve_at read one valuation pattern at a
    # time; the reference visits every point of the same families
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    window = ctx.window(2, 1)
    for w1 in window:
        left = [ctx.phi(w1, r * ctx.lift(w1)) for r in ctx.coset_reps(w1)]
        for v in window:
            fam = TransversalFamily(ctx, ctx.lift_terms(w1, True), ctx.base_family(w1, True), ctx.lift_terms(v))

            def by_points(w2):
                total = COEFF_ZERO
                for i, first in enumerate(left):
                    if not first.is_zero():
                        total = total + first * fam.phi(w2, i)
                return total

            for w2 in window:
                got = _outcome(lambda: ctx.convolve_at(w1, w2, ctx.lift(v)))
                assert got == _outcome(lambda: by_points(w2))
        for w2 in window:
            fam = TransversalFamily(ctx, ctx.lift_terms(w1), ctx.base_family(w2), ctx.lift_terms(w2))
            expected = _outcome(lambda: frozenset(fam.analyze(i)[0] for i in range(len(fam))))
            assert _outcome(lambda: ctx.double_coset_product(w1, w2)) == expected


@pytest.mark.parametrize("q", [5, 9, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_convolve_at_reads_a_weyl_target_as_its_lift(q, variant, request):
    # convolve_at(w1, w2, v) reads the terms of lift(v) from the memo; the
    # matrix form, whose terms are read off the matrix lift(v), is the oracle,
    # on every pair of the window (2, 1) at every label of its double-coset product
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    window = ctx.window(2, 1)
    checked = 0
    for w1 in window:
        for w2 in window:
            for v in sorted(ctx.double_coset_product(w1, w2), key=WeylElem.sort_key):
                got = _outcome(lambda: ctx.convolve_at(w1, w2, v))
                assert got == _outcome(lambda: ctx.convolve_at(w1, w2, ctx.lift(v))), (w1, w2, v)
                checked += 1
    assert checked > len(window) ** 2  # the non-additive pairs meet two labels or more


def test_window_is_memoised_and_each_call_gets_its_own_list(ctx_stab, ctx_par):
    # the same elements as window_elements, built once per (max_word, max_z);
    # a caller that edits its list leaves the next call's as it was
    from sl8hecke.weyl import window_elements

    for ctx, eps in ((ctx_stab, False), (ctx_par, True)):
        for args, bounds in (((), (4, 2)), ((2, 1), (2, 1)), ((3,), (3, 2)), ((None, 0), (4, 0))):
            first = ctx.window(*args)
            assert type(first) is list and first == window_elements(*bounds, eps)
            first.clear()
            second = ctx.window(*args)
            assert second == window_elements(*bounds, eps) and second is not ctx.window(*args)
            assert all(a is b for a, b in zip(second, ctx.window(*args)))


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_memoised_labels_match_the_uncached_analysis(q, variant, request):
    # every member of both family kinds over the window (2, 1): the label
    # memoised on the residue-free key against a fresh context that analyses
    # every call afresh
    tw = request.getfixturevalue(f"tower{q}")
    ctx, fresh = HeckeContext(tw, variant), HeckeContext(tw, variant)
    fresh._choose_label = fresh._find_label
    window = ctx.window(2, 1)
    for w1 in window:
        for w2 in window:
            for left, base in (
                (ctx.lift_terms(w1), ctx.base_family(w2)),
                (ctx.lift_terms(w1, True), ctx.base_family(w1, True)),
            ):
                memoised = TransversalFamily(ctx, left, base, ctx.lift_terms(w2))
                uncached = TransversalFamily(fresh, left, base, ctx.lift_terms(w2))
                for ords, residues in zip(base.ords, base.residues):
                    assert memoised._pattern(ords, residues) == uncached._pattern(ords, residues)
    assert ctx._labels and not fresh._labels


def test_base_family_patterns_partition_the_members_in_first_occurrence_order(tower13):
    ctx = HeckeContext(tower13, PARAHORIC)
    for w in ctx.window(2, 1):
        for inverse in (False, True):
            base = ctx.base_family(w, inverse)
            firsts = [members[0] for members in base.patterns]
            assert firsts == sorted(firsts)
            assert sorted(i for members in base.patterns for i in members) == list(range(len(base)))
            assert all(len({base.ords[i] for i in members}) == 1 for members in base.patterns)
            assert len({base.ords[i] for i in firsts}) == len(firsts) <= 3


def test_omega_analyses_no_point(monkeypatch):
    # pair work is per valuation pattern and every left value is 1, so with
    # the transversals built no point is analysed, on a family or as a matrix
    ctx = HeckeContext(Tower(make_field(13), 40), STABILIZER)
    for w in ctx.window(2, 1):
        ctx.coset_reps(w)
    analyses = _count_calls(monkeypatch, TransversalFamily, "analyze")
    matrices = _count_calls(monkeypatch, HeckeContext, "_analyze_matrix")
    assert ctx.omega_check()
    assert (len(analyses), len(matrices)) == (0, 0)


@pytest.mark.parametrize(
    "q, max_word",
    [
        pytest.param(5, 2, id="q5"),
        pytest.param(9, 2, id="q9"),
        pytest.param(13, 2, id="q13"),
        pytest.param(5, 3, id="q5-words3"),
    ],
)
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_left_values_match_the_point_values(q, max_word, variant, request):
    # convolve_at takes every left value phi_w(r * lift(w)) to be 1: checked
    # for every w of the window (words of length max_word only, when 3) at
    # every point on the matrix path and on the family path
    tw = request.getfixturevalue(f"tower{q}")
    ctx = HeckeContext(tw, variant)
    for w in ctx.window(max_word, 1):
        if max_word == 3 and len(w.word) != 3:
            continue
        fam = TransversalFamily(ctx, monomial_terms(identity(tw)), ctx.base_family(w), ctx.lift_terms(w))
        got = _outcome(lambda: [ctx.phi(w, r * ctx.lift(w)) for r in ctx.coset_reps(w)])
        assert got == _outcome(lambda: [fam.phi(w, i) for i in range(len(fam))])
        assert got == [COEFF_ONE] * len(fam)


def test_transversals_make_no_matrix_product(monkeypatch):
    # members and inverses are read off the factor forms, and validation
    # reads each member's key from its own entries, with no r * lift(w)
    from sl8hecke.groupmodel import GroupElem

    ctx = HeckeContext(Tower(make_field(13), 40), STABILIZER)
    products = _count_calls(monkeypatch, GroupElem, "__mul__")
    for w in ctx.window(2, 1):
        ctx.coset_reps(w)
    assert len(products) == 0


def test_omega_and_convolution_sections_make_no_matrix_product_or_membership_test(monkeypatch):
    # the report's transversals are validated from their forms: no member is
    # multiplied or tested for membership as a matrix
    import sl8hecke.groupmodel as groupmodel
    import sl8hecke.hecke as hecke
    import sl8hecke.matrices as matrices
    from sl8hecke.cli import Config, run_all

    products = _count_calls(monkeypatch, groupmodel.GroupElem, "__mul__")
    # matrices holds in_K0, and groupmodel and hecke each serve their own name for it
    memberships = [_count_calls(monkeypatch, module, "in_K0") for module in (groupmodel, hecke, matrices)]
    report = run_all(Config(q=13), sections=("omega", "convolution"))
    assert report.checks and all(check.status == "pass" for check in report.checks)
    assert (len(products), sum(map(len, memberships))) == (0, 0)


def _reps_by_letter_products(ctx, word):
    """The transversal of a reduced word on the matrix path, each member with
    its inverse: the q unipotents of the head letter, u(x) for s and
    l(pi2 * x) for s', times the tail's transversal conjugated by the head
    letter's lift, p_1 most significant."""
    tw = ctx.tower
    if not word:
        return [(identity(tw), identity(tw))]
    head = ctx.lift(WeylElem(word[:1]))
    head_inv = head.inverse()
    inner = [(head * t * head_inv, head * t_inv * head_inv) for t, t_inv in _reps_by_letter_products(ctx, word[1:])]
    xs = [tw.constant(E2, enc) for enc in range(tw.q)]
    if word[0] == "s":
        letters = [(upper_u(tw, x), upper_u(tw, -x)) for x in xs]
    else:
        letters = [(lower_l(tw, c), lower_l(tw, -c)) for c in (tw.uniformizer(E2) * x for x in xs)]
    return [(t1 * conj, conj_inv * t1_inv) for t1, t1_inv in letters for conj, conj_inv in inner]


@pytest.mark.parametrize(
    "q, max_word",
    [
        pytest.param(5, 2, id="q5"),
        pytest.param(9, 2, id="q9"),
        pytest.param(13, 2, id="q13"),
        pytest.param(5, 3, id="q5-words3"),
    ],
)
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_transversals_match_the_letter_products(q, max_word, variant, request):
    # every member and every inverse of the factor-form build equals the
    # recursive letter product's, in the same order; and every member has
    # det 1 and E4 part 1 and lies in K on the matrix path, which validation
    # takes from the construction and the entry valuations
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    tw = ctx.tower
    for word in sorted({w.word for w in ctx.window(max_word, 1)}):
        got = ctx.coset_reps_with_inverses(WeylElem(word))
        expected = _reps_by_letter_products(ctx, word)
        assert len(got) == len(expected) == q ** len(word)
        for (r, r_inv), (e, e_inv) in zip(got, expected):
            assert r == e and r_inv == e_inv
            assert r.det2() == tw.one(E2) and r.g4 == tw.one(E4) and in_K0(r, variant)


def test_a_member_with_d_residue_other_than_one_is_rejected(monkeypatch):
    # negating a and d keeps every member in K with the same determinant, but
    # its d-entry residue is -1, so the left values could not be taken as 1.
    # A fresh tower, so that the doctored build is not read from the session
    # tower's memo
    import sl8hecke.hecke as hecke
    from sl8hecke.hecke import TransversalError

    tower5 = Tower(make_field(5), 40)
    product_forms = hecke._product_forms

    def doctored(field, length, factors):
        forms = product_forms(field, length, factors)
        for entry in (0, 3):
            forms[entry] = {k: [field.neg(g) for g in coeffs] for k, coeffs in forms[entry].items()}
        return forms

    ctx = HeckeContext(tower5, STABILIZER)
    fld = tower5.field
    base = hecke.BaseFamily(tower5, 1, doctored(fld, 1, ctx._factors(W_S.word)))
    assert all(in_K0(r, STABILIZER) for r in base.members)
    monkeypatch.setattr(hecke, "_product_forms", doctored)
    with pytest.raises(TransversalError, match="d-entry residue"):
        ctx.coset_reps(W_S)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_omega_builds_few_weyl_elements(variant, tower13, monkeypatch):
    # the sign-bit candidates are memoised per valuation data, not built per point
    ctx = HeckeContext(tower13, variant)
    for w in ctx.window(2, 1):
        ctx.coset_reps(w)
    built = []
    trusted = weyl._trusted

    def counting(*args):
        # every constructor ends here: the public one after its checks, and
        # products and inverses, which skip them
        built.append(1)
        return trusted(*args)

    monkeypatch.setattr(weyl, "_trusted", counting)
    assert ctx.omega_check()
    assert len(built) <= 5000


def test_double_coset_product_makes_no_matrix_product(tower13, monkeypatch):
    # the family lift(s) * r * lift(s' s) reads the memoised base family and
    # the lifts' terms: no sample and no matrix product
    from sl8hecke.groupmodel import GroupElem

    ctx = HeckeContext(tower13, STABILIZER)
    w2 = W_SP * W_S
    ctx.coset_reps(w2)  # memoises the transversal and the lifts of s and s' s
    products = []
    mul = GroupElem.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(GroupElem, "__mul__", counting)
    assert ctx.double_coset_product(W_S, w2) == frozenset({W_S * w2})
    assert len(products) == 0


def _count_calls(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def counting(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_omega_multiplies_no_frames_and_builds_one_base_per_transversal(monkeypatch):
    # families read framed points off one base family per (word, direction),
    # built with the transversal; the frames are exact monomials, never
    # multiplied into a matrix
    from sl8hecke.groupmodel import GroupElem
    from sl8hecke.hecke import BaseFamily

    ctx = HeckeContext(Tower(make_field(13), 40), STABILIZER)
    window = ctx.window(2, 1)
    bases = _count_calls(monkeypatch, BaseFamily, "__init__")
    for w in window:
        ctx.coset_reps(w)
    products = _count_calls(monkeypatch, GroupElem, "__mul__")
    assert ctx.omega_check()
    assert len(products) == 0
    assert len(bases) == 2 * len({w.word for w in window})


def test_family_frames_must_be_exact_monomials(tower5):
    # a family frame is the terms of an exact monomial: neither matrix has them,
    # and convolve_at, which frames its family with g, refuses both
    ctx = HeckeContext(tower5, STABILIZER)
    for g in (upper_u(tower5, 1), random_K0(tower5, STABILIZER, random.Random(3))):
        assert monomial_terms(g) is None
        with pytest.raises(ValueError):
            ctx.convolve_at(W_S, W_S, g)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
@pytest.mark.parametrize("q", [5, 13])
def test_convolve_at_a_non_monomial_point_sums_phi_products(q, variant, request):
    # convolve_at reads families framed by exact monomials: an exact g that is
    # not monomial raises, and only the per-point oracle sums its phi products,
    # which are not all zero there
    tw = request.getfixturevalue(f"tower{q}")
    ctx = HeckeContext(tw, variant)
    values = []
    for g in (upper_u(tw, 2) * ctx.lift(W_S), upper_u(tw, 3), lower_l(tw, tw.uniformizer(E2)) * ctx.lift(W_Z)):
        with pytest.raises(ValueError):
            ctx.convolve_at(W_S, W_S, g)
        values.append(_convolve_by_points(ctx, W_S, W_S, g))
    assert any(not v.is_zero() for v in values)


# -- monomial lifts against the matrix path -------------------------------------------------


def _lift_by_matrices(tw, w):
    # the canonical lift as a product of the letters' 2x2 Laurent matrices
    g = identity(tw)
    for letter in w.word:
        g = g * (elem_s(tw) if letter == "s" else elem_s_prime(tw))
    g = g * elem_z(tw) ** w.zexp
    return g * elem_eps(tw) if w.ebit else g


def _mu_by_matrices(ctx, u, v):
    disc = ctx.lift_inverse(u * v) * ctx.lift(u) * ctx.lift(v)
    if not disc.is_diagonal():
        raise ClassificationError("lift discrepancy is not diagonal")
    if not in_KM0(disc.to_torus(), ctx.variant):
        raise ClassificationError("lift discrepancy left the compact torus")
    return rho_M0(disc.to_torus())


@pytest.mark.parametrize("q", [5, 9, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_monomial_lifts_and_canonical_mu_match_the_matrix_path(q, variant, request):
    # every pair of the default window: term products and inverses against
    # 2x2 Laurent matrix arithmetic, and mu against the discrepancy's matrix product
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    tw, table = ctx.tower, CocycleTable(ctx)
    fld = tw.field
    window = ctx.window()
    for w in window + sorted({u * v for u in window for v in window}, key=WeylElem.sort_key):
        assert ctx.lift(w) == monomial_matrix(tw, ctx.lift_terms(w)) == _lift_by_matrices(tw, w)
        inverse = ctx.lift_terms(w, inverse=True)
        assert inverse == term_inverse(fld, ctx.lift_terms(w))
        assert monomial_matrix(tw, inverse) == ctx.lift(w).inverse() == ctx.lift_inverse(w)
    for u in window:
        for v in window:
            product = term_product(fld, ctx.lift_terms(u), ctx.lift_terms(v))
            assert monomial_matrix(tw, product) == ctx.lift(u) * ctx.lift(v)
            assert _outcome(lambda: table.mu(u, v)) == _outcome(lambda: _mu_by_matrices(ctx, u, v))


def test_canonical_mu_makes_no_matrix_products(monkeypatch):
    from sl8hecke.groupmodel import GroupElem

    ctx = HeckeContext(Tower(make_field(13), 40), STABILIZER)
    table = CocycleTable(ctx)
    window = ctx.window()
    products = _count_calls(monkeypatch, GroupElem, "__mul__")
    assert all(table.mu(u, v) is not None for u in window for v in window)
    assert not products


@pytest.mark.parametrize("q", [5, 9, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_term_commutators_of_lifts_match_the_matrix_path(q, variant, request):
    # every commuting pair of the (2, 1) window: the commutator of the lifts'
    # terms against that of their matrices, and beta against the matrix
    # oracle's; over every pair, rho of the commutator raises as the oracle's does
    ctx = HeckeContext(request.getfixturevalue(f"tower{q}"), variant)
    tw, table, oracle = ctx.tower, CocycleTable(ctx), PerturbedCocycleTable(ctx)
    window = ctx.window(2, 1)
    commuting = [(u, v) for u in window for v in window if u * v == v * u]
    for u, v in commuting:
        com = term_commutator(tw.field, ctx.lift_terms(u), ctx.lift_terms(v))
        assert monomial_matrix(tw, com) == commutator(ctx.lift(u), ctx.lift(v))
    betas = [_outcome(lambda: table.beta(u, v)) for u, v in commuting]
    assert betas == [_outcome(lambda: oracle.beta(u, v)) for u, v in commuting]
    assert {UNIT_ONE, UNIT_MINUS_ONE} <= set(betas)
    outcomes = [_outcome(lambda: table._commutator_rho(u, v)) for u in window for v in window]
    assert outcomes == [_outcome(lambda: oracle._commutator_rho(u, v)) for u in window for v in window]
    assert MembershipError in outcomes


# -- double cosets ------------------------------------------------------------------------


def test_double_coset_product_quadratic(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        assert ctx.double_coset_product(W_S, W_S) == frozenset({W_ID, W_S})


def test_double_coset_product_additive(ctx_stab):
    assert ctx_stab.double_coset_product(W_S, W_SP) == frozenset({W_S * W_SP})


def test_double_coset_product_central(ctx_stab):
    assert ctx_stab.double_coset_product(W_Z, W_S) == frozenset({W_Z * W_S})


# -- omega ------------------------------------------------------------------------------


@pytest.mark.parametrize("variant_fixture", ["ctx_stab", "ctx_par"])
def test_omega_check(variant_fixture, request):
    ctx = request.getfixturevalue(variant_fixture)
    details = []
    assert ctx.omega_check(details=details)
    assert len(details) == len(ctx.window(2, 1)) ** 2
    non_additive = [e for e in details if not e["additive"]]
    assert non_additive  # the quadratic relations are genuinely exercised


# -- the cocycle ---------------------------------------------------------------------------


def test_mu_normalised(ctx_stab):
    table = CocycleTable(ctx_stab)
    for w in ctx_stab.window(2, 1):
        assert table.mu(W_ID, w) == UNIT_ONE
        assert table.mu(w, W_ID) == UNIT_ONE


def test_mu_s_squared(ctx_stab):
    table = CocycleTable(ctx_stab)
    assert table.mu(W_S, W_S) == UNIT_ONE


def test_mu_commutator_ratio(ctx_stab):
    table = CocycleTable(ctx_stab)
    assert table.mu(W_S, W_Z) * table.mu(W_Z, W_S).inverse() == UNIT_MINUS_ONE


def test_beta_s_z(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        table = CocycleTable(ctx)
        assert table.beta(W_S, W_Z) == UNIT_MINUS_ONE


def test_beta_on_central_pair(ctx_stab):
    table = CocycleTable(ctx_stab)
    assert table.beta(W_Z, W_Z * W_Z) == UNIT_ONE


def test_beta_rejects_non_commuting(ctx_stab):
    table = CocycleTable(ctx_stab)
    with pytest.raises(ValueError):
        table.beta(W_S, W_S * W_SP)


def test_beta_eps_pair_parahoric(ctx_par):
    table = CocycleTable(ctx_par)
    assert table.beta(W_S, W_EPS) == UNIT_ONE


def test_beta_invariant_under_20_random_families(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        rng = random.Random(271828)
        for _ in range(20):
            table = perturbed_table(ctx, rng)
            assert table.beta(W_S, W_Z) == UNIT_MINUS_ONE


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_sz_perturbed_table_perturbs_exactly_s_z_and_sz(tower5, variant):
    table = sz_perturbed_table(HeckeContext(tower5, variant), random.Random(12))
    assert set(table.perturbation) == {W_S, W_Z, W_S * W_Z}


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
@pytest.mark.parametrize("tower_fixture", ["tower5", "tower13"])
def test_sz_family_reads_like_a_window_family(tower_fixture, variant, request):
    # mu(s, z), mu(z, s) and beta(s, z) read only the factors on s, z and sz:
    # random factors on every other window element change none of them
    ctx = HeckeContext(request.getfixturevalue(tower_fixture), variant)
    rng = random.Random(57721)
    seen = set()
    for _ in range(6):
        small = sz_perturbed_table(ctx, rng)
        wide = PerturbedCocycleTable(ctx, {**perturbed_table(ctx, rng).perturbation, **small.perturbation})
        assert len(wide.perturbation) == len(ctx.window()) - 1
        pair = (small.mu(W_S, W_Z), small.mu(W_Z, W_S))
        assert pair == (wide.mu(W_S, W_Z), wide.mu(W_Z, W_S))
        assert small.beta(W_S, W_Z) == wide.beta(W_S, W_Z) == UNIT_MINUS_ONE
        seen.add(pair)
    # the factors are not ignored: mu(s, z) takes both signs across families
    assert seen == {(UNIT_ONE, UNIT_MINUS_ONE), (UNIT_MINUS_ONE, UNIT_ONE)}


def test_beta_antisymmetric_and_bimultiplicative(ctx_par):
    table = CocycleTable(ctx_par)
    central = [W_Z, W_Z ** -1, W_EPS, W_Z * W_EPS]
    for c in central:
        assert table.beta(W_S, c) == table.beta(c, W_S).inverse()
    for c1 in central:
        for c2 in central:
            assert table.beta(W_S, c1 * c2) == table.beta(W_S, c1) * table.beta(W_S, c2)


def test_cocycle_identity_on_random_triples(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        rng = random.Random(314159)
        window = ctx.window()
        for _ in range(500):
            u, v, w = (rng.choice(window) for _ in range(3))
            table = CocycleTable(ctx)
            assert table.cocycle_identity_holds(u, v, w)


def test_cocycle_identity_with_perturbed_family(ctx_stab):
    rng = random.Random(141421)
    table = perturbed_table(ctx_stab, rng)
    window = ctx_stab.window(2, 1)
    for _ in range(100):
        u, v, w = (rng.choice(window) for _ in range(3))
        assert table.cocycle_identity_holds(u, v, w)


def test_certificate(ctx_stab, ctx_par):
    for ctx in (ctx_stab, ctx_par):
        cert = nontriviality_certificate(CocycleTable(ctx))
        assert cert.nontrivial
        assert cert.pair == (W_S, W_Z)
        assert cert.value == UNIT_MINUS_ONE
        assert cert.extension_obstructed


def test_full_stack_over_quadratic_extension_field():
    # q = 9 exercises the f = 2 residue arithmetic through the entire stack
    from sl8hecke.groupmodel import commutator, elem_s, elem_z, rho_M0
    from sl8hecke.residue import UNIT_MINUS_ONE, make_field
    from sl8hecke.tower import Tower

    tw = Tower(make_field(9), 40)
    com = commutator(elem_s(tw), elem_z(tw))
    assert rho_M0(com.to_torus()) == UNIT_MINUS_ONE
    for variant in (STABILIZER, PARAHORIC):
        ctx = HeckeContext(tw, variant)
        assert CocycleTable(ctx).beta(W_S, W_Z) == UNIT_MINUS_ONE
        assert ctx.convolve_at(W_S, W_S, ctx.lift(W_S)) == COEFF_ZERO
        assert ctx.convolve_at(W_S, W_S, identity(tw)) == HeckeCoeff(9, 0)
        assert ctx.double_coset_product(W_S, W_S) == frozenset({W_ID, W_S})
