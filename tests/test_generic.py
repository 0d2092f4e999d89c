from fractions import Fraction

import pytest

from sl8hecke.generic import (
    E2_SLOT1,
    E2_SLOT2,
    E4_BLOCK,
    LEVEL_HALF,
    LEVEL_QUARTER,
    X0,
    X1,
    EigenCoordinate,
    RootPair,
    check_ge0_witness,
    check_ge1,
    coordinates,
    pairing_on_coroot,
    root_pairs,
    weight,
    witness_value,
)
from sl8hecke.tower import E2, E4, F


def test_eight_coordinates():
    coords = coordinates()
    assert len(coords) == 8
    assert sum(1 for c in coords if c.block == E4_BLOCK) == 4


def test_root_pair_counts():
    # |roots of GL8| = 56; the big group's 16 split off 12 inside the E4
    # block, leaving 40 at the half level: 56 - 12 - 4 = 40
    quarter = root_pairs(LEVEL_QUARTER)
    half = root_pairs(LEVEL_HALF)
    assert len(quarter) == 12
    assert len(half) == 40
    n = len(coordinates())
    total_ordered = n * (n - 1)
    small_group = 4  # cross-slot pairs at matching Galois index, both orders
    assert total_ordered == 56
    assert total_ordered - small_group - len(quarter) == len(half)


def test_weights(tower5):
    pi4_inv = tower5.uniformizer(E4) ** -1
    assert weight(tower5, EigenCoordinate(E4_BLOCK, 0), X0) == pi4_inv
    # sigma_2 negates pi2, so the k=1 weight of the half-level functional
    # is -pi2**(-1)
    pi2_inv = tower5.uniformizer(E2) ** -1
    assert weight(tower5, EigenCoordinate(E2_SLOT1, 1), X1) == -pi2_inv
    assert weight(tower5, EigenCoordinate(E4_BLOCK, 1), X1).is_zero


def test_pairing_examples(tower5):
    tw = tower5
    p = RootPair(EigenCoordinate(E4_BLOCK, 0), EigenCoordinate(E4_BLOCK, 1), LEVEL_QUARTER)
    v = pairing_on_coroot(tw, p)
    assert v.ord() == Fraction(-1, 4)

    cross = RootPair(EigenCoordinate(E2_SLOT1, 0), EigenCoordinate(E2_SLOT2, 1), LEVEL_HALF)
    assert pairing_on_coroot(tw, cross) == tw.integer(E2, 2) * tower5.uniformizer(E2) ** -1

    mixed = RootPair(EigenCoordinate(E2_SLOT1, 0), EigenCoordinate(E4_BLOCK, 0), LEVEL_HALF)
    assert pairing_on_coroot(tw, mixed) == tw.uniformizer(E2) ** -1


def test_half_level_value_set(tower5):
    # every half-level pairing is one of {pi2**-1, -pi2**-1, 2pi2**-1, -2pi2**-1}
    tw = tower5
    pi2_inv = tw.uniformizer(E2) ** -1
    two = tw.integer(E2, 2)
    allowed = [pi2_inv, -pi2_inv, two * pi2_inv, -(two * pi2_inv)]
    for pair in root_pairs(LEVEL_HALF):
        v = pairing_on_coroot(tw, pair)
        assert any(v == a for a in allowed)


@pytest.mark.parametrize(
    "level,target",
    # in quarters of ord(t): -1/4 and -1/2, under the ids these two cases
    # are known by
    [pytest.param(LEVEL_QUARTER, -1, id="G1/G0-target0"), pytest.param(LEVEL_HALF, -2, id="G2/G1-target1")],
)
def test_ge1_all_valuations_exact(tower5, tower13, level, target):
    for tw in (tower5, tower13):
        report = check_ge1(tw, level)
        assert report.ge1_pass
        assert all(v == target for _, v in report.valuations)


def test_antisymmetry(tower5):
    for level in (LEVEL_QUARTER, LEVEL_HALF):
        for pair in root_pairs(level):
            flipped = RootPair(pair.j, pair.i, level)
            assert pairing_on_coroot(tower5, flipped) == -pairing_on_coroot(tower5, pair)


def test_quarter_level_galois_stable_multiset(tower5):
    values = [pairing_on_coroot(tower5, p) for p in root_pairs(LEVEL_QUARTER)]
    rotated = [v.galois(1) for v in values]
    # compare as multisets of exact elements
    remaining = list(values)
    for r in rotated:
        for k, v in enumerate(remaining):
            if v == r:
                del remaining[k]
                break
        else:
            raise AssertionError("Galois action did not permute the pairing values")
    assert not remaining


@pytest.mark.parametrize("level", [LEVEL_QUARTER, LEVEL_HALF])
def test_ge0_witness_ord_zero(tower5, tower13, level):
    for tw in (tower5, tower13):
        assert check_ge0_witness(tw, level) == 0


def test_witness_values_are_degree_constants(tower5):
    assert witness_value(tower5, LEVEL_QUARTER) == tower5.integer(F, 4)
    assert witness_value(tower5, LEVEL_HALF) == tower5.integer(F, 2)


def test_witness_scaling_shifts_ord(tower5):
    # scaling the witness Lie element by t shifts the pairing ord by one
    tw = tower5
    scaled = ((tw.uniformizer(E4) ** -1) * (tw.uniformizer(E4) * tw.t(E4))).trace_to_F()
    assert scaled.ord() == 1
