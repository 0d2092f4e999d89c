"""Sampled cross-checks of the facts the report certifies on residues.

The report's weyl and cocycle rows read `cocycle.cocycle_certificate` and
`cocycle.rho0_certificate`, which exhaust those facts over letter relations
and residue pairs.  Each check here is the sampled form of one such row, on
random compact-torus and compact-subgroup elements and perturbed lift
families at full window precision, so the long-series kernels behind the
samplers stay exercised too.  Every check takes a context and a seeded
generator and returns its verdict; a run over more fields is

    PYTHONPATH=src:tests python -c 'from test_sampled_crosschecks import run_all; run_all((17, 25))'
"""

import random

import pytest

from sl8hecke.groupmodel import (
    PARAHORIC,
    STABILIZER,
    in_KM0,
    letters,
    monomial_matrix,
    rho0,
    rho_M0,
)
from sl8hecke.cocycle import multiplicative_family_search, sz_perturbed_table
from sl8hecke.hecke import HeckeContext
from sl8hecke.reference import random_K0, random_KM0
from sl8hecke.residue import UNIT_MINUS_ONE, make_field
from sl8hecke.tower import Tower
from sl8hecke.weyl import W_S, W_Z, lift


def _in_compact_torus(g, variant) -> bool:
    return g.is_diagonal() and in_KM0(g.to_torus(), variant)


def _letter_lifts(ctx):
    return [monomial_matrix(ctx.tower, m) for m in letters(ctx.tower).values()]


def rho0_homomorphism(ctx, rng) -> bool:
    tw, v = ctx.tower, ctx.variant
    pairs = [(random_K0(tw, v, rng), random_K0(tw, v, rng)) for _ in range(50)]
    return all(rho0(g * h, v) == rho0(g, v) * rho0(h, v) for g, h in pairs)


def rho0_restriction(ctx, rng) -> bool:
    tori = [random_KM0(ctx.tower, ctx.variant, rng) for _ in range(20)]
    return all(rho0(t.to_group(), ctx.variant) == rho_M0(t) for t in tori)


def normalizers(ctx, rng) -> bool:
    return all(
        _in_compact_torus(n * t * n.inverse(), ctx.variant)
        for n in _letter_lifts(ctx)
        for t in [random_KM0(ctx.tower, ctx.variant, rng).to_group() for _ in range(15)]
    )


def character_invariance(ctx, rng) -> bool:
    tori = [random_KM0(ctx.tower, ctx.variant, rng).to_group() for _ in range(25)]
    return all(
        rho_M0((n.inverse() * t * n).to_torus()) == rho_M0(t.to_torus()) for t in tori for n in _letter_lifts(ctx)
    )


def lift_homomorphism(ctx, rng) -> bool:
    tw, window = ctx.tower, ctx.window(2, 1)
    pairs = [(rng.choice(window), rng.choice(window)) for _ in range(40)]
    return all(_in_compact_torus(lift(tw, a * b).inverse() * lift(tw, a) * lift(tw, b), ctx.variant) for a, b in pairs)


def beta_stability(ctx, rng) -> bool:
    return all(sz_perturbed_table(ctx, rng).beta(W_S, W_Z) == UNIT_MINUS_ONE for _ in range(20))


def no_multiplicative_family(ctx, rng) -> bool:
    return multiplicative_family_search(ctx, rng, trials=40) == 0


# check -> its seed; each check draws from its own generator
CROSSCHECKS = {
    rho0_homomorphism: 211,
    rho0_restriction: 223,
    normalizers: 227,
    character_invariance: 229,
    lift_homomorphism: 233,
    beta_stability: 239,
    no_multiplicative_family: 241,
}
VARIANTS = (STABILIZER, PARAHORIC)


def run_all(qs) -> None:
    """Run every cross-check at each q in qs, both variants; raise on the first failure."""
    for q in qs:
        tower = Tower(make_field(q), 40)
        for variant in VARIANTS:
            ctx = HeckeContext(tower, variant)
            for check, seed in CROSSCHECKS.items():
                if not check(ctx, random.Random(seed)):
                    raise AssertionError(f"{check.__name__} failed at q={q}, {variant}")
            print(f"q={q} {variant}: {len(CROSSCHECKS)} cross-checks pass", flush=True)


@pytest.fixture(scope="module", params=[5, 9, 13])
def tower(request):
    return Tower(make_field(request.param), 40)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("check", list(CROSSCHECKS), ids=lambda c: c.__name__)
def test_sampled_crosscheck(tower, variant, check):
    assert check(HeckeContext(tower, variant), random.Random(CROSSCHECKS[check]))
