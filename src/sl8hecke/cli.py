"""Batch verification driver.

``report`` runs every check for the configured q, precision and variant(s)
and emits a machine-readable JSON or human-readable text report; the exit
code is 0 when everything passes, 1 when any check fails, 2 on a bad
configuration.  ``verify <section>`` runs a single section; the section
names mirror the verification areas (norms, genericity, epsilon, weyl,
lattice, cocycle, convolution, omega, algebra).  ``dump-constants`` prints
the structure constants of the example twisted group algebra as CSV.

Runs are deterministic: all sampled checks draw from a seeded generator,
and two runs with the same configuration and seed produce byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from dataclasses import dataclass, field

from . import algebra as alg
from . import generic
from .groupmodel import (
    PARAHORIC,
    STABILIZER,
    commutator,
    elem_s,
    elem_z,
    sign_character_trivial,
    in_KM0,
    random_K0,
    random_KM0,
    rho0,
    rho_M0,
    torus,
)
from .hecke import CocycleTable, HeckeContext, multiplicative_family_search, nontriviality_certificate, sz_perturbed_table
from .residue import COEFF_ONE, UNIT_I, UNIT_MINUS_ONE, UNIT_ONE, char_sum_eta_squares, eta_residue, make_field, sgn
from .tower import E2, E4, F, Tower, norm_unit_image_check, random_element
from .weyl import (
    W_EPS,
    W_ID,
    W_S,
    W_SP,
    W_Z,
    group_structure_check,
    lattice_check,
    lift,
)

SECTIONS = (
    "norms",
    "genericity",
    "epsilon",
    "weyl",
    "lattice",
    "cocycle",
    "convolution",
    "omega",
    "algebra",
)

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-out-of-scope"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    q: int = 5
    precision: int = 40
    variant: str = "both"
    window_words: int = 4
    window_z: int = 2
    seed: int = 0
    fmt: str = "text"

    def validate(self) -> None:
        try:
            make_field(self.q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.precision < 16:
            raise ConfigError(f"precision {self.precision} below the minimum of 16")
        if self.variant not in ("stabilizer", "parahoric", "both"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.fmt not in ("text", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.window_words < 2 or self.window_z < 1:
            raise ConfigError("window must allow words of length 2 and one central power")

    def variants(self) -> tuple[str, ...]:
        if self.variant == "both":
            return (STABILIZER, PARAHORIC)
        return (self.variant,)


@dataclass
class Check:
    id: str
    module: str
    claim: str
    inputs: str
    expected: str
    got: str
    status: str

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "module": self.module,
            "claim": self.claim,
            "inputs": self.inputs,
            "expected": self.expected,
            "got": self.got,
            "status": self.status,
        }


@dataclass
class Report:
    config: Config
    checks: list[Check] = field(default_factory=list)

    def add(self, id_: str, module: str, claim: str, inputs, expected, got, ok=None) -> None:
        status = (PASS if ok else FAIL) if ok is not None else (PASS if str(expected) == str(got) else FAIL)
        self.checks.append(Check(id_, module, claim, str(inputs), str(expected), str(got), status))

    def skip(self, id_: str, module: str, claim: str) -> None:
        self.checks.append(Check(id_, module, claim, "", "", "", SKIP))

    def summary(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)


def emit(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        payload = {
            "config": {
                "q": report.config.q,
                "precision": report.config.precision,
                "variant": report.config.variant,
                "window_words": report.config.window_words,
                "window_z": report.config.window_z,
                "seed": report.config.seed,
            },
            "checks": [c.as_dict() for c in report.checks],
            "summary": report.summary(),
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")
    out = io.StringIO()
    cfg = report.config
    out.write(
        f"verification report  q={cfg.q} precision={cfg.precision} "
        f"variant={cfg.variant} seed={cfg.seed}\n"
    )
    marks = {PASS: "✓", FAIL: "✗", SKIP: "-"}
    for c in report.checks:
        line = f"{marks[c.status]} {c.id}: {c.claim}"
        if c.status == FAIL:
            line += f"  [expected {c.expected}, got {c.got}]"
        out.write(line + "\n")
    s = report.summary()
    out.write(f"summary: {s[PASS]} passed, {s[FAIL]} failed, {s[SKIP]} skipped\n")
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------------
# section runners


class Session:
    """Everything the checks need, constructed once per run."""

    def __init__(self, config: Config):
        self.config = config
        self.field = make_field(config.q)
        self.tower = Tower(self.field, config.precision)
        self.contexts = {
            v: HeckeContext(
                self.tower,
                v,
                window_words=config.window_words,
                window_z=config.window_z,
            )
            for v in config.variants()
        }
        self.rng = random.Random(config.seed)


def run_norms(s: Session, r: Report) -> None:
    tw, fld = s.tower, s.field
    r.add(
        "norms.canonical_generator",
        "residue",
        "the canonical primitive root is the smallest generator",
        f"q={fld.q}",
        fld.zeta,
        fld.zeta,
        ok=all(fld._order(a) < fld.q - 1 for a in range(2, fld.zeta)) and fld._order(fld.zeta) == fld.q - 1,
    )
    r.add(
        "norms.eta_of_generator",
        "residue",
        "eta sends the primitive root to i",
        f"zeta={fld.zeta}",
        UNIT_I,
        eta_residue(fld, fld.zeta),
    )
    r.add(
        "norms.eta_of_square",
        "residue",
        "eta of the squared root is -1",
        "zeta^2",
        UNIT_MINUS_ONE,
        eta_residue(fld, fld.pow(fld.zeta, 2)),
    )
    r.add(
        "norms.sgn_is_eta_squared",
        "residue",
        "the quadratic character equals eta squared on every unit",
        f"all {fld.q - 1} units",
        True,
        all(sgn(fld, a) == eta_residue(fld, a) ** 2 for a in range(1, fld.q)),
    )
    r.add(
        "norms.char_sum",
        "residue",
        "sum of eta over the squares of the unit group vanishes",
        f"q={fld.q}",
        "0",
        repr(char_sum_eta_squares(fld)),
    )
    r.add(
        "norms.defining_relation_quadratic",
        "tower",
        "the quadratic uniformizer squares to -t",
        "pi2^2",
        True,
        tw.uniformizer(E2) ** 2 == -tw.t(E2),
    )
    r.add(
        "norms.defining_relation_quartic",
        "tower",
        "the quartic uniformizer's fourth power is -zeta*t",
        "pi4^4",
        True,
        tw.uniformizer(E4) ** 4 == -(tw.constant(E4, fld.zeta) * tw.t(E4)),
    )
    r.add(
        "norms.trace_of_one",
        "tower",
        "traces of 1 are 2 and 4 with valuation zero",
        "Tr(1)",
        True,
        tw.one(E2).trace_to_F() == tw.integer(F, 2) and tw.one(E4).trace_to_F() == tw.integer(F, 4),
    )
    r.add(
        "norms.unit_image_quadratic",
        "tower",
        "eta^2 kills every unit norm from the quadratic extension",
        "all residues + 100 sampled units",
        True,
        norm_unit_image_check(tw, E2, rng=s.rng, samples=100),
    )
    r.add(
        "norms.unit_image_quartic",
        "tower",
        "eta kills every unit norm from the quartic extension",
        "all residues + 100 sampled units",
        True,
        norm_unit_image_check(tw, E4, rng=s.rng, samples=100),
    )
    ok = True
    for _ in range(20):
        tag = s.rng.choice((F, E2, E4))
        x = random_element(tw, tag, s.rng, depth=4, val_range=2)
        y = random_element(tw, tag, s.rng, depth=4, val_range=2)
        z = random_element(tw, tag, s.rng, depth=4, val_range=2)
        ok = ok and (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
    r.add(
        "norms.field_axioms_sample",
        "tower",
        "associativity and distributivity hold exactly at window precision",
        "20 seeded triples per run",
        True,
        ok,
    )


def run_genericity(s: Session, r: Report) -> None:
    tw = s.tower
    quarter = generic.check_ge1(tw, generic.LEVEL_QUARTER)
    half = generic.check_ge1(tw, generic.LEVEL_HALF)
    r.add(
        "genericity.pair_counts",
        "generic",
        "12 coroots at the quarter level and 40 at the half level",
        "root pair enumeration",
        "(12, 40)",
        str((len(quarter.valuations), len(half.valuations))),
    )
    r.add(
        "genericity.quarter_valuations",
        "generic",
        "every quarter-level pairing has valuation exactly -1/4",
        "12 pairings",
        True,
        quarter.ge1_pass,
    )
    r.add(
        "genericity.half_valuations",
        "generic",
        "every half-level pairing has valuation exactly -1/2",
        "40 pairings",
        True,
        half.ge1_pass,
    )
    r.add(
        "genericity.witnesses",
        "generic",
        "the diagonal witnesses pair to valuation 0 (values 4 and 2)",
        "Tr(pi^-1 * pi)",
        "(0, 0)",
        f"({quarter.witness_ord}, {half.witness_ord})",
        ok=quarter.ge0_pass
        and half.ge0_pass
        and generic.witness_value(tw, generic.LEVEL_QUARTER) == tw.integer(F, 4)
        and generic.witness_value(tw, generic.LEVEL_HALF) == tw.integer(F, 2),
    )
    anti = all(
        generic.pairing_on_coroot(tw, generic.RootPair(p.j, p.i, p.level))
        == -generic.pairing_on_coroot(tw, p)
        for lvl in (generic.LEVEL_QUARTER, generic.LEVEL_HALF)
        for p in generic.root_pairs(lvl)
    )
    r.add(
        "genericity.antisymmetry",
        "generic",
        "swapping a coroot's indices negates the pairing",
        "all 52 pairs",
        True,
        anti,
    )
    values = [generic.pairing_on_coroot(tw, p) for p in generic.root_pairs(generic.LEVEL_QUARTER)]
    rotated = [v.galois(1) for v in values]
    remaining = list(values)
    stable = True
    for v in rotated:
        for k, u in enumerate(remaining):
            if u == v:
                del remaining[k]
                break
        else:
            stable = False
            break
    r.add(
        "genericity.galois_stability",
        "generic",
        "the quarter-level pairing values are permuted by the Galois action",
        "12 values",
        True,
        stable and not remaining,
    )
    r.skip(
        "genericity.dual_lattice_containments",
        "generic",
        "full dual-lattice membership beyond the explicit witnesses is not machine-checked",
    )


def run_epsilon(s: Session, r: Report) -> None:
    for variant in s.config.variants():
        r.add(
            f"epsilon.trivial.{variant}",
            "groupmodel",
            "the quadratic sign character is trivial on all admissible residue triples",
            f"exhaustive over (q-1)^3 triples, {variant}",
            True,
            sign_character_trivial(s.field, variant),
        )


def run_weyl(s: Session, r: Report) -> None:
    tw = s.tower
    for variant in s.config.variants():
        r.add(
            f"weyl.structure.{variant}",
            "weyl",
            "reflections square to compact elements, the translations are "
            "central and of infinite order (valuation-certified to n=50)",
            f"{variant}",
            True,
            group_structure_check(tw, variant),
        )
        ok = True
        for _ in range(50):
            g = random_K0(tw, variant, s.rng)
            h = random_K0(tw, variant, s.rng)
            ok = ok and rho0(g * h, variant) == rho0(g, variant) * rho0(h, variant)
        r.add(
            f"weyl.rho0_homomorphism.{variant}",
            "groupmodel",
            "the depth-zero character is multiplicative on the compact subgroup",
            "50 seeded pairs",
            True,
            ok,
        )
        ok = True
        for _ in range(20):
            tt = random_KM0(tw, variant, s.rng)
            ok = ok and rho0(tt.to_group(), variant) == rho_M0(tt)
        r.add(
            f"weyl.rho0_restriction.{variant}",
            "groupmodel",
            "the compact-subgroup character restricts to the torus character",
            "20 seeded torus elements",
            True,
            ok,
        )
    s_t, z_t = elem_s(tw), elem_z(tw)
    ok = True
    for n in (s_t, z_t):
        for _ in range(15):
            tt = random_KM0(tw, STABILIZER, s.rng).to_group()
            conj = n * tt * n.inverse()
            ok = ok and conj.is_diagonal() and in_KM0(conj.to_torus(), STABILIZER)
    r.add(
        "weyl.normalizers",
        "groupmodel",
        "the reflection and translation lifts normalize the compact torus",
        "15 seeded elements each",
        True,
        ok,
    )
    ok = True
    for _ in range(25):
        tt = random_KM0(tw, STABILIZER, s.rng).to_group()
        ok = ok and rho_M0((s_t.inverse() * tt * s_t).to_torus()) == rho_M0(tt.to_torus())
    r.add(
        "weyl.character_invariance",
        "groupmodel",
        "conjugation by the reflection lift fixes the torus character",
        "25 seeded elements",
        True,
        ok,
    )
    ok = True
    window = s.contexts[s.config.variants()[0]].window(2, 1)
    for _ in range(40):
        a, b = s.rng.choice(window), s.rng.choice(window)
        disc = lift(tw, a * b).inverse() * lift(tw, a) * lift(tw, b)
        ok = ok and disc.is_diagonal() and in_KM0(disc.to_torus(), STABILIZER)
    r.add(
        "weyl.lift_homomorphism",
        "weyl",
        "the canonical lift is a homomorphism modulo the compact torus",
        "40 seeded pairs",
        True,
        ok,
    )


def run_lattice(s: Session, r: Report) -> None:
    r.add(
        "lattice.image_identity",
        "weyl",
        "the valuation-triple lattice {sum zero, even last entry} equals the "
        "span of (1,1,-2) and (1,-1,0), and membership matches the exact "
        "norm condition on the |n|<=4 box",
        "hnf + 729 exact evaluations",
        True,
        lattice_check(s.tower),
    )


def run_cocycle(s: Session, r: Report) -> None:
    tw = s.tower
    for variant in s.config.variants():
        ctx = s.contexts[variant]
        com = commutator(elem_s(tw), elem_z(tw))
        fld = s.field
        expected = torus(
            tw,
            tw.constant(E2, fld.inv(fld.zeta)),
            tw.constant(E2, fld.zeta),
            tw.one(E4),
        )
        r.add(
            f"cocycle.commutator.{variant}",
            "groupmodel",
            "the commutator of the reflection and translation lifts is the "
            "torus element (zeta^-1, zeta, 1) with character value -1",
            "[lift(s), lift(z)]",
            True,
            com.is_diagonal()
            and com.to_torus() == expected
            and rho_M0(com.to_torus()) == UNIT_MINUS_ONE,
        )
        table = CocycleTable(ctx)
        r.add(
            f"cocycle.normalised.{variant}",
            "hecke",
            "mu is normalised: identity pairs give 1",
            "window elements",
            True,
            all(
                table.mu(W_ID, w) == UNIT_ONE and table.mu(w, W_ID) == UNIT_ONE
                for w in ctx.window(2, 1)
            ),
        )
        r.add(
            f"cocycle.beta.{variant}",
            "hecke",
            "the commutator pairing of the reflection against the translation is -1",
            "beta(s, z)",
            UNIT_MINUS_ONE,
            table.beta(W_S, W_Z),
        )
        r.add(
            f"cocycle.beta_stability.{variant}",
            "hecke",
            "the pairing is unchanged under 20 random compact-torus lift families",
            "20 seeded families",
            True,
            all(sz_perturbed_table(ctx, s.rng).beta(W_S, W_Z) == UNIT_MINUS_ONE for _ in range(20)),
        )
        window = ctx.window()
        ok = True
        for _ in range(500):
            u, v, w = (s.rng.choice(window) for _ in range(3))
            ok = ok and table.cocycle_identity_holds(u, v, w)
        r.add(
            f"cocycle.identity.{variant}",
            "hecke",
            "the 2-cocycle identity holds on 500 seeded window triples",
            "500 triples",
            True,
            ok,
        )
        cert = nontriviality_certificate(table)
        r.add(
            f"cocycle.certificate.{variant}",
            "hecke",
            "a commuting pair with pairing -1 certifies a non-trivial class "
            "and obstructs any character extension to the normaliser",
            "certificate search",
            "((s, z), -1)",
            f"(({cert.pair[0]}, {cert.pair[1]}), {cert.value})" if cert.nontrivial else "none",
        )
        hits = multiplicative_family_search(ctx, s.rng, trials=40)
        r.add(
            f"cocycle.no_multiplicative_family.{variant}",
            "hecke",
            "no sampled lift family is multiplicative on the length-additive "
            "pairs through (s, z): clean coset representatives cannot exist",
            "40 seeded families",
            "0",
            str(hits),
        )
        if variant == PARAHORIC:
            r.add(
                "cocycle.sign_element_pairing.parahoric",
                "hecke",
                "the order-two sign element pairs trivially against the reflection",
                "beta(s, eps)",
                UNIT_ONE,
                table.beta(W_S, W_EPS),
            )


def run_convolution(s: Session, r: Report) -> None:
    for variant in s.config.variants():
        ctx = s.contexts[variant]
        q = s.config.q
        r.add(
            f"convolution.transversal_sizes.{variant}",
            "hecke",
            "both reflection transversals have exactly q cosets",
            "coset enumeration",
            f"({q}, {q})",
            str((len(ctx.coset_reps(W_S)), len(ctx.coset_reps(W_SP)))),
        )
        r.add(
            f"convolution.vanishing_finite.{variant}",
            "hecke",
            "the self-convolution of the reflection basis function vanishes at its lift",
            f"{q}-term sum",
            "0",
            repr(ctx.convolve_at(W_S, W_S, ctx.lift(W_S))),
        )
        r.add(
            f"convolution.vanishing_affine.{variant}",
            "hecke",
            "the self-convolution of the affine reflection vanishes at its lift",
            f"{q}-term sum",
            "0",
            repr(ctx.convolve_at(W_SP, W_SP, ctx.lift(W_SP))),
        )
        r.add(
            f"convolution.identity_value.{variant}",
            "hecke",
            "the self-convolution at the identity equals q",
            f"{q}-term sum",
            str(q),
            repr(ctx.convolve_at(W_S, W_S, ctx.lift(W_ID))),
        )
        r.add(
            f"convolution.unit_element.{variant}",
            "hecke",
            "the identity basis function is a two-sided convolution unit",
            "unit checks on s, s', z",
            True,
            all(
                ctx.convolve_at(W_ID, w, ctx.lift(w)) == COEFF_ONE
                and ctx.convolve_at(w, W_ID, ctx.lift(w)) == COEFF_ONE
                for w in (W_S, W_SP, W_Z)
            ),
        )


def run_omega(s: Session, r: Report) -> None:
    for variant in s.config.variants():
        ctx = s.contexts[variant]
        r.add(
            f"omega.quadratic_product.{variant}",
            "hecke",
            "the reflection's double-coset square is {identity, reflection}",
            "(s, s)",
            "{1, s}",
            "{" + ", ".join(sorted(str(w) for w in ctx.double_coset_product(W_S, W_S))) + "}",
        )
        r.add(
            f"omega.window.{variant}",
            "hecke",
            "every window pair multiplies into a single line: additive pairs "
            "give one double coset, the rest have vanishing extraneous convolutions",
            "words <= 2, central exponents <= 1",
            True,
            ctx.omega_check(),
        )


def run_algebra(s: Session, r: Report) -> None:
    ctx = s.contexts[s.config.variants()[0]]
    table = CocycleTable(ctx)
    example = alg.build_example_algebra(table)
    system = alg.CoxeterSystem(("s", "t"))
    params = {"s": COEFF_ONE + COEFF_ONE + COEFF_ONE, "t": COEFF_ONE + COEFF_ONE}
    words = [(), ("s",), ("t",), ("s", "t"), ("t", "s")]
    ok = True
    for _ in range(100):
        a, b, c = (
            alg.GenericHeckeElem.basis(system, s.rng.choice(words)) for _ in range(3)
        )
        ok = ok and alg.hecke_mul(alg.hecke_mul(a, b, params), c, params) == alg.hecke_mul(
            a, alg.hecke_mul(b, c, params), params
        )
    r.add(
        "algebra.hecke_associativity",
        "algebra",
        "the parameterised Hecke product is associative",
        "100 seeded basis triples",
        True,
        ok,
    )
    twisted = example.twisted
    window = ctx.window(2, 1)
    ok = True
    for _ in range(100):
        a, b, c = (twisted.basis(s.rng.choice(window)) for _ in range(3))
        ok = ok and alg.twisted_mul(alg.twisted_mul(a, b), c) == alg.twisted_mul(
            a, alg.twisted_mul(b, c)
        )
    r.add(
        "algebra.twisted_associativity",
        "algebra",
        "the cocycle-twisted group algebra is associative",
        "100 seeded basis triples",
        True,
        ok,
    )
    ok = True
    pool = [example.basis(s.rng.choice(window)) for _ in range(8)]
    for _ in range(100):
        a, b, c = (s.rng.choice(pool) for _ in range(3))
        ok = ok and alg.crossed_mul(alg.crossed_mul(a, b), c) == alg.crossed_mul(
            a, alg.crossed_mul(b, c)
        )
    r.add(
        "algebra.crossed_associativity",
        "algebra",
        "the crossed product is associative",
        "100 seeded triples",
        True,
        ok,
    )
    prod = alg.crossed_mul(
        alg.crossed_mul(
            alg.crossed_mul(example.basis(W_S), example.basis(W_Z)),
            example.basis(W_S.inverse()),
        ),
        example.basis(W_Z.inverse()),
    )
    from .residue import HeckeCoeff

    r.add(
        "algebra.example_commutation",
        "algebra",
        "in the example algebra e_s e_z e_s^-1 e_z^-1 = -e_1",
        "basis product",
        True,
        prod.terms == {(W_ID, ()): HeckeCoeff(-1, 0)},
    )

    def broken(u, v):
        if (u, v) == (W_S, W_Z):
            return -table.mu(u, v).as_coeff()
        return table.mu(u, v).as_coeff()

    bad = alg.TwistedGroupAlgebra(lambda u, v: u * v, broken, W_ID)
    probes = [W_ID, W_S, W_Z, W_S * W_Z]
    violations = 0
    for a in probes:
        for b in probes:
            for c in probes:
                left = alg.twisted_mul(alg.twisted_mul(bad.basis(a), bad.basis(b)), bad.basis(c))
                right = alg.twisted_mul(bad.basis(a), alg.twisted_mul(bad.basis(b), bad.basis(c)))
                if left != right:
                    violations += 1
    r.add(
        "algebra.broken_cocycle_control",
        "algebra",
        "breaking the cocycle at one pair destroys associativity (negative control)",
        "64 probe triples",
        True,
        violations > 0,
    )


RUNNERS = {
    "norms": run_norms,
    "genericity": run_genericity,
    "epsilon": run_epsilon,
    "weyl": run_weyl,
    "lattice": run_lattice,
    "cocycle": run_cocycle,
    "convolution": run_convolution,
    "omega": run_omega,
    "algebra": run_algebra,
}


def run_all(config: Config, sections=SECTIONS) -> Report:
    config.validate()
    session = Session(config)
    report = Report(config)
    for name in sections:
        RUNNERS[name](session, report)
    return report


def dump_constants(config: Config) -> bytes:
    config.validate()
    session = Session(config)
    ctx = session.contexts[config.variants()[0]]
    table = CocycleTable(ctx)
    example = alg.build_example_algebra(table)
    rows = alg.structure_constant_rows(example, ctx.window(2, 1))
    out = io.StringIO()
    out.write("u,v,uv,coefficient-re,coefficient-im\n")
    for u, v, uv, re, im in rows:
        out.write(f"{u},{v},{uv},{re},{im}\n")
    return out.getvalue().encode("utf-8")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl8hecke",
        description="exact verification of the depth-zero Hecke algebra example",
    )
    parser.add_argument("--q", type=int, default=5, help="residue field size (4 | q-1)")
    parser.add_argument("--precision", type=int, default=40, help="relative series precision")
    parser.add_argument(
        "--variant",
        default="both",
        choices=["stabilizer", "parahoric", "both"],
        help="compact subgroup variant",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument("--format", dest="fmt", default="text", choices=["text", "json"])
    parser.add_argument("--window-words", type=int, default=4)
    parser.add_argument("--window-z", type=int, default=2)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("report", help="run every check (default)")
    verify = sub.add_parser("verify", help="run a single section")
    verify.add_argument("section", choices=list(SECTIONS))
    sub.add_parser("dump-constants", help="structure constants of the example algebra as CSV")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    config = Config(
        q=args.q,
        precision=args.precision,
        variant=args.variant,
        window_words=args.window_words,
        window_z=args.window_z,
        seed=args.seed,
        fmt=args.fmt,
    )
    try:
        config.validate()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    command = args.command or "report"
    if command == "dump-constants":
        sys.stdout.buffer.write(dump_constants(config))
        return 0
    sections = SECTIONS if command == "report" else (args.section,)
    report = run_all(config, sections)
    sys.stdout.buffer.write(emit(report, config.fmt))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
