"""Batch verification driver.

``report`` runs every check for the configured q, precision and variant(s)
and emits a machine-readable JSON or human-readable text report; the exit
code is 0 when everything passes, 1 when any check fails, 2 on a bad
configuration.  A check that raises one of the verifier's own errors fails
its row, with the error in ``got``, and the later rows still run; any other
exception propagates.  ``verify <section>`` runs a single section.  The
checks, in report order, are the rows of ``CHECKS``; the section names are
the id prefixes of those rows.  ``dump-constants`` prints the structure
constants of the example twisted group algebra as CSV.  Every command loads
``residue``, ``tower``, ``groupmodel``, ``weyl`` and ``hecke``; the rows that
call ``generic``, ``algebra``, ``cocycle`` or ``lattice``, or take a matrix
(``matrices``) or an element of more than one term (``series``), and
``dump_constants``, import them where they call them, so a run loads a
module only when its command needs it:

    verify omega, convolution, epsilon   none of them
    verify lattice                       lattice
    verify norms                         series
    verify genericity                    generic, series
    verify weyl                          cocycle, matrices, series
    verify cocycle                       cocycle
    verify algebra, dump-constants       algebra, cocycle
    report                               all but reference (lattice in the worker)

The `Session` builds each variant's cocycle table on first read.  ``python
-m sl8hecke.cli`` and the console script run `entry`, which skips the
heap's teardown at exit.

Runs are deterministic: each row run draws its samples from its own
generator, seeded by the string ``"{seed}:{id}"`` of the ``--seed`` and the
reported check id, so two runs with the same configuration and seed produce
byte-identical JSON, and ``verify <section>`` draws a report's samples.

A run whose sections span both groups below uses both cores: right after
the ``Session`` is built it forks one worker for the sections in
``WORKER_SECTIONS`` and runs the rest itself in report order.  The worker
sends its rows back as JSON over a pipe and the rows are merged in report
order, so the output bytes and the exit codes are those of a serial run.  A
worker row that raises an error not the verifier's own, or a worker that
dies, makes ``run_all`` raise with the worker's traceback, and the worker is
reaped whatever happens.  ``verify`` runs one section, and a host without
``os.fork`` every section, in one process through the same loop.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import random
import sys
from typing import Callable, NamedTuple

from .groupmodel import (
    PARAHORIC,
    STABILIZER,
    MembershipError,
    letters,
    rho_terms,
    sign_character_trivial,
    term_commutator,
)
from .hecke import WINDOW_WORDS, WINDOW_Z, ClassificationError, HeckeContext, TransversalError, WindowExceeded
from .residue import (
    COEFF_ONE,
    UNIT_I,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    HeckeCoeff,
    char_sum_eta_squares,
    eta_residue,
    make_field,
    sgn,
)
from .tower import E2, E4, F, PrecisionExhausted, Tower
from .weyl import W_EPS, W_ID, W_S, W_SP, W_Z, group_structure_check

PASS = "pass"
FAIL = "fail"
SKIP = "skipped-out-of-scope"


class ConfigError(ValueError):
    pass


class Config(NamedTuple):
    q: int = 5
    precision: int = 40
    variant: str = "both"
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

    def variants(self) -> tuple[str, ...]:
        if self.variant == "both":
            return (STABILIZER, PARAHORIC)
        return (self.variant,)


class Check(NamedTuple):
    id: str
    module: str
    claim: str
    inputs: str
    expected: str
    got: str
    status: str


class Report(NamedTuple):
    config: Config
    checks: list[Check]

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
                "window_words": WINDOW_WORDS,
                "window_z": WINDOW_Z,
                "seed": report.config.seed,
            },
            "checks": [c._asdict() for c in report.checks],
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
# the checks


class Session:
    """Everything the checks need, constructed once per run."""

    def __init__(self, config: Config):
        self.config = config
        self.field = make_field(config.q)
        self.tower = Tower(self.field, config.precision)
        self.contexts = {v: HeckeContext(self.tower, v) for v in config.variants()}
        self.rng: random.Random | None = None  # the running row's, set by `_run_sections`
        self._once: dict = {}

    def once(self, key, make):
        """make(), computed on first read and kept for the rest of the run."""
        if key not in self._once:
            self._once[key] = make()
        return self._once[key]

    def ge1(self):
        """The genericity reports at the quarter and at the half level."""
        from . import generic

        levels = (generic.LEVEL_QUARTER, generic.LEVEL_HALF)
        return self.once("ge1", lambda: tuple(generic.check_ge1(self.tower, level) for level in levels))

    def table(self, v: str):
        """The canonical lift family's `CocycleTable` of variant v, shared by
        every check that reads mu."""
        from .cocycle import CocycleTable

        return self.once(("table", v), lambda: CocycleTable(self.contexts[v]))

    def cocycle_certificate(self, v: str):
        from .cocycle import cocycle_certificate

        return self.once(("cocycle", v), lambda: cocycle_certificate(self.contexts[v]))

    def rho0_certificate(self, v: str):
        from .cocycle import rho0_certificate

        return self.once(("rho0", v), lambda: rho0_certificate(self.contexts[v]))


def sampled(n: int, draw: Callable[[], tuple], holds: Callable[..., bool]) -> bool:
    """Whether holds(*draw()) for each of n samples."""
    return all(holds(*draw()) for _ in range(n))


def _associative(mul):
    return lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c))


def _triple(draw):
    return lambda: (draw(), draw(), draw())


def _canonical_generator(s: Session, v: str):
    fld = s.field
    ok = all(fld._order(a) < fld.q - 1 for a in range(2, fld.zeta)) and fld._order(fld.zeta) == fld.q - 1
    return fld.zeta, fld.zeta, ok


def _unit_norms(s: Session, tag: str) -> bool:
    from .series import norm_unit_image_check

    return norm_unit_image_check(s.tower, tag, rng=s.rng, samples=100)


def _field_axioms(s: Session, v: str):
    from .series import random_element

    def draw():
        tag = s.rng.choice((F, E2, E4))
        return tuple(random_element(s.tower, tag, s.rng, depth=4, val_range=2) for _ in range(3))

    return True, sampled(
        20, draw, lambda x, y, z: (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
    )


def _witnesses(s: Session, v: str):
    from . import generic

    tw, (quarter, half) = s.tower, s.ge1()
    ok = (
        quarter.ge0_pass
        and half.ge0_pass
        and generic.witness_value(tw, generic.LEVEL_QUARTER) == tw.integer(F, 4)
        and generic.witness_value(tw, generic.LEVEL_HALF) == tw.integer(F, 2)
    )
    return "(0, 0)", f"({quarter.witness_ord}, {half.witness_ord})", ok


def _antisymmetric(s: Session, v: str):
    from . import generic

    return True, all(
        generic.pairing_on_coroot(s.tower, generic.RootPair(p.j, p.i, p.level))
        == -generic.pairing_on_coroot(s.tower, p)
        for lvl in (generic.LEVEL_QUARTER, generic.LEVEL_HALF)
        for p in generic.root_pairs(lvl)
    )


def _galois_stable(s: Session, v: str):
    from . import generic

    values = [generic.pairing_on_coroot(s.tower, p) for p in generic.root_pairs(generic.LEVEL_QUARTER)]
    remaining = list(values)
    for u in [x.galois(1) for x in values]:
        if u not in remaining:
            return True, False
        remaining.remove(u)
    return True, not remaining


def _commutator(s: Session, v: str):
    fld, let = s.field, letters(s.tower)
    com = term_commutator(fld, let["s"], let["z"])
    expected = ("diag", ((fld.inv(fld.zeta), 0), (fld.zeta, 0), (1, 0)))
    return True, com == expected and rho_terms(fld, com) == UNIT_MINUS_ONE


def _normalised(s: Session, v: str):
    table = s.table(v)
    return True, all(
        table.mu(W_ID, w) == UNIT_ONE and table.mu(w, W_ID) == UNIT_ONE for w in s.contexts[v].window(2, 1)
    )


def _cocycle_identity(s: Session, v: str):
    window = s.contexts[v].window()
    return True, sampled(500, _triple(lambda: s.rng.choice(window)), s.table(v).cocycle_identity_holds)


def _no_multiplicative_family(s: Session, v: str):
    # beta(s, z) is the same in every family, so beta(s, z) != 1 leaves mu(s, z)
    # or mu(z, s) != 1 in each: no family is multiplicative on both pairs
    proven = s.cocycle_certificate(v).holds and s.table(v).beta(W_S, W_Z) != UNIT_ONE
    return "0", "0" if proven else "unproven"


def _certificate(s: Session, v: str):
    from .cocycle import nontriviality_certificate

    cert = nontriviality_certificate(s.table(v))
    return "((s, z), -1)", f"(({cert.pair[0]}, {cert.pair[1]}), {cert.value})" if cert.nontrivial else "none"


def _lattice(s: Session, v: str):
    from .lattice import lattice_check

    return True, lattice_check(s.tower)


def _self_convolution(s: Session, v: str, w, at) -> str:
    return repr(s.contexts[v].convolve_at(w, w, at))


def _unit_element(s: Session, v: str):
    ctx = s.contexts[v]
    return True, all(
        ctx.convolve_at(W_ID, w, w) == COEFF_ONE and ctx.convolve_at(w, W_ID, w) == COEFF_ONE
        for w in (W_S, W_SP, W_Z)
    )


def _hecke_associativity(s: Session, v: str):
    from . import algebra as alg

    system = alg.CoxeterSystem(("s", "t"))
    params = {"s": COEFF_ONE + COEFF_ONE + COEFF_ONE, "t": COEFF_ONE + COEFF_ONE}
    words = [(), ("s",), ("t",), ("s", "t"), ("t", "s")]
    return True, sampled(
        100,
        _triple(lambda: alg.GenericHeckeElem.basis(system, s.rng.choice(words))),
        _associative(lambda a, b: alg.hecke_mul(a, b, params)),
    )


def _twisted_associativity(s: Session, v: str):
    from . import algebra as alg

    twisted, window = alg.build_example_algebra(s.table(v)).twisted, s.contexts[v].window(2, 1)
    draw = _triple(lambda: twisted.basis(s.rng.choice(window)))
    return True, sampled(100, draw, _associative(alg.twisted_mul))


def _crossed_associativity(s: Session, v: str):
    from . import algebra as alg

    example, window = alg.build_example_algebra(s.table(v)), s.contexts[v].window(2, 1)
    pool = [example.basis(s.rng.choice(window)) for _ in range(8)]
    return True, sampled(100, _triple(lambda: s.rng.choice(pool)), _associative(alg.crossed_mul))


def _example_commutation(s: Session, v: str):
    from . import algebra as alg

    e, mul = alg.build_example_algebra(s.table(v)).basis, alg.crossed_mul
    prod = mul(mul(mul(e(W_S), e(W_Z)), e(W_S.inverse())), e(W_Z.inverse()))
    return True, prod.terms == {(W_ID, ()): HeckeCoeff(-1, 0)}


def _broken_cocycle_control(s: Session, v: str):
    from . import algebra as alg

    table = s.table(v)

    def broken(u, w):
        mu = table.mu(u, w).as_coeff()
        return -mu if (u, w) == (W_S, W_Z) else mu

    bad = alg.TwistedGroupAlgebra(lambda u, w: u * w, broken, W_ID)
    associates = _associative(alg.twisted_mul)
    probes = [W_ID, W_S, W_Z, W_S * W_Z]
    violations = sum(not associates(*map(bad.basis, t)) for t in itertools.product(probes, repeat=3))
    return True, violations > 0


class Row(NamedTuple):
    """One report check.

    ``check(session, variant)`` returns ``(expected, got)``, or
    ``(expected, got, ok)`` when string equality is not the pass rule;
    ``None`` marks a check that is out of scope.  A row with ``variants``
    runs once per configured variant among them, the variant appended to its
    id; any other row runs once, after those of its section, with the first
    configured variant.  A check samples from ``session.rng``, which each
    run of a row gets afresh (see the module docstring).  ``inputs`` is
    formatted with ``q``, ``units`` (q - 1), ``pairs`` ((q - 1)**2), ``zeta``
    and ``variant``.
    """

    id: str
    module: str
    claim: str
    inputs: str
    check: Callable | None
    variants: tuple[str, ...] = ()

    @property
    def section(self) -> str:
        return self.id.split(".")[0]


BOTH = (STABILIZER, PARAHORIC)

# report order; a row's section is the prefix of its id
CHECKS = (
    Row("norms.canonical_generator", "residue", "the canonical primitive root is the smallest generator",
        "q={q}", _canonical_generator),
    Row("norms.eta_of_generator", "residue", "eta sends the primitive root to i",
        "zeta={zeta}", lambda s, v: (UNIT_I, eta_residue(s.field, s.field.zeta))),
    Row("norms.eta_of_square", "residue", "eta of the squared root is -1",
        "zeta^2", lambda s, v: (UNIT_MINUS_ONE, eta_residue(s.field, s.field.pow(s.field.zeta, 2)))),
    Row("norms.sgn_is_eta_squared", "residue", "the quadratic character equals eta squared on every unit",
        "all {units} units",
        lambda s, v: (True, all(sgn(s.field, a) == eta_residue(s.field, a) ** 2
                                for a in range(1, s.field.q)))),
    Row("norms.char_sum", "residue", "sum of eta over the squares of the unit group vanishes",
        "q={q}", lambda s, v: ("0", repr(char_sum_eta_squares(s.field)))),
    Row("norms.defining_relation_quadratic", "tower", "the quadratic uniformizer squares to -t",
        "pi2^2", lambda s, v: (True, s.tower.uniformizer(E2) ** 2 == -s.tower.t(E2))),
    Row("norms.defining_relation_quartic", "tower", "the quartic uniformizer's fourth power is -zeta*t",
        "pi4^4", lambda s, v: (True, s.tower.uniformizer(E4) ** 4
                               == -(s.tower.constant(E4, s.field.zeta) * s.tower.t(E4)))),
    Row("norms.trace_of_one", "tower", "traces of 1 are 2 and 4 with valuation zero",
        "Tr(1)", lambda s, v: (True, s.tower.one(E2).trace_to_F() == s.tower.integer(F, 2)
                               and s.tower.one(E4).trace_to_F() == s.tower.integer(F, 4))),
    Row("norms.unit_image_quadratic", "tower", "eta^2 kills every unit norm from the quadratic extension",
        "all residues + 100 sampled units",
        lambda s, v: (True, _unit_norms(s, E2))),
    Row("norms.unit_image_quartic", "tower", "eta kills every unit norm from the quartic extension",
        "all residues + 100 sampled units",
        lambda s, v: (True, _unit_norms(s, E4))),
    Row("norms.field_axioms_sample", "tower",
        "associativity and distributivity hold exactly at window precision",
        "20 seeded triples per run", _field_axioms),
    Row("genericity.pair_counts", "generic", "12 coroots at the quarter level and 40 at the half level",
        "root pair enumeration", lambda s, v: ("(12, 40)", str(tuple(len(r.valuations) for r in s.ge1())))),
    Row("genericity.quarter_valuations", "generic", "every quarter-level pairing has valuation exactly -1/4",
        "12 pairings", lambda s, v: (True, s.ge1()[0].ge1_pass)),
    Row("genericity.half_valuations", "generic", "every half-level pairing has valuation exactly -1/2",
        "40 pairings", lambda s, v: (True, s.ge1()[1].ge1_pass)),
    Row("genericity.witnesses", "generic", "the diagonal witnesses pair to valuation 0 (values 4 and 2)",
        "Tr(pi^-1 * pi)", _witnesses),
    Row("genericity.antisymmetry", "generic", "swapping a coroot's indices negates the pairing",
        "all 52 pairs", _antisymmetric),
    Row("genericity.galois_stability", "generic",
        "the quarter-level pairing values are permuted by the Galois action", "12 values", _galois_stable),
    Row("genericity.dual_lattice_containments", "generic",
        "full dual-lattice membership beyond the explicit witnesses is not machine-checked", "", None),
    Row("epsilon.trivial", "groupmodel",
        "the quadratic sign character is trivial on all admissible residue triples",
        "exhaustive over (q-1)^3 triples, {variant}",
        lambda s, v: (True, sign_character_trivial(s.field, v)), BOTH),
    Row("weyl.structure", "weyl", "reflections square to compact elements, the translations are "
        "central and of infinite order (valuation-certified to n=50)",
        "{variant}", lambda s, v: (True, group_structure_check(s.tower, v)), BOTH),
    Row("weyl.rho0_homomorphism", "groupmodel",
        "the depth-zero character is multiplicative on the compact subgroup: the d-entry residue "
        "is multiplicative on the Iwahori and rho0 is its quadratic character",
        "exhaustive over {pairs} residue pairs",
        lambda s, v: (True, s.rho0_certificate(v).reduction and s.rho0_certificate(v).multiplicative), BOTH),
    Row("weyl.rho0_restriction", "groupmodel",
        "the compact-subgroup character restricts to the torus character", "exhaustive over {units} residues",
        lambda s, v: (True, s.rho0_certificate(v).restriction), BOTH),
    Row("weyl.normalizers", "groupmodel", "the letter lifts normalize the compact torus: a diagonal lift "
        "commutes with it and an antidiagonal one swaps its first two entries",
        "letter relations", lambda s, v: (True, s.cocycle_certificate(v).normalizes)),
    Row("weyl.character_invariance", "groupmodel",
        "conjugation by the letter lifts fixes the torus character",
        "exhaustive over {pairs} residue pairs", lambda s, v: (True, s.cocycle_certificate(v).invariant)),
    Row("weyl.lift_homomorphism", "weyl", "the canonical lift is a homomorphism modulo the compact torus: "
        "the letter squares and commutators lie in it",
        "letter relations", lambda s, v: (True, s.cocycle_certificate(v).lift_multiplicative)),
    Row("lattice.image_identity", "weyl",
        "the valuation-triple lattice {sum zero, even last entry} equals the span of (1,1,-2) "
        "and (1,-1,0), and membership matches the exact norm condition on the |n|<=4 box",
        "hnf + 729 exact evaluations", _lattice),
    Row("cocycle.commutator", "groupmodel", "the commutator of the reflection and translation lifts is the "
        "torus element (zeta^-1, zeta, 1) with character value -1", "[lift(s), lift(z)]", _commutator, BOTH),
    Row("cocycle.normalised", "hecke", "mu is normalised: identity pairs give 1",
        "window elements", _normalised, BOTH),
    Row("cocycle.beta", "hecke", "the commutator pairing of the reflection against the translation is -1",
        "beta(s, z)", lambda s, v: (UNIT_MINUS_ONE, s.table(v).beta(W_S, W_Z)), BOTH),
    Row("cocycle.beta_stability", "hecke",
        "the pairing is the same in every compact-torus lift family: the lifts normalize the compact "
        "torus and fix its character", "exhaustive over {pairs} residue pairs",
        lambda s, v: (True, s.cocycle_certificate(v).holds), BOTH),
    Row("cocycle.identity", "hecke", "the 2-cocycle identity holds on 500 seeded window triples",
        "500 triples", _cocycle_identity, BOTH),
    Row("cocycle.certificate", "hecke", "a commuting pair with pairing -1 certifies a non-trivial class "
        "and obstructs any character extension to the normaliser", "certificate search", _certificate, BOTH),
    Row("cocycle.no_multiplicative_family", "hecke", "no compact-torus lift family is multiplicative on the "
        "length-additive pairs through (s, z): clean coset representatives cannot exist",
        "beta(s, z) and {pairs} residue pairs", _no_multiplicative_family, BOTH),
    Row("cocycle.sign_element_pairing", "hecke",
        "the order-two sign element pairs trivially against the reflection",
        "beta(s, eps)", lambda s, v: (UNIT_ONE, s.table(v).beta(W_S, W_EPS)), (PARAHORIC,)),
    Row("convolution.transversal_sizes", "hecke", "both reflection transversals have exactly q cosets",
        "coset enumeration", lambda s, v: (f"({s.field.q}, {s.field.q})", str((
            len(s.contexts[v].base_family(W_S)), len(s.contexts[v].base_family(W_SP))))), BOTH),
    Row("convolution.vanishing_finite", "hecke",
        "the self-convolution of the reflection basis function vanishes at its lift",
        "{q}-term sum", lambda s, v: ("0", _self_convolution(s, v, W_S, W_S)), BOTH),
    Row("convolution.vanishing_affine", "hecke",
        "the self-convolution of the affine reflection vanishes at its lift",
        "{q}-term sum", lambda s, v: ("0", _self_convolution(s, v, W_SP, W_SP)), BOTH),
    Row("convolution.identity_value", "hecke", "the self-convolution at the identity equals q",
        "{q}-term sum", lambda s, v: (str(s.field.q), _self_convolution(s, v, W_S, W_ID)), BOTH),
    Row("convolution.unit_element", "hecke", "the identity basis function is a two-sided convolution unit",
        "unit checks on s, s', z", _unit_element, BOTH),
    Row("omega.quadratic_product", "hecke", "the reflection's double-coset square is {identity, reflection}",
        "(s, s)", lambda s, v: ("{1, s}", "{" + ", ".join(
            sorted(str(w) for w in s.contexts[v].double_coset_product(W_S, W_S))) + "}"), BOTH),
    Row("omega.window", "hecke", "every window pair multiplies into a single line: additive pairs "
        "give one double coset, the rest have vanishing extraneous convolutions",
        "words <= 2, central exponents <= 1", lambda s, v: (True, s.contexts[v].omega_check()), BOTH),
    Row("algebra.hecke_associativity", "algebra", "the parameterised Hecke product is associative",
        "100 seeded basis triples", _hecke_associativity),
    Row("algebra.twisted_associativity", "algebra", "the cocycle-twisted group algebra is associative",
        "100 seeded basis triples", _twisted_associativity),
    Row("algebra.crossed_associativity", "algebra", "the crossed product is associative",
        "100 seeded triples", _crossed_associativity),
    Row("algebra.example_commutation", "algebra", "in the example algebra e_s e_z e_s^-1 e_z^-1 = -e_1",
        "basis product", _example_commutation),
    Row("algebra.broken_cocycle_control", "algebra",
        "breaking the cocycle at one pair destroys associativity (negative control)",
        "64 probe triples", _broken_cocycle_control),
)

SECTIONS = tuple(dict.fromkeys(row.section for row in CHECKS))


# a run that also asks for other sections runs these in a forked worker.  The
# split only shares the cost between two cores: each row draws its own
# samples, and a value read through Session.once is built in each process
# that reads it, so weyl and cocycle, which share certificates, stay together
WORKER_SECTIONS = ("epsilon", "lattice", "convolution", "omega")


def run_all(config: Config, sections=SECTIONS) -> Report:
    config.validate()
    s = Session(config)
    worker = [section for section in sections if section in WORKER_SECTIONS]
    parent = [section for section in sections if section not in WORKER_SECTIONS]
    if not (worker and parent and hasattr(os, "fork")):
        return Report(config, _run_sections(s, sections))
    order = {section: i for i, section in enumerate(sections)}
    checks = _run_forked(s, parent, worker)
    # stable, so each section keeps its rows' order
    checks.sort(key=lambda c: order[c.id.split(".")[0]])
    return Report(config, checks)


def _run_sections(s: Session, sections) -> list[Check]:
    fld, variants = s.field, s.config.variants()
    checks = []
    for section in sections:
        rows = [row for row in CHECKS if row.section == section]
        runs = [(row, v, f"{row.id}.{v}") for v in variants for row in rows if v in row.variants]
        runs += [(row, variants[0], row.id) for row in rows if not row.variants]
        for row, variant, id_ in runs:
            if row.check is None:
                checks.append(Check(id_, row.module, row.claim, "", "", "", SKIP))
                continue
            s.rng = random.Random(f"{s.config.seed}:{id_}")
            try:
                expected, got, *ok = row.check(s, variant)
                passed = ok[0] if ok else str(expected) == str(got)
            except (ClassificationError, MembershipError, PrecisionExhausted, TransversalError, WindowExceeded) as exc:
                # a verifier error fails its row, and the later rows still run
                expected, got, passed = "", f"{type(exc).__name__}: {exc}", False
            inputs = row.inputs.format(
                q=fld.q, units=fld.q - 1, pairs=(fld.q - 1) ** 2, zeta=fld.zeta, variant=variant
            )
            checks.append(Check(id_, row.module, row.claim, inputs, str(expected), str(got), PASS if passed else FAIL))
    return checks


def _run_forked(s: Session, parent: list[str], worker: list[str]) -> list[Check]:
    """The parent sections' rows, then the worker sections' rows, the worker
    sections run in a forked child while this process runs the parent's.

    The child sends ``["rows", checks]`` or, when a row raises an error that is
    not the verifier's own, ``["error", traceback]`` as JSON over a pipe, and
    exits 0 only once the message is written.  An error message, or a child
    that dies, raises RuntimeError here, so no partial report is printed; the
    child is reaped whatever happens, and killed first if its rows are unread.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                message = ["rows", _run_sections(s, worker)]
            except Exception:
                import traceback

                message = ["error", traceback.format_exc()]
            with open(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(json.dumps(message))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    data = None
    try:
        with open(read_fd, "rb") as pipe:
            checks = _run_sections(s, parent)
            data = pipe.read()
    finally:
        if data is None:
            import signal

            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"the report worker died (wait status {status})")
    kind, body = json.loads(data)
    if kind == "error":
        raise RuntimeError(f"a worker section raised:\n{body}")
    return checks + [Check(*fields) for fields in body]


def dump_constants(config: Config) -> bytes:
    from . import algebra as alg

    config.validate()
    session = Session(config)
    variant = config.variants()[0]
    example = alg.build_example_algebra(session.table(variant))
    rows = alg.structure_constant_rows(example, session.contexts[variant].window(2, 1))
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
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks, one stream per check id")
    parser.add_argument("--format", dest="fmt", default="text", choices=["text", "json"])
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("report", help="run every check (default)")
    verify = sub.add_parser("verify", help="run a single section")
    verify.add_argument("section", choices=list(SECTIONS))
    sub.add_parser("dump-constants", help="structure constants of the example algebra as CSV")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    config = Config(q=args.q, precision=args.precision, variant=args.variant, seed=args.seed, fmt=args.fmt)
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


def entry(argv=None) -> int:
    """`main` for a process that exits when it returns: ``python -m
    sl8hecke.cli`` and the ``sl8hecke`` console script.

    Once `main` is done nothing in the heap is read again, so it is frozen:
    the interpreter's finalisation then neither collects it nor frees it
    object by object, and the operating system takes it back at exit.
    Standard streams are still flushed and atexit handlers still run, which
    ``os._exit`` would skip.  `main` itself does not freeze, since tests and
    the benchmark's probe call it in a process that goes on."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
