import ast
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sl8hecke.cli import (
    CHECKS,
    Config,
    ConfigError,
    SECTIONS,
    WORKER_SECTIONS,
    dump_constants,
    emit,
    main,
    make_parser,
    run_all,
)
from sl8hecke.weyl import W_S, W_Z

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_config_rejects_bad_q():
    with pytest.raises(ConfigError):
        Config(q=7).validate()
    with pytest.raises(ConfigError):
        Config(q=8).validate()


def test_config_rejects_small_precision():
    with pytest.raises(ConfigError):
        Config(precision=8).validate()


def test_main_exit_codes(capsys):
    assert main(["--q", "7", "report"]) == 2
    assert main(["--q", "5", "verify", "lattice"]) == 0
    # the window has no flag: an unknown option is a bad configuration
    for argv in (["--window-words", "4", "report"], ["--window-z", "2", "report"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_the_options_are_exactly_the_config_fields():
    options = {s for a in make_parser()._actions for s in a.option_strings} - {"-h", "--help"}
    assert options == {"--q", "--precision", "--variant", "--seed", "--format"}
    assert Config._fields == ("q", "precision", "variant", "seed", "fmt")


def test_single_section_runs():
    report = run_all(Config(), sections=("lattice",))
    assert len(report.checks) == 1
    assert report.checks[0].status == "pass"


def test_json_deterministic_and_roundtrips():
    cfg = Config(seed=3, variant="stabilizer")
    a = emit(run_all(cfg, sections=("norms", "lattice", "epsilon")), "json")
    b = emit(run_all(cfg, sections=("norms", "lattice", "epsilon")), "json")
    assert a == b
    payload = json.loads(a.decode("utf-8"))
    assert set(payload) == {"config", "checks", "summary"}
    for check in payload["checks"]:
        assert set(check) == {"id", "module", "claim", "inputs", "expected", "got", "status"}
        assert check["status"] in ("pass", "fail", "skipped-out-of-scope")


def test_text_format_line_count():
    cfg = Config(variant="parahoric")
    report = run_all(cfg, sections=("lattice", "epsilon"))
    text = emit(report, "text").decode("utf-8")
    lines = [l for l in text.strip().split("\n")]
    # header + one line per check + summary
    assert len(lines) == len(report.checks) + 2
    assert lines[-1].startswith("summary:")
    assert all(l[0] in "✓✗-" for l in lines[1:-1])


def test_variant_filter():
    stab = run_all(Config(variant="stabilizer"), sections=("epsilon",))
    both = run_all(Config(variant="both"), sections=("epsilon",))
    assert len(stab.checks) == 1
    assert len(both.checks) == 2
    assert "stabilizer" in stab.checks[0].id


def test_dump_constants_csv():
    data = dump_constants(Config(variant="stabilizer")).decode("utf-8")
    lines = data.strip().split("\n")
    assert lines[0] == "u,v,uv,coefficient-re,coefficient-im"
    # 15 window elements (words <= 2, |z| <= 1, no sign bit) squared
    assert len(lines) == 1 + 15 * 15
    for line in lines[1:]:
        u, v, uv, re, im = line.split(",")
        assert (int(re), int(im)) != (0, 0)


def test_dump_constants_matches_golden_output(capsysbinary):
    # recorded from `python -m sl8hecke.cli --q 5 --variant parahoric
    # dump-constants`: the window with the sign bit, every structure constant
    # read through `crossed_mul`
    assert main(["--q", "5", "--variant", "parahoric", "dump-constants"]) == 0
    assert capsysbinary.readouterr().out == (DATA / "dump-constants-q5-parahoric.csv").read_bytes()


def test_all_sections_named():
    assert set(SECTIONS) == {
        "norms",
        "genericity",
        "epsilon",
        "weyl",
        "lattice",
        "cocycle",
        "convolution",
        "omega",
        "algebra",
    }


def test_report_json_matches_golden_output(capsysbinary):
    # each golden was recorded from `python -m sl8hecke.cli --q Q --variant V
    # --seed S --format F report`; any byte of drift is a behaviour change.
    # q = 9 covers an F_{p^2} field, a non-zero seed and a single-variant run,
    # where the section-wide checks take the parahoric context; the text
    # golden pins the text header and lines.
    for name, q, variant, seed, fmt in (
        ("report-q5-seed0.json", "5", "both", "0", "json"),
        ("report-q9-parahoric-seed1.json", "9", "parahoric", "1", "json"),
        ("report-q5-seed0.txt", "5", "both", "0", "text"),
    ):
        assert main(["--q", q, "--variant", variant, "--seed", seed, "--format", fmt, "report"]) == 0
        assert capsysbinary.readouterr().out == (DATA / name).read_bytes(), name


def test_verify_runs_exactly_the_report_checks_of_its_section(capsysbinary):
    golden = [c["id"] for c in json.loads((DATA / "report-q5-seed0.json").read_bytes())["checks"]]
    assert len(golden) == len(set(golden)) == 64
    ran = []
    for section in SECTIONS:
        assert main(["--q", "5", "--variant", "both", "--seed", "0", "--format", "json", "verify", section]) == 0
        checks = json.loads(capsysbinary.readouterr().out)["checks"]
        assert [c["id"] for c in checks] == [i for i in golden if i.startswith(section + ".")]
        assert {c["status"] for c in checks} <= {"pass", "skipped-out-of-scope"}
        ran += checks
    assert [c["id"] for c in ran] == golden


def test_a_row_that_raises_a_verifier_error_fails_and_later_rows_still_run(monkeypatch, capsysbinary):
    # a planted row raises for one variant only: that run fails with the
    # error in `got`, every other row reads as in the golden, the exit code
    # is 1; an exception that is not the verifier's own still propagates
    from sl8hecke import cli
    from sl8hecke.hecke import TransversalError

    def plant(error):
        row = next(r for r in cli.CHECKS if r.id == "convolution.transversal_sizes")

        def check(session, variant):
            if variant == "stabilizer":
                raise error
            return row.check(session, variant)

        monkeypatch.setattr(cli, "CHECKS", tuple(r._replace(check=check) if r is row else r for r in cli.CHECKS))

    golden = json.loads((DATA / "report-q5-seed0.json").read_bytes())
    args = ["--q", "5", "--variant", "both", "--seed", "0", "--format", "json"]
    plant(TransversalError("planted"))
    assert main(args + ["report"]) == 1
    payload = json.loads(capsysbinary.readouterr().out)
    assert [c["id"] for c in payload["checks"]] == [c["id"] for c in golden["checks"]]
    for got, want in zip(payload["checks"], golden["checks"]):
        if got["id"] == "convolution.transversal_sizes.stabilizer":
            assert (got["status"], got["got"]) == ("fail", "TransversalError: planted")
        else:
            assert got == want
    assert payload["summary"]["fail"] == 1

    monkeypatch.undo()
    plant(KeyError("planted"))
    with pytest.raises(KeyError):
        main(args + ["verify", "convolution"])


def test_cocycle_json_matches_golden_output(capsysbinary):
    # recorded from `python -m sl8hecke.cli --q 13 --variant both --seed 0
    # --format json verify cocycle`; the sampled lift families report
    # verdicts only, so the JSON does not depend on which factors are drawn
    golden = DATA / "cocycle-q13-seed0.json"
    args = ["--q", "13", "--variant", "both", "--seed", "0", "--format", "json", "verify", "cocycle"]
    assert main(args) == 0
    assert capsysbinary.readouterr().out == golden.read_bytes()


def test_report_goldens_reproduce_with_numpy_blocked():
    # with `import numpy` made to fail, the report runs every series kernel
    # on the field's tables and still prints each golden byte for byte
    code = "import sys\nsys.modules['numpy'] = None\nfrom sl8hecke.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for name, q, variant, seed in (
        ("report-q5-seed0.json", "5", "both", "0"),
        ("report-q9-parahoric-seed1.json", "9", "parahoric", "1"),
    ):
        run = subprocess.run(
            [sys.executable, "-c", code, "--q", q, "--variant", variant, "--seed", seed, "--format", "json", "report"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == (DATA / name).read_bytes(), name


def test_the_report_bytes_do_not_depend_on_the_hash_salt():
    # a WeylElem hashes as its field tuple, whose word's letters have salted
    # string hashes; whatever order a dict or set takes from them, the
    # report must print the golden's bytes under every salt
    args = ["--q", "5", "--variant", "both", "--seed", "0", "--format", "json", "report"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for salt in ("0", "1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "sl8hecke.cli", *args],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": salt},
            capture_output=True,
            timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, b""), salt
        assert run.stdout == (DATA / "report-q5-seed0.json").read_bytes(), salt


def test_cli_and_omega_at_q13_do_not_import_numpy():
    # no module of the package imports numpy (only the tests' reference
    # convolution does), so importing the CLI and running omega leave it unloaded
    code = (
        "import sys, sl8hecke.cli\n"
        "from sl8hecke import HeckeContext, Tower, make_field\n"
        "assert HeckeContext(Tower(make_field(13), 40)).omega_check()\n"
        "print('numpy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command, algebra, generic",
    [("", False, False)]
    + [(f"verify {s}", False, False) for s in ("norms", "epsilon", "weyl", "lattice", "cocycle", "convolution", "omega")]
    + [
        ("verify genericity", False, True),
        ("verify algebra", True, False),
        ("dump-constants", True, False),
        ("report", True, True),
    ],
)
def test_a_run_loads_only_the_modules_its_rows_call(command, algebra, generic):
    # algebra and generic are imported by the rows that call them, so a command
    # loads them only when it runs those rows ("" only imports the CLI); no
    # module of the package imports dataclasses, and no command loads
    # fractions: generic compares integer valuations, and only tests read
    # LaurentElem.ord
    code = (
        "import sys\n"
        "import sl8hecke.cli\n"
        "code = sl8hecke.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "names = ('dataclasses', 'sl8hecke.algebra', 'sl8hecke.generic', 'fractions')\n"
        "print(code, *(name in sys.modules for name in names), file=sys.stderr)\n"
    )
    argv = ["--q", "5", "--variant", "stabilizer", "--format", "json", *command.split()] if command else []
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == f"0 False {algebra} {generic} False"


@pytest.mark.parametrize("command", ["report", "verify genericity"])
@pytest.mark.parametrize("q", ["5", "13"])
def test_the_genericity_rows_load_neither_fractions_nor_decimal(q, command):
    # the valuations are integers in quarters of ord(t), and the witnesses'
    # ords are exact in F, so neither module is imported
    code = (
        "import sys\n"
        "import sl8hecke.cli\n"
        "code = sl8hecke.cli.main(sys.argv[1:])\n"
        "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules, file=sys.stderr)\n"
    )
    argv = ["--q", q, "--variant", "both", "--format", "json", *command.split()]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "0 False False"


@pytest.mark.parametrize(
    "command, cocycle, lattice",
    [("", False, False)]
    + [(f"verify {s}", False, False) for s in ("norms", "genericity", "epsilon", "convolution", "omega")]
    + [(f"verify {s}", True, False) for s in ("weyl", "cocycle", "algebra")]
    + [
        ("verify lattice", False, True),
        ("dump-constants", True, False),
        # the lattice row runs in the report's forked worker, not in this process
        ("report", True, False),
    ],
)
def test_cocycle_lattice_and_reference_load_only_where_called(command, cocycle, lattice):
    # the rows import cocycle and lattice where they call them; reference holds
    # matrix oracles and samplers, which no command calls
    code = (
        "import sys\n"
        "import sl8hecke.cli\n"
        "code = sl8hecke.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "names = ('sl8hecke.cocycle', 'sl8hecke.lattice', 'sl8hecke.reference')\n"
        "print(code, *(name in sys.modules for name in names), file=sys.stderr)\n"
    )
    argv = ["--q", "5", "--variant", "both", "--format", "json", *command.split()] if command else []
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == f"0 {cocycle} {lattice} False"


# Whether the matrix model and the long-series kernels are loaded, each as
# (its module is imported, its code is defined in some module of the package):
# loaded in their own modules, both read True, and never loaded, both False
LOADED_CODE = (
    "mods = [m for name, m in list(sys.modules.items()) if name.startswith('sl8hecke') and m]\n"
    "defined = lambda name: any(name in vars(m) for m in mods)\n"
    "print(*('sl8hecke.matrices' in sys.modules, defined('GroupElem')), "
    "*('sl8hecke.series' in sys.modules, defined('random_unit')), file=sys.stderr)\n"
)


def _loaded_code(prelude: str, argv=()) -> list[str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys\n" + prelude + LOADED_CODE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stderr.splitlines()[-1].split()


@pytest.mark.parametrize("q", ["5", "13"])
@pytest.mark.parametrize(
    "command, matrices, series",
    [(f"verify {s}", False, False) for s in ("omega", "convolution", "epsilon", "lattice")]
    + [
        ("verify norms", False, True),
        ("verify genericity", False, True),
        ("verify weyl", True, True),
        # the cocycle table and the commutator row read the lifts' terms
        ("verify cocycle", False, False),
        ("verify algebra", False, False),
        ("dump-constants", False, False),
        # the forked worker's sections load neither; the parent's rows load both
        ("report", True, True),
    ],
)
def test_the_matrix_model_and_the_series_kernels_load_only_where_called(q, command, matrices, series):
    # omega and the convolution rows read exact monomial terms and residues,
    # so they run without either; the rows that take a matrix or an element of
    # more than one term import its module where they call it
    prelude = "import sl8hecke.cli\nassert sl8hecke.cli.main(sys.argv[1:]) == 0\n"
    argv = ["--q", q, "--variant", "both", "--format", "json", *command.split()]
    assert _loaded_code(prelude, argv) == [str(matrices)] * 2 + [str(series)] * 2


@pytest.mark.parametrize("q", [5, 13])
def test_set_up_loads_neither_the_matrix_model_nor_the_series_kernels(q):
    # what a run builds before its first check: the CLI, the field, the tower
    # and one Hecke context per variant
    prelude = (
        "import sl8hecke.cli\n"
        "from sl8hecke import PARAHORIC, STABILIZER, HeckeContext, Tower, make_field\n"
        f"tower = Tower(make_field({q}), 40)\n"
        "contexts = [HeckeContext(tower, v) for v in (STABILIZER, PARAHORIC)]\n"
    )
    assert _loaded_code(prelude) == ["False"] * 4


def test_moved_names_still_resolve_from_their_old_modules():
    # the acceptance tests and the benchmark's probe read these names from the
    # modules that held them before cocycle, lattice and reference; each
    # resolves to the object of its new home and is then an ordinary global
    import importlib

    from sl8hecke import cocycle, lattice, matrices, reference, series

    moved = [
        ("sl8hecke", cocycle, ("CocycleTable", "nontriviality_certificate")),
        (
            "sl8hecke.hecke",
            cocycle,
            ("CocycleTable", "nontriviality_certificate", "perturbed_table", "multiplicative_family_search"),
        ),
        ("sl8hecke.groupmodel", reference, ("iwahori_decompose", "random_KM0", "random_K0")),
        ("sl8hecke.weyl", lattice, ("lattice_check",)),
        ("sl8hecke", matrices, ("GroupElem", "TorusElem", "lift")),
        (
            "sl8hecke.groupmodel",
            matrices,
            (
                "GroupElem", "TorusElem", "Monomial", "identity", "torus", "elem_s", "elem_s_prime", "elem_z",
                "elem_eps", "commutator", "in_g0", "in_iwahori", "_residue_condition", "in_K0", "in_KM0",
                "rho_M0", "rho0", "monomial_matrix", "monomial_terms", "_ordn",
            ),
        ),
        ("sl8hecke.weyl", matrices, ("lift", "lift_inverse", "_memo", "h_M0")),
        ("sl8hecke.hecke", matrices, ("coset_key", "_quotient_digits", "in_K0", "monomial_terms", "lift")),
        ("sl8hecke.tower", series, ("norm_unit_image_check", "random_unit", "random_element")),
    ]
    for old, home, names in moved:
        module = importlib.import_module(old)
        for name in names:
            assert getattr(module, name) is getattr(home, name), (old, name)
            assert vars(module)[name] is getattr(home, name), (old, name)
        with pytest.raises(AttributeError):
            getattr(module, "monomial_part")
    for path in (Path(__file__).parent / "test_acceptance.py", Path(__file__).parents[1] / "scripts" / "explore_lift_families.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("sl8hecke"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)


def test_main_in_process_freezes_nothing(capsysbinary):
    # the entry point freezes the heap for a process that is about to exit;
    # main, which tests and the benchmark's probe call in process, does not
    before = gc.get_freeze_count()
    assert main(["--q", "5", "--variant", "stabilizer", "verify", "epsilon"]) == 0
    assert main(["--q", "7", "report"]) == 2
    assert gc.get_freeze_count() == before
    capsysbinary.readouterr()


def test_the_module_prints_the_report_bytes_through_a_pipe():
    # python -m sl8hecke.cli exits through the entry point, whose frozen heap
    # is not torn down; its stdout must still be flushed whole
    args = ["--q", "5", "--variant", "both", "--seed", "1", "--format", "json", "report"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sl8hecke.cli", *args],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == emit(run_all(Config(variant="both", seed=1)), "json")


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["--q", "7", "report"], 2, False),
        (["--q", "5", "--format", "json", "verify", "lattice"], 1, True),
    ],
    ids=["configuration-error", "failing-row"],
)
def test_the_entry_point_exits_with_main_s_code_and_freezes(argv, code, stdout):
    # a configuration error exits 2; a planted failing row exits 1 with its
    # report; either way the entry point froze the heap before returning
    script = (
        "import gc, sys\n"
        "from sl8hecke import cli\n"
        "from sl8hecke.hecke import TransversalError\n"
        "def check(session, variant):\n"
        "    raise TransversalError('planted')\n"
        "cli.CHECKS = tuple(r._replace(check=check) if r.id == 'lattice.image_identity' else r for r in cli.CHECKS)\n"
        "code = cli.entry(sys.argv[1:])\n"
        "print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == code
    assert run.stderr.splitlines()[-1] == b"frozen True"
    if stdout:
        checks = json.loads(run.stdout)["checks"]
        assert [(c["status"], c["got"]) for c in checks] == [("fail", "TransversalError: planted")]
    else:
        assert run.stdout == b"" and b"configuration error" in run.stderr


SAMPLERS = ("random_K0", "random_KM0", "perturbed_table", "sz_perturbed_table", "multiplicative_family_search")


def test_cli_binds_no_sampler():
    import sl8hecke.cli as cli

    assert not set(SAMPLERS) & set(vars(cli))


def test_report_runs_without_samplers_or_series_inversion(monkeypatch, capsysbinary):
    # the weyl and cocycle rows read residue certificates: with every sampler,
    # the matrix mu and commutator of perturbed families and the series
    # inverse (every series division goes through it) made to raise, the
    # report still passes with the goldens' ids and statuses
    from sl8hecke import cocycle, groupmodel, hecke, reference
    from sl8hecke.residue import ResidueField

    def forbidden(*args, **kwargs):
        raise AssertionError("the report called a sampler or a series inversion")

    for module in (groupmodel, hecke, cocycle, reference):
        for name in SAMPLERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(reference.PerturbedCocycleTable, "_compute_mu", forbidden)
    monkeypatch.setattr(reference.PerturbedCocycleTable, "_commutator_rho", forbidden)
    monkeypatch.setattr(ResidueField, "series_inverse", forbidden)

    def verdicts(payload):
        return [(c["id"], c["status"]) for c in json.loads(payload)["checks"]]

    both = verdicts((DATA / "report-q5-seed0.json").read_bytes())
    for name, q, variant, seed in (
        ("report-q5-seed0.json", "5", "both", "0"),
        (None, "9", "both", "0"),
        ("report-q9-parahoric-seed1.json", "9", "parahoric", "1"),
    ):
        assert main(["--q", q, "--variant", variant, "--seed", seed, "--format", "json", "report"]) == 0
        out = capsysbinary.readouterr().out
        assert verdicts(out) == (both if name is None else verdicts((DATA / name).read_bytes()))


def test_a_report_builds_matrices_only_in_the_rho0_certificate(monkeypatch, capsysbinary):
    # the cocycle table, beta and the commutator row read the lifts' terms;
    # the rho0 certificate's witnesses are not monomials, so every matrix a
    # report builds is built under it (the run is serial, so the worker's
    # sections are counted too)
    from sl8hecke import cocycle, matrices

    certificate, new, callers = cocycle.rho0_certificate.__code__, matrices.GroupElem.__new__, []

    def counting(cls, *args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not certificate:
            frame = frame.f_back
        callers.append(frame is not None)
        return new(cls, *args)

    monkeypatch.setattr(matrices.GroupElem, "__new__", counting)
    assert serial(monkeypatch, lambda: main(["--q", "5", "--variant", "both", "--format", "json", "report"])) == 0
    capsysbinary.readouterr()
    assert callers and all(callers)


def plant(monkeypatch, row_id, check):
    """Replace the check of one report row for the rest of the test."""
    from sl8hecke import cli

    monkeypatch.setattr(cli, "CHECKS", tuple(r._replace(check=check) if r.id == row_id else r for r in cli.CHECKS))


def serial(monkeypatch, run):
    """run() on a host without os.fork: every section runs in this process."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return run()


def assert_no_child():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_sections_are_report_sections():
    assert set(WORKER_SECTIONS) < set(SECTIONS)


@pytest.mark.parametrize("q", [5, 9, 13])
def test_the_forked_report_matches_the_serial_one(q, monkeypatch):
    # the report forks one worker for epsilon, lattice, convolution and omega;
    # its JSON and text are the bytes of the run without os.fork
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for variant in ("stabilizer", "parahoric", "both"):
        for seed in (0, 1):
            cfg = Config(q=q, variant=variant, seed=seed)
            forked = run_all(cfg)
            alone = serial(monkeypatch, lambda: run_all(cfg))
            for fmt in ("json", "text"):
                assert emit(forked, fmt) == emit(alone, fmt), (variant, seed, fmt)
    assert len(forks) == 6
    assert_no_child()


def test_a_worker_row_that_raises_fails_the_run_and_leaves_no_child(monkeypatch, capsysbinary):
    def check(session, variant):
        raise RuntimeError("planted")

    plant(monkeypatch, "omega.window", check)
    with pytest.raises(RuntimeError, match="planted"):
        run_all(Config())
    assert_no_child()
    with pytest.raises(RuntimeError, match="planted"):
        main(["--q", "5", "--format", "json", "report"])
    assert capsysbinary.readouterr().out == b""
    assert_no_child()


def test_a_worker_that_dies_fails_the_run(monkeypatch):
    parent = os.getpid()

    def check(session, variant):
        if os.getpid() != parent:
            os._exit(3)
        return True, True

    plant(monkeypatch, "omega.window", check)
    with pytest.raises(RuntimeError, match="worker died"):
        run_all(Config())
    assert_no_child()


def test_a_parent_row_that_raises_reaps_the_worker(monkeypatch):
    def check(session, variant):
        raise RuntimeError("planted")

    plant(monkeypatch, "norms.canonical_generator", check)
    with pytest.raises(RuntimeError, match="planted"):
        run_all(Config())
    assert_no_child()


def test_a_raising_worker_row_exits_1_with_its_traceback_and_no_report():
    code = (
        "import sys\n"
        "from sl8hecke import cli\n"
        "def check(session, variant):\n"
        "    raise RuntimeError('planted')\n"
        "cli.CHECKS = tuple(r._replace(check=check) if r.id == 'omega.window' else r for r in cli.CHECKS)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, "--q", "5", "--format", "json", "report"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 1
    assert run.stdout == b""
    assert b"RuntimeError: planted" in run.stderr


def test_a_verifier_error_in_a_worker_row_is_the_serial_failing_row(monkeypatch):
    from sl8hecke.hecke import ClassificationError

    def check(session, variant):
        raise ClassificationError("planted")

    plant(monkeypatch, "omega.window", check)
    forked = run_all(Config())
    assert emit(forked, "json") == emit(serial(monkeypatch, lambda: run_all(Config())), "json")
    failed = [(c.id, c.got) for c in forked.checks if c.status == "fail"]
    assert failed == [(f"omega.window.{v}", "ClassificationError: planted") for v in ("stabilizer", "parahoric")]


@pytest.mark.parametrize(
    "read, want",
    [
        (lambda s: s.rng.random(), lambda seed: random.Random(f"{seed}:lattice.image_identity").random()),
        (lambda s: s.once("planted", lambda: 7), lambda seed: 7),
        (lambda s: s.table("stabilizer").beta(W_S, W_Z), lambda seed: -1),
    ],
    ids=["rng", "once", "table"],
)
def test_a_worker_row_that_reads_the_seeded_state_matches_the_serial_run(read, want, monkeypatch):
    # a worker row may draw samples and read the session's memo: its stream
    # is keyed by the seed and its id, and the memo's values (the cocycle
    # tables among them) are built in the worker, so the forked report is
    # the serial one
    def check(session, variant):
        return "", repr(read(session))

    plant(monkeypatch, "lattice.image_identity", check)
    for seed in (0, 1):
        forked = run_all(Config(seed=seed))
        assert emit(forked, "json") == emit(serial(monkeypatch, lambda: run_all(Config(seed=seed))), "json")
        got = next(c.got for c in forked.checks if c.id == "lattice.image_identity")
        assert got == repr(want(seed))
    assert_no_child()


# the rows that draw samples
SAMPLED_ROWS = (
    "norms.unit_image_quadratic",
    "norms.unit_image_quartic",
    "norms.field_axioms_sample",
    "cocycle.identity",
    "algebra.hecke_associativity",
    "algebra.twisted_associativity",
    "algebra.crossed_associativity",
)

class Recording(random.Random):
    """A copy of a generator that keeps every value it draws."""

    def __init__(self, rng):
        super().__init__(0)
        self.setstate(rng.getstate())
        self.draws = []

    def random(self):
        self.draws.append(super().random())
        return self.draws[-1]

    def getrandbits(self, k):
        self.draws.append(super().getrandbits(k))
        return self.draws[-1]


def record_draws(monkeypatch, config, sections=SECTIONS) -> dict:
    """The values that each sampled row run of run_all(config, sections)
    draws, by its reported id."""
    drawn = {}

    def recorded(row):
        def check(session, variant):
            session.rng = Recording(session.rng)
            try:
                return row.check(session, variant)
            finally:
                drawn[f"{row.id}.{variant}" if row.variants else row.id] = session.rng.draws

        return check

    with monkeypatch.context() as m:
        for row in CHECKS:
            if row.id in SAMPLED_ROWS:
                plant(m, row.id, recorded(row))
        run_all(config, sections)
    return drawn


@pytest.mark.parametrize("seed", [0, 1])
def test_each_sampled_row_draws_the_same_samples_in_a_report_and_in_verify(seed, monkeypatch):
    # a row's samples depend on the seed and its id only: `verify <section>`
    # and a one-variant report replay the samples of the full report
    report = record_draws(monkeypatch, Config(seed=seed))
    variants = ("stabilizer", "parahoric")
    rows = [row for row in CHECKS if row.id in SAMPLED_ROWS]
    assert set(report) == {f"{row.id}.{v}" if row.variants else row.id for row in rows for v in variants}
    assert all(report.values())
    for section in ("norms", "cocycle", "algebra"):
        alone = record_draws(monkeypatch, Config(seed=seed), (section,))
        assert alone == {i: d for i, d in report.items() if i.startswith(section + ".")}, section
    for v in variants:
        one = record_draws(monkeypatch, Config(seed=seed, variant=v))
        assert {i: d for i, d in one.items() if i.endswith("." + v)} == {
            i: d for i, d in report.items() if i.endswith("." + v)
        }, v


def test_a_single_section_and_dump_constants_start_no_process(monkeypatch, capsysbinary):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert main(["--q", "5", "--variant", "both", "verify", "omega"]) == 0
    assert main(["--q", "5", "--variant", "both", "verify", "cocycle"]) == 0
    assert main(["--q", "5", "dump-constants"]) == 0
    capsysbinary.readouterr()
