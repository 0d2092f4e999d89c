import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl8hecke.cli import (
    Config,
    ConfigError,
    SECTIONS,
    WORKER_SECTIONS,
    dump_constants,
    emit,
    main,
    run_all,
    sampled,
)

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
    capsys.readouterr()


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
    # --seed S --format json report`; any byte of drift is a behaviour change.
    # q = 9 covers an F_{p^2} field, a non-zero seed and a single-variant run,
    # where the section-wide checks take the parahoric context.
    for name, q, variant, seed in (
        ("report-q5-seed0.json", "5", "both", "0"),
        ("report-q9-parahoric-seed1.json", "9", "parahoric", "1"),
    ):
        assert main(["--q", q, "--variant", variant, "--seed", seed, "--format", "json", "report"]) == 0
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


def test_sampled_draws_every_sample_even_after_a_failure():
    drawn = []

    def draw():
        drawn.append(len(drawn))
        return (drawn[-1],)

    assert not sampled(7, draw, lambda i: i > 0)
    assert drawn == list(range(7))
    assert sampled(3, lambda: (1, 1), lambda a, b: a == b)


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
    # module of the package imports dataclasses, and fractions is loaded only
    # for generic, whose valuations are the one reader of LaurentElem.ord
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
    assert run.stderr.splitlines()[-1] == f"0 False {algebra} {generic} {generic}"


SAMPLERS = ("random_K0", "random_KM0", "perturbed_table", "sz_perturbed_table", "multiplicative_family_search")


def test_cli_binds_no_sampler():
    import sl8hecke.cli as cli

    assert not set(SAMPLERS) & set(vars(cli))


def test_report_runs_without_samplers_or_series_inversion(monkeypatch, capsysbinary):
    # the weyl and cocycle rows read residue certificates: with every sampler,
    # the matrix mu of perturbed families and the series inverse (every series
    # division goes through it) made to raise, the report still passes with
    # the goldens' ids and statuses
    from sl8hecke import groupmodel, hecke
    from sl8hecke.residue import ResidueField

    def forbidden(*args, **kwargs):
        raise AssertionError("the report called a sampler or a series inversion")

    for module in (groupmodel, hecke):
        for name in SAMPLERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(hecke.CocycleTable, "_matrix_mu", forbidden)
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
    "read", [lambda s: s.rng.random(), lambda s: s.once("planted", lambda: 0)], ids=["rng", "once"]
)
def test_a_worker_row_that_reads_the_seeded_state_fails_the_run(read, monkeypatch):
    # a worker section that drew from the seeded stream would shift the
    # parent's samples, so a row that breaks the partition ends the run
    def check(session, variant):
        read(session)
        return True, True

    plant(monkeypatch, "lattice.image_identity", check)
    with pytest.raises(RuntimeError, match="a worker section read Session"):
        run_all(Config())
    assert_no_child()


def test_a_single_section_and_dump_constants_start_no_process(monkeypatch, capsysbinary):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    assert main(["--q", "5", "--variant", "both", "verify", "omega"]) == 0
    assert main(["--q", "5", "--variant", "both", "verify", "cocycle"]) == 0
    assert main(["--q", "5", "dump-constants"]) == 0
    capsysbinary.readouterr()
