import json
from pathlib import Path

import pytest

from sl8hecke.cli import (
    Config,
    ConfigError,
    SECTIONS,
    dump_constants,
    emit,
    main,
    run_all,
)


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
    # recorded from `python -m sl8hecke.cli --q 5 --variant both --seed 0
    # --format json report`; any byte of drift is a behaviour change
    golden = Path(__file__).parent / "data" / "report-q5-seed0.json"
    assert main(["--q", "5", "--variant", "both", "--seed", "0", "--format", "json", "report"]) == 0
    assert capsysbinary.readouterr().out == golden.read_bytes()


def test_cocycle_json_matches_golden_output(capsysbinary):
    # recorded from `python -m sl8hecke.cli --q 13 --variant both --seed 0
    # --format json verify cocycle`; the sampled lift families report
    # verdicts only, so the JSON does not depend on which factors are drawn
    golden = Path(__file__).parent / "data" / "cocycle-q13-seed0.json"
    args = ["--q", "13", "--variant", "both", "--seed", "0", "--format", "json", "verify", "cocycle"]
    assert main(args) == 0
    assert capsysbinary.readouterr().out == golden.read_bytes()
