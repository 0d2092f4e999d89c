"""Tests of the benchmark itself, on a fast configuration.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402

FAST = run.Workload("convolution-q5", 5, "both", ("verify", "convolution"))


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def expected():
    return run.record_verdict(FAST, 0)


def deadline() -> float:
    return time.monotonic() + run.CHILD_DEADLINE_S


def test_expected_files_cover_every_workload():
    for name, workload in run.WORKLOADS.items():
        recorded = run.load_expected(name)
        assert recorded["argv"] == ["python", *run.cli_args(workload, recorded["seed"])]
        assert recorded["checks"] and all(len(c) == 2 for c in recorded["checks"])


def test_untraced_run_emits_every_end_to_end_metric(expected):
    result, record = run.run(FAST, 0, 0.0, 0, expected)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(expected["checks"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert record["not_measured"] == []
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["byte_identical"] and record["matches_recorded_sha256"]
    assert record["env"]["argv"][-2:] == ["verify", "convolution"]


def test_traced_run_matches_untraced_and_emits_every_layer_metric(expected):
    result, record = run.run(FAST, 0, 0.0, 1, expected)
    assert result["correct"], record
    assert record["traced_output_identical"] and record["absent"] == []
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["hecke.convolve_at.calls"] > 0 and values["hecke.phi.calls"] > 0
    assert values["cli.section.convolution_s"] > 0
    assert values["check_fail_share"] == 0


def test_tampered_verdict_fails_checks(expected):
    tampered = copy.deepcopy(expected)
    tampered["checks"][0][1] = "fail"
    result, record = run.run_untraced(FAST, 0, 0.0, tampered, deadline())
    assert not result["correct"]
    assert result["failed"] >= 1 and record["check_fail_share"] > 0
    assert result["metrics"]["check_pass_share"] < 1


def test_renamed_check_fails():
    want = {"checks": [["a", "pass"], ["b", "pass"]]}
    sample = run.Sample(0, 1.0, 1.0, 1.0, json.dumps({"checks": [{"id": "a", "status": "pass"}, {"id": "c", "status": "pass"}]}).encode(), b"")
    assert run.verdict(sample, want) == (3, 2)
    assert run.verdict(run.Sample(1, 1.0, 1.0, 1.0, sample.stdout, b""), want) == (2, 2)
    assert run.verdict(run.Sample(0, 1.0, 1.0, 1.0, b"not json", b""), want) == (2, 2)


def test_missing_targets_are_absent_and_wrappers_are_removed(monkeypatch):
    from sl8hecke.tower import LaurentElem

    original = vars(LaurentElem)["__mul__"]
    layers = probe.LAYERS + (("gone", ("tower:NoSuchClass.f", "tower:no_such_function", "no_such_module:f"), False),)
    monkeypatch.setattr(probe, "LAYERS", layers)
    tracer = probe.Tracer()
    tracer.install()
    try:
        assert vars(LaurentElem)["__mul__"] is not original
    finally:
        tracer.uninstall()
    assert vars(LaurentElem)["__mul__"] is original
    assert tracer.absent == ["tower:NoSuchClass.f", "tower:no_such_function", "no_such_module:f"]


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "omega-q13", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
