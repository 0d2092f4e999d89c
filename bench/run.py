"""End-to-end benchmark of the sl8hecke verifier.  Run it from the repository root:

    python3 bench/run.py --workload report-q5 --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all             # every workload, untraced then traced

``BENCHMARK.json`` declares report-q5 and omega-q13.  cocycle-q13 can be run
by name or with ``all``; it is left out of ``BENCHMARK.json`` so that the
declared workloads fit 60-second runs in the time a full measurement may take.

Untraced (--trace 0).  One client runs the workload's CLI command as a fresh
``python -m sl8hecke.cli ... --format json`` process, the next one only after
the last exits (a closed loop), within --seconds: another round (set-up
probes, a calibration, one CLI process) starts only while it would end
inside the window at the median round duration so far.

``wall_s`` (spawn to exit), ``cpu_s`` (user plus system CPU) and
``peak_rss_mb`` are medians over the run's CLI processes.

Before each CLI process, SETUP_PER_PROCESS set-up probes (after one warm-up
probe) import the CLI and build the field, tower and Hecke contexts, and a
fixed calibration loop (``calibrate``, no sl8hecke code) runs right after
them.  ``setup_s`` is the median of the probes' times (spawn until set-up is
done), each multiplied by CAL_REF_S over that calibration: seconds at a
reference speed.  On a shared host the CPU speed shifts by up to 2x in
phases of seconds to minutes, and raw set-up medians of two sets of ten runs
differed by a third; a probe and the calibration next to it land in the
same phase, and the normalised medians of six sets agreed within 6%.  The
raw times and the calibrations are in the record.  The CLI processes are
not normalised: each spans many phases, so calibrations at its ends did not
track its speed.

Every check of every CLI process is compared with the verdict recorded in
``bench/expected/<workload>.json``; a changed status, a changed or missing
id, a non-zero exit or unparsable output fails the check.
``check_pass_share`` is the share of checks that did not fail.

Traced (--trace 1).  One untraced process as above, then one process that
runs the same command through ``cli.main`` with timing wrappers around the
package's layers (see ``bench/probe.py``), followed by an untraced ``verify``
of each section the command covers.  The traced output must equal the
untraced output byte for byte.  ``trace.overhead_s`` is the traced wall time
minus the untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record: environment, argv, per-process samples and digests.  The record is
also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"

SECTIONS = ("norms", "genericity", "epsilon", "weyl", "lattice", "cocycle", "convolution", "omega", "algebra")
# the CLI's defaults, which the workloads' commands use
PRECISION = 40
WINDOW_WORDS = 4
WINDOW_Z = 2
SETUP_PER_PROCESS = 2
# duration of calibrate() on an unloaded 2-core Xeon (Python 3.11, numpy 2.4)
CAL_REF_S = 0.2
# a run must end within 180 s; any child still running this long after the start is killed
CHILD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    variant: str
    command: tuple[str, ...]

    def argv(self, seed: int) -> list[str]:
        return ["--q", str(self.q), "--variant", self.variant, "--seed", str(seed), "--format", "json", *self.command]

    def sections(self) -> tuple[str, ...]:
        return SECTIONS if self.command == ("report",) else self.command[1:]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-q5", 5, "both", ("report",)),
        Workload("omega-q13", 13, "stabilizer", ("verify", "omega")),
        Workload("cocycle-q13", 13, "both", ("verify", "cocycle")),
    )
}


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(args: list[str], deadline: float) -> tuple[Sample, float]:
    """Run one child to completion; returns its sample and its spawn time."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(max(1.0, deadline - start), proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4 rather than Popen.wait: it returns the child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        out,
        err[0] if err else b"",
    )
    return sample, start


def record_verdict(workload: Workload, seed: int) -> dict:
    """The verdict of one CLI run, in the form ``bench/expected/`` keeps."""
    sample, _ = spawn(cli_args(workload, seed), time.monotonic() + CHILD_DEADLINE_S)
    if sample.returncode != 0:
        raise BenchError(f"{workload.name} exited {sample.returncode}:\n{sample.stderr.decode(errors='replace')}")
    return {
        "argv": ["python", *cli_args(workload, seed)],
        "seed": seed,
        "sha256": sha256(sample.stdout),
        "checks": [[c["id"], c["status"]] for c in json.loads(sample.stdout)["checks"]],
    }


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def verdict(sample: Sample, expected: dict) -> tuple[int, int]:
    """(checks attempted, checks failed) of one CLI process against the recorded verdict."""
    want = {cid: status for cid, status in expected["checks"]}
    try:
        got = {c["id"]: c["status"] for c in json.loads(sample.stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    if sample.returncode != 0:
        return len(want), len(want)
    ids = want.keys() | got.keys()
    return len(ids), sum(1 for cid in ids if want.get(cid) != got.get(cid))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout, or one nested in another repository
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: Workload, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "argv": ["python", "-m", "sl8hecke.cli", *workload.argv(seed)],
    }


def time_setup(workload: Workload, deadline: float) -> float:
    """Seconds from spawn until a set-up probe is ready."""
    args = [str(BENCH / "probe.py"), "setup", str(workload.q), workload.variant, str(PRECISION), str(WINDOW_WORDS), str(WINDOW_Z)]
    sample, start = spawn(args, deadline)
    if sample.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{sample.stderr.decode(errors='replace')}")
    ready = json.loads(sample.stdout)
    module = Path(ready["module"]).resolve()
    if SRC.resolve() not in module.parents:
        raise BenchError(f"sl8hecke was imported from {module}, not from {SRC}")
    return ready["ready"] - start


def calibrate() -> float:
    """Seconds for a fixed loop of Python arithmetic and small numpy products,
    the kinds of work sl8hecke does, but no sl8hecke code."""
    import numpy

    arr = numpy.arange(40, dtype=numpy.int64)
    start = time.perf_counter()
    acc = 0
    for k in range(1_200_000):
        acc += k * k % 7
    for _ in range(24_000):
        numpy.convolve(arr, arr) % 13
    return time.perf_counter() - start


def cli_args(workload: Workload, seed: int) -> list[str]:
    return ["-m", "sl8hecke.cli", *workload.argv(seed)]


def run_untraced(workload: Workload, seed: int, seconds: float, expected: dict, deadline: float) -> tuple[dict, dict]:
    time_setup(workload, deadline)  # warm-up: compiles the sources' bytecode once
    setup: list[tuple[float, float]] = []  # (raw seconds, speed factor) per probe
    samples: list[Sample] = []
    rounds: list[float] = []
    calibration: list[float] = []
    start = time.monotonic()
    # start another round only while it is expected to end inside the window
    while not rounds or time.monotonic() - start + statistics.median(rounds) < seconds:
        round_start = time.monotonic()
        probes = [time_setup(workload, deadline) for _ in range(SETUP_PER_PROCESS)]
        calibration.append(calibrate())
        setup += [(p, CAL_REF_S / calibration[-1]) for p in probes]
        samples.append(spawn(cli_args(workload, seed), deadline)[0])
        rounds.append(time.monotonic() - round_start)
    attempted = failed = 0
    for s in samples:
        a, f = verdict(s, expected)
        attempted, failed = attempted + a, failed + f
    digests = sorted({sha256(s.stdout) for s in samples})
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(raw * f for raw, f in setup),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "check_pass_share": (attempted - failed) / attempted,
    }
    record = {
        "processes": len(samples),
        "setup_repeats": len(setup),
        "setup_s_raw": [raw for raw, _ in setup],
        "setup_s_raw_median": statistics.median(raw for raw, _ in setup),
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "calibration_s": calibration,
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "exit_codes": [s.returncode for s in samples],
        "check_fail_share": failed / attempted,
        "output_sha256": digests,
        "byte_identical": len(digests) == 1,
        "matches_recorded_sha256": digests == [expected["sha256"]] if seed == expected["seed"] else None,
        "stderr": sorted({s.stderr.decode(errors="replace") for s in samples} - {""}),
    }
    summary = {"correct": failed == 0 and len(digests) == 1, "attempted": attempted, "failed": failed}
    return {**summary, "metrics": metrics}, record


def run_traced(workload: Workload, seed: int, expected: dict, deadline: float) -> tuple[dict, dict]:
    untraced = spawn(cli_args(workload, seed), deadline)[0]
    attempted, failed = verdict(untraced, expected)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    args = [str(BENCH / "probe.py"), "trace", str(trace_path), ",".join(workload.sections()), "--", *workload.argv(seed)]
    probe, start = spawn(args, deadline)
    if probe.returncode != 0:
        raise BenchError(f"traced run failed:\n{probe.stderr.decode(errors='replace')}")
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    traced_wall = trace["main_done"] - start
    same_output = trace["sha256"] == sha256(untraced.stdout) and trace["exit"] == untraced.returncode
    sections_ok = all(code == 0 for code in trace["section_exit"].values())
    if not same_output:  # the traced verdict differs from the untraced one
        attempted, failed = attempted + len(expected["checks"]), failed + len(expected["checks"])
    values = layer_values(trace)
    values["trace.overhead_s"] = traced_wall - untraced.wall_s
    values["check_fail_share"] = failed / attempted
    record = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced_wall,
        "output_sha256": sha256(untraced.stdout),
        "traced_output_sha256": trace["sha256"],
        "traced_output_identical": same_output,
        "section_exit": trace["section_exit"],
        "absent": trace["absent"],
        "spans_file": str(trace_path.relative_to(ROOT)),
        "spans": len(trace["spans"]),
    }
    correct = failed == 0 and same_output and sections_ok
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}, record


def layer_values(trace: dict) -> dict:
    """Every per-layer value the trace supports, keyed by metric name."""
    values: dict[str, float] = dict(trace["counts"])
    for name, stat in trace["stats"].items():
        for field in ("calls", "total_s", "self_s"):
            values[f"{name}.{field}"] = stat[field]
    for name, hits in (("hecke.phi.nonzero_share", "hecke.phi.nonzero"), ("hecke.mu.hit_share", "hecke.mu.hits")):
        calls = values.get(name.rsplit(".", 1)[0] + ".calls", 0)
        values[name] = values.get(hits, 0) / calls if calls else 0.0
    for section, seconds in trace["section_s"].items():
        values[f"cli.section.{section}_s"] = seconds
    return values


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: Workload, seed: int, seconds: float, trace: int, expected: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + CHILD_DEADLINE_S
    env = environment(workload, seed)
    if trace:
        result, record = run_traced(workload, seed, expected, deadline)
    else:
        result, record = run_untraced(workload, seed, seconds, expected, deadline)
    units = declared_metrics(trace)
    values = result["metrics"]
    record["not_measured"] = sorted(name for name in units if name not in values)
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    record = {"workload": workload.name, "trace": trace, "env": env, **record, "result": result}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload.name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def print_table(records: list[dict]) -> None:
    for record in records:
        result = record["result"]
        print(f"{record['workload']} trace={record['trace']} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
        if not record["trace"]:
            rows += [
                ("setup_s (raw median)", record["setup_s_raw_median"], "s"),
                ("check_fail_share", record["check_fail_share"], "share"),
            ]
        for metric, value, unit in rows:
            print(f"  {metric:36s} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sl8hecke" / "cli.py").is_file():
        print(f"no sl8hecke sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            records = [
                run(WORKLOADS[name], args.seed, args.seconds, trace, load_expected(name))[1]
                for name in WORKLOADS
                for trace in (0, 1)
            ]
            print_table(records)
            return 0 if all(r["result"]["correct"] for r in records) else 1
        workload = WORKLOADS[args.workload]
        result, record = run(workload, args.seed, args.seconds, args.trace, load_expected(workload.name))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
