"""Child-process side of the benchmark; ``bench/run.py`` starts it.

    python3 bench/probe.py setup Q VARIANT PRECISION WINDOW_WORDS WINDOW_Z
        Import the CLI and build what a CLI run builds before its first
        check: the residue field, the tower and one HeckeContext per variant.
        Prints one JSON line with ``ready`` (``time.monotonic()`` when done)
        and ``module`` (the file ``sl8hecke`` was imported from).

    python3 bench/probe.py trace OUT_JSON SECTION[,SECTION...] -- CLI_ARGV...
        Wrap the package's public functions with timers (LAYERS below), run
        ``cli.main(CLI_ARGV)`` in this process, and remove the wrappers.
        Then time ``cli.main(CLI_ARGV without its command + ["verify", s])``
        untraced for each listed section.  Writes OUT_JSON: the sha256 and
        exit code of the traced run's output, ``main_done`` (monotonic time
        when the traced run returned), per-name call counts with total and
        self time, event counts, section times, the names that could not be
        wrapped, and the coarse spans (name, start, end, parent).

Both clocks are ``time.monotonic()``, which on Linux is one system-wide
clock, so the parent can subtract its own spawn time from these stamps.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import sys
import time

# (stat name, targets, record spans).  A target is "module:function" or
# "module:Class.method".  Several targets may share one stat name; their
# calls, total and self time then add up.  Total time counts only the
# outermost active call of a stat, so recursion is not counted twice.
LAYERS = (
    ("residue.convolve", ("residue:ResidueField.convolve",), False),
    ("residue.series_inverse", ("residue:ResidueField.series_inverse",), False),
    (
        "residue.vec",
        (
            "residue:ResidueField.vadd",
            "residue:ResidueField.vneg",
            "residue:ResidueField.vmul",
            "residue:ResidueField.vscale",
        ),
        False,
    ),
    ("tower.mul", ("tower:LaurentElem.__mul__",), False),
    ("tower.add", ("tower:LaurentElem.__add__",), False),
    ("tower.inverse", ("tower:LaurentElem.inverse",), False),
    ("tower.galois", ("tower:LaurentElem.galois",), False),
    ("tower.norm_to_F", ("tower:LaurentElem.norm_to_F",), False),
    ("tower.trace_to_F", ("tower:LaurentElem.trace_to_F",), False),
    ("groupmodel.mul", ("groupmodel:GroupElem.__mul__",), False),
    ("groupmodel.inverse", ("groupmodel:GroupElem.inverse",), False),
    ("groupmodel.iwahori_decompose", ("groupmodel:iwahori_decompose",), False),
    ("groupmodel.monomial_part", ("groupmodel:monomial_part",), False),
    ("groupmodel.in_K0", ("groupmodel:in_K0",), False),
    ("groupmodel.in_KM0", ("groupmodel:in_KM0",), False),
    ("groupmodel.rho", ("groupmodel:rho0", "groupmodel:rho_M0"), False),
    ("groupmodel.random_KM0", ("groupmodel:random_KM0",), True),
    ("groupmodel.random_K0", ("groupmodel:random_K0",), True),
    ("weyl.lift", ("weyl:lift", "weyl:lift_inverse"), False),
    ("weyl.checks", ("weyl:group_structure_check", "weyl:lattice_check"), True),
    ("hecke.coset_reps", ("hecke:HeckeContext.coset_reps_with_inverses",), True),
    ("hecke.phi", ("hecke:HeckeContext.phi",), False),
    ("hecke.convolve_at", ("hecke:HeckeContext.convolve_at",), True),
    ("hecke.double_coset_product", ("hecke:HeckeContext.double_coset_product",), True),
    ("hecke.mu", ("hecke:CocycleTable.mu",), False),
    ("hecke.beta", ("hecke:CocycleTable.beta",), True),
    ("algebra.mul", ("algebra:hecke_mul", "algebra:twisted_mul", "algebra:crossed_mul"), False),
    ("generic.check_ge1", ("generic:check_ge1",), True),
    ("cli.emit", ("cli:emit",), True),
)

PACKAGE = "sl8hecke"


def _supp_class(x) -> str:
    supp = getattr(x, "supp", None)
    return "mono" if isinstance(supp, int) and supp <= 1 else "poly"


def _count_mul(counts, args):
    kinds = sorted((_supp_class(args[0]), _supp_class(args[1])))
    key = f"tower.mul.{kinds[0]}_{kinds[1]}.calls"
    counts[key] = counts.get(key, 0) + 1


def _count_inverse(counts, args):
    key = "tower.inverse.mono.calls" if _supp_class(args[0]) == "mono" else "tower.inverse.series.calls"
    counts[key] = counts.get(key, 0) + 1


def _count_reps_build(counts, args):
    # a transversal is built when its word is not yet memoised on the context
    memo = getattr(args[0], "_reps", None)
    if isinstance(memo, dict) and getattr(args[1], "word", None) not in memo:
        counts["hecke.coset_reps.builds"] = counts.get("hecke.coset_reps.builds", 0) + 1


def _count_mu_hit(counts, args):
    memo = getattr(args[0], "_mu", None)
    if isinstance(memo, dict) and (args[1], args[2]) in memo:
        counts["hecke.mu.hits"] = counts.get("hecke.mu.hits", 0) + 1


def _count_phi_nonzero(counts, result):
    is_zero = getattr(result, "is_zero", None)
    if callable(is_zero) and not is_zero():
        counts["hecke.phi.nonzero"] = counts.get("hecke.phi.nonzero", 0) + 1


# Counters taken before a call (from its arguments) or after it (from its result).
BEFORE = {
    "tower.mul": _count_mul,
    "tower.inverse": _count_inverse,
    "hecke.coset_reps": _count_reps_build,
    "hecke.mu": _count_mu_hit,
}
AFTER = {"hecke.phi": _count_phi_nonzero}


class Tracer:
    """Timing wrappers around package functions, and what they recorded."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, active depth]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.absent: list[str] = []
        self._frames: list[list] = []  # per active call: [child time]
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._precision_error = None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        tower = importlib.import_module(f"{PACKAGE}.tower")
        self._precision_error = getattr(tower, "PrecisionExhausted", None)
        for name, targets, keep_spans in LAYERS:
            for target in targets:
                if not self._wrap_target(name, target, keep_spans):
                    self.absent.append(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_target(self, name: str, target: str, keep_spans: bool) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return False
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(original):
                return False
            self._patch(cls, attr, self.wrap(name, original, keep_spans))
            return True
        original = getattr(module, qualname, None)
        if not callable(original):
            return False
        wrapper = self.wrap(name, original, keep_spans)
        # other modules bound the function by name at import; rebind those too
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
        return True

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, keep_spans: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counts = self.counts
        frames = self._frames
        spans = self.spans
        open_spans = self._open_spans
        before = BEFORE.get(name)
        after = AFTER.get(name)
        count_errors = name.startswith("tower.") and self._precision_error is not None
        precision_error = self._precision_error
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args)
            frame = [0.0]
            frames.append(frame)
            stat[3] += 1
            if keep_spans:
                span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
                open_spans.append(len(spans))
                spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each precision failure once, where it is first raised
                if count_errors and isinstance(exc, precision_error) and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counts["tower.precision_exhausted.count"] = counts.get("tower.precision_exhausted.count", 0) + 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += elapsed
                if keep_spans:
                    span[1], span[2] = start, end
                    open_spans.pop()
            if after is not None:
                after(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def open_span(self, name: str) -> float:
        """Open a span timed here rather than by a wrapper; returns its start."""
        parent = self._open_spans[-1] if self._open_spans else -1
        self._open_spans.append(len(self.spans))
        start = time.monotonic()
        self.spans.append([name, start, start, parent])
        return start

    def close_span(self) -> float:
        end = time.monotonic()
        self.spans[self._open_spans.pop()][2] = end
        return end


def run_cli(cli, argv) -> tuple[int, bytes]:
    """Run cli.main(argv) in this process; returns (exit code, stdout bytes)."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    saved, sys.stdout = sys.stdout, stream
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = saved
        stream.flush()
        stream.detach()  # keeps the buffer open when the wrapper is collected
    return code, buffer.getvalue()


def setup(q: int, variant: str, precision: int, window_words: int, window_z: int) -> None:
    import random

    importlib.import_module(f"{PACKAGE}.cli")
    pkg = importlib.import_module(PACKAGE)
    field = pkg.make_field(q)
    tower = pkg.Tower(field, precision)
    variants = (pkg.STABILIZER, pkg.PARAHORIC) if variant == "both" else (variant,)
    contexts = [
        pkg.HeckeContext(tower, v, window_words=window_words, window_z=window_z, rng=random.Random(0))
        for v in variants
    ]
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "module": pkg.__file__, "contexts": len(contexts)}))


def trace(out_path: str, sections: list[str], argv: list[str]) -> None:
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    try:
        start = tracer.open_span("cli.main")
        code, output = run_cli(cli, argv)
        main_done = tracer.close_span()
    finally:
        tracer.uninstall()
    flags = argv[: argv.index("report")] if "report" in argv else argv[: argv.index("verify")]
    section_s = {}
    section_exit = {}
    for section in sections:
        t0 = tracer.open_span(f"cli.section.{section}")
        section_exit[section], _ = run_cli(cli, flags + ["verify", section])
        section_s[section] = tracer.close_span() - t0
    result = {
        "exit": code,
        "sha256": hashlib.sha256(output).hexdigest(),
        "main_start": start,
        "main_done": main_done,
        "stats": {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]} for name, s in tracer.stats.items()
        },
        "counts": tracer.counts,
        "absent": tracer.absent,
        "section_s": section_s,
        "section_exit": section_exit,
        "spans": [[n, a - start, b - start, p] for n, a, b, p in tracer.spans],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 6:
        q, variant, precision, words, zexp = argv[1:]
        setup(int(q), variant, int(precision), int(words), int(zexp))
        return 0
    if mode == "trace" and len(argv) >= 4 and argv[3] == "--":
        trace(argv[1], [s for s in argv[2].split(",") if s], argv[4:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
