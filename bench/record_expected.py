"""Record each workload's verdict at the current commit, for seed 0.

    python3 bench/record_expected.py

Writes ``bench/expected/<workload>.json``: the CLI argv, the id and status of
every check in output order, and the sha256 of the JSON output.  ``run.py``
fails any check whose id or status differs from this record; the sha256 is
kept for information only, since a deliberate change of the sampling stream
changes the output bytes but not the verdict.  Re-record only when a change
means to alter a verdict, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, SRC, WORKLOADS, record_verdict

SEED = 0


def main() -> int:
    if not (SRC / "sl8hecke" / "cli.py").is_file():
        print(f"no sl8hecke sources under {SRC}", file=sys.stderr)
        return 2
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        record = record_verdict(workload, SEED)
        with open(EXPECTED / f"{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"{workload.name}: {len(record['checks'])} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
