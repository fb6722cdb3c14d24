"""Record the outputs every benchmark run is checked against.

From the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Runs each workload's job once for every seed of the pool in design.json and
writes ``perfbench/reference.json``: the sweep table and the two summaries,
keyed by traffic seed, together with the configs they were recorded for.
Rerun it only when design.json changes the workloads; a benchmark run
whose configs differ from the recorded ones fails its reference check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.OUT / "work-reference"
    work.mkdir(parents=True, exist_ok=True)
    doc = {"design": run.reference_design()}
    try:
        for name, cls in run.WORKLOADS.items():
            doc[name] = {}
            for seed in range(run.POOL):
                wl = cls(seed, work)
                doc[name][str(seed)] = wl.result(wl.job())
            print(f"recorded {name} for {run.POOL} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
