"""Record the output digests that runs with these seeds must reproduce.

    python3 perfbench/record_digests.py [--workload NAME ...] SEED ...

Runs the set-ups and one iteration of each workload (all of them unless
named) for each seed and updates perfbench/digests.json. Only outputs of
operations that succeeded are recorded, so a defective output is never
pinned. Run it from the repository root, and only when outputs are meant
to change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    recorded = json.loads(run.DIGESTS_FILE.read_text()) if run.DIGESTS_FILE.is_file() else {}
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds:
            _, report = run.run_benchmark(workload, seed, 0.0, False, out_dir=None)
            recorded.setdefault(workload, {})[str(seed)] = report["digests"]
            print(workload, seed, len(report["digests"]), "outputs", flush=True)
    run.DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
