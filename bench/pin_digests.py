"""Recompute the pinned sha256 digests of the sweep workloads' records.

    python3 bench/pin_digests.py

Run it from the root of a checkout whose records are known to be right. It
runs every sweep workload for each of PINNED_SEEDS exactly as the benchmark
does and rewrites bench/digests.json. A change that alters records on
purpose (a new column, say) re-pins them with this script and states why.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, Runner
from workloads import WORKLOADS, check_records

PINNED_SEEDS = range(16)


def main() -> int:
    pins: dict[str, dict[str, str]] = {}
    work = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    try:
        for workload in WORKLOADS.values():
            if workload.kind != "sweep":
                continue
            for seed in PINNED_SEEDS:
                runner = Runner(Path(tempfile.mkdtemp(dir=work)))
                _, data = runner.sweep(workload.sweep_argv(seed), "run")
                if data is None or check_records(data.decode(), workload).failed:
                    print(f"error: {workload.name} seed {seed} gave no valid records", file=sys.stderr)
                    return 1
                pins.setdefault(workload.name, {})[str(seed)] = hashlib.sha256(data).hexdigest()
                print(workload.name, seed, pins[workload.name][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
