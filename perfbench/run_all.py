"""Run every workload in BENCHMARK.json for one seed: end-to-end, then traced.

    python3 perfbench/run_all.py [--seed N]

Prints each run's metrics by name and unit (see run.py). Exits non-zero if
any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            print(f"== {workload['name']} --trace {trace}", flush=True)
            code = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)]).returncode
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
