#!/usr/bin/env python3
"""Record the expected campaign output digests.

Usage (from the repository root)::

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each campaign workload once (seed 0), in a fresh process, and
rewrites its entry in ``expected_digests.json``.
Only do this when a change is meant to alter campaign outputs; the
benchmark counts any other digest change as an output mismatch.
"""

import json
import shutil
import sys

import run

PATH = run.HERE / "expected_digests.json"


def main(argv) -> int:
    workloads = argv or [name for name in run.WORKLOADS
                         if name.startswith("campaign_")]
    digests = json.loads(PATH.read_text()) if PATH.exists() else {}
    work = run.ROOT / ".bench_out" / "record"
    for workload in workloads:
        shutil.rmtree(work, ignore_errors=True)
        _, result = run.run_campaign_child(workload, 0, False, work)
        if result is None:
            print(f"{workload} failed", file=sys.stderr)
            return 1
        digests[workload] = result["digest"]
        print(f"{workload} {result['digest']} {result['wall_s']:.1f} s",
              flush=True)
        PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(run.ROOT / ".bench_out", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
