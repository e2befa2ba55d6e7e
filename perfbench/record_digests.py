"""Record the reference digest of every report the workloads can produce.

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs every job in each workload's input pool once, untimed, and stores
the digest of its canonical --out report in digests.json, keyed by the
job's command line.  Only a job that meets its known answer gets a
reference; the known-defect jobs have none, and references to jobs no
pool can draw any more are dropped.  Re-record only when a
change to capalg alters report bytes on purpose, and say so in the
change that does it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    digests = {}
    status = 0
    for name in args.workload or list(workloads.WORKLOADS):
        runner = run.Runner(name, 0, deadline=time.monotonic() + 10**9)
        try:
            runner.calibrate()   # job time limits are in reference units
            _, pool = workloads.WORKLOADS[name]
            jobs = pool(workloads.writer(runner.workdir / "inputs"))
            for i, job in enumerate(jobs):
                (outcome,) = runner.batch([job])
                if outcome.failure is None:
                    digests[job.key] = outcome.digest
                else:
                    status = 1
                    print(f"no reference: {job.key}: {outcome.failure}", file=sys.stderr)
                print(f"{name} {i + 1}/{len(jobs)} {outcome.elapsed:.2f}s {job.key}", flush=True)
        finally:
            runner.close()
    merged = run.load_digests() | digests
    with tempfile.TemporaryDirectory() as tmp:
        drawable = {
            job.key
            for _, pool in workloads.WORKLOADS.values()
            for job in pool(workloads.writer(Path(tmp) / "inputs"))
        }
    kept = {key: merged[key] for key in sorted(merged) if key in drawable}
    run.DIGESTS.write_text(json.dumps(kept, indent=0) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
