"""Pin the expected outcome of every benchmark request into ``reference.json``.

usage: python3 perfbench/pin.py

Runs each request of each workload once and stores its exit status, the
sha256 of its stdout and its verdict fields.  Run it only on a commit whose
outputs are trusted: the benchmark counts any later difference as a failure.
Control requests must already fail with exit 2 and an ``error:`` line.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main():
    missing = run.missing_inputs()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    env = run.child_env()
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=run.ROOT / ".bench_tmp"))
    reference = {}
    try:
        inputs = tmp / "inputs"
        inputs.mkdir()
        workloads.write_inputs(run.ROOT / "cones", inputs)
        for workload in workloads.WORKLOADS.values():
            pinned = reference[workload.name] = {}
            for request in workload.requests:
                outcome = run.spawn([sys.executable, "-m", "toricdiff", *request.argv], inputs, env, tmp)
                entry = run.pin(request, outcome)
                failure = run.check(request, outcome, entry)
                if failure or (not request.control and outcome.status != 0):
                    print(f"error: {workload.name} {request.id}: {failure or 'nonzero exit'}", file=sys.stderr)
                    print(outcome.stderr.decode(errors="replace"), file=sys.stderr)
                    return 1
                pinned[request.id] = entry
                print(f"{workload.name:15s} {outcome.wall_s:7.3f}s  {request.id}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
