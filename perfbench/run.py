"""Closed-loop benchmark of the toricdiff command line, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                [--record PATH]

Run from the root of a source checkout.  One client sends one request at a
time; each request is a fresh ``python -m toricdiff ...`` process with
``TORIC_THREADS`` removed from its environment, so the default serial path
is measured.  The workload's menu is shuffled by the seed and run in
complete passes, at least ``MIN_PASSES`` of them, until another pass would
end after ``--seconds``.  Every request's exit status, stdout digest and
verdict fields are checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request twice, plainly and under ``tracer.py``, and reports per-pass layer
self times and counts plus the tracing overhead.  The last stdout line is
the JSON result; ``--record`` also writes a full run record.  The exit
status is 1 when any request failed its check, 1 without a result when no
request's peak RSS exceeds the harness's own, and 2 when the checkout lacks
the program or its corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PER_PASS = 3
MIN_PASSES = {0: 3, 1: 1}
REQUEST_TIMEOUT_S = 30
TAIL_BEYOND = 10
VERDICT_KEYS = ("passed", "agree", "table_hash")


@dataclass
class Outcome:
    wall_s: float
    status: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def child_env():
    env = dict(os.environ)
    env.pop("TORIC_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, cwd, env, scratch):
    """Run one process to completion; wall time is from spawn to reaped exit."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], REQUEST_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return Outcome(wall, proc.returncode, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())


def verdict_of(stdout):
    """The verdict fields of a JSON report; empty for any other output."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return {}
    if not isinstance(data, dict):
        return {}
    return {key: data[key] for key in VERDICT_KEYS if key in data}


def pin(request, outcome):
    """The reference entry that ``check`` compares against."""
    return {
        "status": outcome.status,
        "stdout_sha256": hashlib.sha256(outcome.stdout).hexdigest(),
        "verdict": verdict_of(outcome.stdout),
    }


def check(request, outcome, pinned):
    """None when the outcome matches its pinned reference, else the reason."""
    if pinned is None:
        return "no pinned reference"
    if b"Traceback" in outcome.stderr:
        return "traceback on stderr"
    if outcome.status != pinned["status"]:
        return f"exit status {outcome.status}, pinned {pinned['status']}"
    if request.control and (outcome.status != 2 or b"error:" not in outcome.stderr):
        return "control request did not fail with exit 2 and an error: line"
    if verdict_of(outcome.stdout) != pinned["verdict"]:
        return f"verdict {verdict_of(outcome.stdout)}, pinned {pinned['verdict']}"
    if hashlib.sha256(outcome.stdout).hexdigest() != pinned["stdout_sha256"]:
        return "stdout digest differs from the pinned one"
    return None


def tail_percentile(samples):
    """Highest whole percentile with at least ``TAIL_BEYOND`` of ``samples`` beyond its rank."""
    for q in range(99, 0, -1):
        if samples - math.ceil(q * samples / 100) >= TAIL_BEYOND:
            return q
    raise ValueError(f"{samples} samples leave no percentile with {TAIL_BEYOND} beyond it")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def request_peak_kb(samples):
    """``(largest request peak RSS, the harness's own peak RSS)`` in kB.

    A child's ru_maxrss starts at the RSS of the parent that spawned it, so a
    peak at or below the harness's own says nothing about the program.
    """
    peak_kb = max(s["maxrss_kb"] for s in samples)
    harness_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_kb <= harness_kb:
        raise SystemExit(f"error: peak request RSS {peak_kb} kB does not exceed the harness's own {harness_kb} kB")
    return peak_kb, harness_kb


def time_import(env, cwd, scratch):
    """Wall time of a fresh interpreter importing ``toricdiff.cli``."""
    outcome = spawn([sys.executable, "-c", "import toricdiff.cli"], cwd, env, scratch)
    if outcome.status != 0:
        raise RuntimeError(f"importing toricdiff.cli failed:\n{outcome.stderr.decode()}")
    return outcome.wall_s


def run_record(args, commit):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "commit": commit,
    }


def git_commit():
    """HEAD of the checkout when it is its own git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def missing_inputs():
    needed = [ROOT / "src" / "toricdiff" / "cli.py"]
    needed += [ROOT / "cones" / f"{name}.json" for name in workloads.CORPUS]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name, {})
    menu = workloads.shuffled(workload, args.seed)
    env = child_env()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        inputs = tmp / "inputs"
        inputs.mkdir()
        workloads.write_inputs(ROOT / "cones", inputs)
        time_import(env, inputs, tmp)  # warms the bytecode and file caches
        samples, imports = [], []
        traced_acc, traced_wall, plain_wall = Counter(), 0.0, 0.0
        passes, measured, killed = 0, 0.0, False
        while not killed:
            if not args.trace:
                # spread over the run like the requests, so the median sees slow and fast spells too
                imports += [time_import(env, inputs, tmp) for _ in range(SETUP_PER_PASS)]
            pass_start = time.perf_counter()
            for request in menu:
                argv = [sys.executable, "-m", "toricdiff", *request.argv]
                outcome = spawn(argv, inputs, env, tmp)
                samples.append(sample(request, outcome, reference, passes, traced=False))
                if args.trace:
                    spans = tmp / "spans.bin"
                    spans.unlink(missing_ok=True)
                    traced_argv = [sys.executable, str(HERE / "tracer.py"), str(spans), request.id, "--", *request.argv]
                    traced = spawn(traced_argv, inputs, env, tmp)
                    samples.append(sample(request, traced, reference, passes, traced=True))
                    if spans.exists():  # a killed child writes none; its check fails the run
                        traced_acc.update(layers.request_totals(*layers.read_spans(spans)))
                    plain_wall += outcome.wall_s
                    traced_wall += traced.wall_s
                # a request killed by a signal (the timeout included) fails the run: stop here
                killed = any(s["status"] < 0 for s in samples[-2:])
                if killed:
                    break
            pass_wall = time.perf_counter() - pass_start
            passes += 1
            measured += pass_wall
            if passes >= MIN_PASSES[args.trace] and measured + pass_wall > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for s in samples if s["failure"])
    record = run_record(args, git_commit())
    record.update(passes=passes, measured_s=measured, attempted=len(samples), failed=failed)
    if args.trace:
        overhead = traced_wall / plain_wall - 1 if plain_wall else 0.0
        metrics = layers.layer_metrics(traced_acc, passes, overhead)
    else:
        latencies = [s["wall_s"] for s in samples]
        q = tail_percentile(MIN_PASSES[0] * len(menu))
        peak_kb, harness_kb = request_peak_kb(samples)
        record.update(samples=len(latencies), tail_percentile=q, harness_rss_mb=harness_kb / 1024)
        metrics = {
            "setup_s": {"value": statistics.median(imports), "unit": "s"},
            "latency_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "latency_s.tail": {"value": percentile(latencies, q), "unit": "s"},
            "throughput_rps": {"value": len(latencies) / measured, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        record["failed_frac"] = failed / len(samples)
    record["metrics"] = metrics
    record["requests"] = samples
    return record


def sample(request, outcome, reference, pass_index, traced):
    return {
        "id": request.id,
        "pass": pass_index,
        "traced": traced,
        "wall_s": outcome.wall_s,
        "status": outcome.status,
        "maxrss_kb": outcome.maxrss_kb,
        "failure": check(request, outcome, reference.get(request.id)),
    }


def report(record):
    """Human-readable lines: every metric by name and unit, and every failure."""
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"passes {record['passes']}  attempted {record['attempted']}  failed {record['failed']}  "
        f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}  "
        f"commit {record['commit'] or 'unknown'}"
    ]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']!s:>24} {metric['unit']}")
    if not record["trace"]:
        lines.append(f"  {'failed_frac':32s} {record['failed_frac']!s:>24} ratio")
        lines.append(
            f"  latency_s.tail is p{record['tail_percentile']} of {record['samples']} samples; "
            f"the harness's own peak RSS is {record['harness_rss_mb']:.1f} MB"
        )
    for s in record["requests"]:
        if s["failure"]:
            lines.append(f"  FAILED {s['id']} (pass {s['pass']}, traced {s['traced']}): {s['failure']}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the full run record here")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    record = run(args)
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(report(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
