"""The horoprod benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload oracle --seed 7 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen): ``oracle``,
``limits``, ``walk``, ``walk-general``.  Each repetition is a fresh,
single-threaded interpreter running ``workload.py``, one at a time.
Another repetition starts while it is expected to end within
``--seconds`` (an untraced run makes at least MIN_REPS), and every
metric is the median over them.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s``,
``cpu_s``, ``peak_rss_mb`` and ``pass_ratio``.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from
the traced ones, plus ``trace.overhead_s``: traced minus untraced
``wall_s``.

Stdout: a human-readable summary, one JSON line with the environment
and every repetition, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 2
without a result when a repetition fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle", "limits", "walk", "walk-general")
MIN_REPS = 3
REP_TIMEOUT_S = 150


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/, so results from a checkout without git still
    name the code they measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
    }


def repetition(workload: str, seed: int, trace: bool, digest: bool) -> dict:
    # single-threaded numpy, and one hash seed so that every repetition
    # iterates sets and dicts in the same order
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--digest", str(int(digest))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("t0") - spawned
    rep["trace"] = trace
    return rep


def run(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repetitions while the next one is expected to end within the time;
    traced runs alternate untraced and traced repetitions, starting
    untraced, and need at least one of each."""
    reps = []
    durations = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        t = time.monotonic()
        reps.append(repetition(workload, seed, traced, digest=not reps))
        durations.append(time.monotonic() - t)
        if trace:
            enough = len(reps) >= 2
            next_s = durations[-2] if len(durations) >= 2 else durations[-1]
        else:
            enough = len(reps) >= MIN_REPS
            next_s = durations[-1]
        if enough and time.monotonic() - start + next_s > seconds:
            return reps


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    plain = [r for r in reps if not r["trace"]]
    values = {name: statistics.median(r[name] for r in plain)
              for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    values["pass_ratio"] = 1 - failed / attempted
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared("end_to_end").items()}


def per_layer(reps: list[dict]) -> dict:
    units = declared("per_layer")
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    # a declared metric that a repetition does not report is a KeyError
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in units if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "horoprod")):
        print(f"run.py: no horoprod sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    try:
        reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        metrics = (per_layer(reps) if args.trace
                   else end_to_end(reps, attempted, failed))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    env["numpy"] = reps[0]["numpy"]

    failures = sorted({f for r in reps for f in r["failures"]})
    known = sorted({k for r in reps for k in r["known_defects"]})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} checks failed: {', '.join(failures) or 'none'})")
    for name in known:
        print(f"  known defect, not counted as a failed check: {name}")
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "fail_ratio": failed / attempted,
                      "failures": failures, "known_defects": known,
                      "repetitions": reps}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
