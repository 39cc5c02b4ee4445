"""perfbench: the audit and the theorem registry, timed end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload audit-charge --seed 1 --seconds 10 --trace 0

Workloads (``README.md`` in this directory says why each exists):
``audit-charge``, ``audit-tape``, ``audit-warm`` and ``registry``.  All
load comes from this one process, closed loop, with at most one child
interpreter alive at a time.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that reports the per-layer metrics from
spans and counters installed around the program, and writes its spans as a
Chrome trace to ``.perfbench/``.

The output is an environment stamp, one line per metric, and, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Outputs are checked on every pass; a failed check is
counted, not raised.  Exits non-zero, without a result, when the checkout
lacks the program or a child interpreter fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (defines the workloads; imports no repro code)
import layers  # noqa: E402

WORKLOADS = ("audit-charge", "audit-tape", "audit-warm", "registry")

#: End-to-end metrics: name -> (unit, which direction is better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "pass_s_tail": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
}

#: Fresh interpreters set up per untraced audit run; setup_s is their median.
SETUP_REPEATS = 3
#: Child processes must finish within this many seconds of the start.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


def spawn(argv, deadline):
    """Run one child interpreter to completion; returns (result, wall seconds)."""
    t0 = child.now()
    command = [sys.executable, os.path.join(HERE, "child.py"), *argv, "--t0", repr(t0)]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {argv[:2]} ran past the {BUDGET_S:.0f} s budget")
    wall = child.now() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"child {argv} printed no result")
    return json.loads(lines[-1]), wall


def tail(samples):
    """(value, percentile, n): the nearest-rank p90 of the samples.

    From 100 samples on, p90 has at least ten samples beyond it.  Below
    that no percentile above the median has ten beyond it, and p90 is
    still above the median for every n >= 2, so the tail reads the same
    statistic however many passes a run gets.  Higher percentiles are left
    out on purpose: on a shared 2-CPU host the p99.5 of the ~8 ms
    ``audit-warm`` passes moved by 40% between identical runs, while p90
    moved by about 10%.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(0.9 * n)
    return ordered[rank - 1], 100.0 * rank / n, n


def source_digest():
    """A short hash of every file under ``src/``: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(args):
    """Host and code stamp: runs whose stamps differ are not comparable."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    if hasattr(os, "process_cpu_count"):
        cpus = os.process_cpu_count()
    else:
        cpus = len(os.sched_getaffinity(0))
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = found.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "cpus": cpus,
        "platform": platform.platform(),
        "commit": commit,
        "source": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_args(args, *extra):
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    if args.tiny:
        argv.append("--tiny")
    if args.corrupt:
        argv.append("--corrupt")
    return argv


def run_untraced(args, deadline, notes):
    """End-to-end metrics; returns (metrics, attempted, failed)."""
    if args.workload == "registry":
        walls, setups, rss, attempted, failed = [], [], [], 0, 0
        start = child.now()
        while not walls or child.now() - start < args.seconds:
            result, wall = spawn(child_args(args), deadline)
            walls.append(wall)
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
            attempted += result["attempted"]
            failed += result["failed"]
        passes, setup_s = walls, statistics.median(setups)
        work = child.EXPECTED_REGISTRY_CHECKS * len(walls)
        peak = statistics.median(rss)
        notes.append("work_per_s counts theorem checks; registry passes run "
                     "verify_all at its default seed, whatever --seed is")
    else:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            result, _wall = spawn(child_args(args, "--setup-only"), deadline)
            setups.append(result["setup_s"])
        result, _wall = spawn(child_args(args), deadline)
        setups.append(result["setup_s"])
        passes, setup_s = result["passes"], statistics.median(setups)
        attempted, failed, work = result["attempted"], result["failed"], result["work"]
        peak = result["peak_rss_mb"]
        if "extension_cells" in result:
            notes.append(f"extension cells (m, n): {result['extension_cells']}")
        unit = "audit cells served" if args.workload == "audit-warm" else "input symbols"
        notes.append(f"work_per_s counts {unit}")
    tail_s, percentile, n = tail(passes)
    notes.append(f"pass_s_tail is p{percentile:.1f} of {n} passes")
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(passes),
        "pass_s_tail": tail_s,
        # total over total, so slow passes count in proportion to their time
        "work_per_s": work / sum(passes),
        "peak_rss_mb": peak,
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed


def run_traced(args, deadline, stamp, notes):
    """Per-layer metrics; returns (metrics, attempted, failed)."""
    os.makedirs(child.WORK_DIR, exist_ok=True)
    trace_out = os.path.join(child.WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    traced = ["--trace", "--trace-out", trace_out, "--stamp", stamp]
    if args.workload == "registry":
        plain, traced_walls, per_pass, attempted, failed = [], [], [], 0, 0
        start = child.now()
        while len(per_pass) < child.MAX_TRACED_PASSES and (
            not per_pass or child.now() - start < args.seconds
        ):
            _result, wall = spawn(child_args(args), deadline)
            plain.append(wall)
            result, wall = spawn(child_args(args, *traced), deadline)
            traced_walls.append(wall)
            per_pass.append(result["layers"])
            attempted += result["attempted"]
            failed += result["failed"]
        values = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        values["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(plain) - 1
        )
    else:
        result, _wall = spawn(child_args(args, *traced), deadline)
        values, attempted, failed = result["layers"], result["attempted"], result["failed"]
    notes.append(f"per-layer times are traced (spans on), Chrome trace: {trace_out}")
    unknown = set(values) - set(layers.LAYER_METRICS)
    if unknown:
        raise BenchError(f"unlisted layer metrics {sorted(unknown)}")
    # a layer this workload never enters reads 0: nothing of it ran
    metrics = {name: values.get(name, 0) for name in layers.LAYER_METRICS}
    return metrics, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sweeps, for the benchmark's own tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt a layer's result in the child")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for required in ("src/repro/__init__.py", "AUDIT_contracts.json"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print(f"perfbench: {required} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    deadline = child.now() + BUDGET_S
    env = environment(args)
    stamp = " ".join(f"{k}={env[k]}" for k in
                     ("workload", "seed", "python", "numpy", "cpus", "commit", "source"))
    print("perfbench env " + json.dumps(env, sort_keys=True))
    notes = []
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(args, deadline, stamp, notes)
            units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
        else:
            metrics, attempted, failed = run_untraced(args, deadline, notes)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"perfbench note: {note}")
    for name, value in metrics.items():
        print(f"perfbench {args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
