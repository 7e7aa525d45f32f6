#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the threaded runtime.

Usage (from the repository root):

    python3 perfbench/run.py --workload cg_fine --seed 1 --seconds 10 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt, which compiles the hmr
libraries from src/) into .bench_build/perfbench, runs one workload and
prints a human-readable report followed, as the last line of standard
output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
reps; --trace 1 reports its per-layer metrics from a traced run, an
isolated replay of single layers, and one audited run.  Operations are
timed steps.  A step whose rep fails its correctness or exact-count check,
or is lost to a crash of perfbench_driver, counts as failed, and a failed
rep supplies no timing; run.py still prints its result line.  perfbench/METRICS.md describes every metric.
"""

import argparse
import collections
import json
import math
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The whole invocation must end within this many seconds of wall time
# (the first run in a fresh checkout also builds, and is allowed more).
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840

# Per-rep counters that must repeat exactly on every workload.
EXACT_COUNTERS = ("tasks", "fetches", "bytes_moved")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
VMHWM_RE = re.compile(r"^VmHWM:\s+(\d+)\s+kB\s*$")

# Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


# ------------------------------------------------------------ statistics

def percentile(values, q):
    """Nearest-rank q-th percentile of `values`.

    Raises ValueError unless at least TAIL_SAMPLES samples lie beyond the
    reported value's rank, so no tail is read from too few samples.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it, "
            f"needs {TAIL_SAMPLES}")
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def parse_vmhwm(line):
    """MiB from a /proc/<pid>/status 'VmHWM:  123 kB' line."""
    m = VMHWM_RE.match(line or "")
    if not m:
        raise ValueError(f"not a VmHWM line: {line!r}")
    return int(m.group(1)) / 1024.0


# ------------------------------------------------------------- the spec

def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def check_names(spec):
    """Every metric and workload name and unit fits the benchmark charset."""
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            name = entry["name"]
            if not NAME_RE.match(name):
                raise ValueError(f"bad name {name!r}")
            if name in seen:
                raise ValueError(f"name {name!r} used twice")
            seen.add(name)
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                raise ValueError(f"bad unit {entry['unit']!r} of {name}")


def shape_metrics(values, entries):
    """Attach units; the names must be exactly those of `entries`."""
    want = [e["name"] for e in entries]
    if sorted(values) != sorted(want):
        missing = sorted(set(want) - set(values))
        extra = sorted(set(values) - set(want))
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
            for e in entries}


# ---------------------------------------------------------- the driver

def build():
    """Configure (once) and build the driver; build log to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_BUDGET_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_driver",
         "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_BUDGET_S)


class DriverRun:
    """One driver process: its records, and how it ended."""

    def __init__(self, stdout, stderr, code):
        self.records = []
        for line in stdout.splitlines():
            line = line.strip()
            if line.startswith("{"):
                try:
                    self.records.append(json.loads(line))
                except ValueError:
                    break  # a line torn by a crash
        self.error = ""
        if code != 0:
            first = next((l for l in stderr.splitlines() if l.strip()), "")
            self.error = first or f"driver exited with status {code}"

    @classmethod
    def start(cls, args, timeout):
        """Run the driver to completion (or kill it at `timeout`)."""
        try:
            proc = subprocess.run([DRIVER] + args, capture_output=True,
                                  text=True, timeout=max(1.0, timeout))
            return cls(proc.stdout, proc.stderr, proc.returncode)
        except subprocess.TimeoutExpired as e:
            out = e.stdout or ""
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
            return cls(out, "driver timed out", None)

    def of(self, rec):
        return [r for r in self.records if r.get("rec") == rec]


class Ledger:
    """Attempted and failed operations (timed steps) over driver runs.

    add() also marks each failed rep record with "failed": True, so no
    metric is taken from it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, run, what):
        plan = run.of("plan")
        per_rep = int(plan[0]["steps_per_rep"]) if plan else 1
        reps = run.of("rep")
        for r in reps:
            self.attempted += int(r["steps"])
            if r["check"]:
                self.fail(r, f"{what} rep {r['rep']}: {r['check']}")
        # Every rep must reproduce the counts most reps agree on.
        comparable = [r for r in reps if r["kind"] != "untenanted"]
        key = lambda r: tuple(r[c] for c in EXACT_COUNTERS)
        counts = collections.Counter(map(key, comparable))
        usual = counts.most_common(1)[0][0] if counts else None
        for r in comparable:
            if key(r) != usual:
                diff = [c for c, a, b in zip(EXACT_COUNTERS, key(r), usual)
                        if a != b]
                self.fail(r, f"{what} rep {r['rep']}: counters {diff} "
                             f"differ from the other reps'")
        if run.error:
            # The rep in flight when the driver died: all its steps fail.
            self.attempted += per_rep
            self.failed += per_rep
            self.notes.append(f"{what} crashed: {run.error}")

    def fail(self, rep, note):
        if not rep.get("failed"):
            rep["failed"] = True
            self.failed += int(rep["steps"])
        self.notes.append(note)


# -------------------------------------------------------------- metrics

def guarded(compute, ledger, name):
    """compute() or 0.0 when the run left too little data for it.

    Only a crashed or failed run gets here; its operations are already
    counted as failed, so the zero is never read as a measurement.
    """
    try:
        return float(compute())
    except (ValueError, IndexError, KeyError, TypeError) as e:
        ledger.notes.append(f"{name}: not measured ({e})")
        ledger.failed = max(ledger.failed, 1)
        return 0.0


def end_to_end(run, ledger):
    """Best of N: each timing is its lowest value over the reps.

    Every rep does the same fixed work, and time the host steals from
    the guest only ever adds to it, so the lowest value over reps is the
    least disturbed measurement of each figure.  A percentile is taken
    over one rep's steps and the lowest over reps is kept: the rep with
    the lowest wall time can still hold a burst of stolen time in its
    tail.  Set-up is the median over reps.  Reps the ledger failed
    (wrong output or counts) are left out.
    """
    reps = [r for r in run.of("rep") if not r.get("failed")]

    def best(stat, series="step_s"):
        return min(stat(r[series]) for r in reps)

    steps = min((len(r["step_s"]) for r in reps), default=0)
    tasks = min((len(r["task_s"]) for r in reps), default=0)
    formulas = {
        "wall_s": lambda: min(r["wall_s"] for r in reps),
        "setup_s": lambda: median([r["setup_s"] for r in reps]),
        "step_p50_ms": lambda: best(median) * 1e3,
        "step_p90_ms": lambda: best(lambda v: percentile(v, 90)) * 1e3,
        "peak_rss_mib": lambda: parse_vmhwm(run.of("end")[0]["vmhwm"]),
    }
    values = {k: guarded(f, ledger, k) for k, f in formulas.items()}
    samples = {"wall_s": len(reps), "setup_s": len(reps),
               "step_p50_ms": steps, "step_p90_ms": steps,
               "peak_rss_mib": 1}
    # p95 is printed, not gated: on this host its run-to-run spread is
    # twice p90's (METRICS.md).
    extra = {"step_p95_ms": (
        guarded(lambda: best(lambda v: percentile(v, 95)) * 1e3, ledger,
                "step_p95_ms"), steps)}
    if tasks:
        # tenant_mix: the latency tenant's submit-to-start latency.
        extra["task_p50_ms"] = (
            guarded(lambda: best(median, "task_s") * 1e3, ledger,
                    "task_p50_ms"), tasks)
        extra["task_p99_ms"] = (
            guarded(lambda: best(lambda v: percentile(v, 99), "task_s")
                    * 1e3, ledger, "task_p99_ms"), tasks)
    return values, samples, extra


def per_layer(run, audit, ledger, entries):
    layers = run.of("layers")
    layers = dict(layers[0]) if layers else {}
    tasks = layers.get("serve.task_s", [])

    def task_ms(stat):
        return stat(tasks) * 1e3 if tasks else 0.0  # 0: no latency tenant

    formulas = {e["name"]: (lambda n=e["name"]: layers[n]) for e in entries}
    formulas["serve.task_p50_ms"] = lambda: task_ms(median)
    formulas["serve.task_p99_ms"] = lambda: task_ms(
        lambda v: percentile(v, 99))
    formulas["telemetry.audit_runs"] = lambda: audit.of("audit")[0]["audit_runs"]
    formulas["host.ref_ms"] = lambda: median(run.of("end")[0]["host_ref_ms"])
    values = {k: guarded(f, ledger, k) for k, f in formulas.items()}
    # Incomplete or inconsistent traces make every layer number suspect.
    for name in ("trace.dropped", "telemetry.attrib_sum_violations"):
        if values[name] != 0:
            ledger.failed = max(ledger.failed, 1)
            ledger.notes.append(f"{name} = {values[name]:g}, must be 0")
    return values


def report(workload, trace, metrics, samples, extra, ledger):
    """Human-readable lines before the result line."""
    print(f"# perfbench {workload} trace={trace}")
    for name, m in metrics.items():
        n = samples.get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}{tail}")
    for name, (value, n) in extra.items():
        print(f"{name:32s} {value:14.6g} ms  (n={n})")
    print(f"attempted={ledger.attempted} failed={ledger.failed}")
    for note in ledger.notes:
        print(f"note: {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    if not os.path.exists(os.path.join(ROOT, "src", "rt", "runtime.hpp")):
        print("perfbench: hmr sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    spec = load_spec()
    check_names(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    t_run = time.monotonic()
    # An up-to-date build takes about a second; a real build (the first
    # run in a checkout) has its own, larger allowance.
    budget = RUN_BUDGET_S - min(t_run - t_start, 5.0)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    ledger = Ledger()
    if args.trace == 0:
        run = DriverRun.start(common + ["--mode", "timed",
                                  "--seconds", str(args.seconds)], budget)
        ledger.add(run, "timed")
        entries = spec["end_to_end"]
        values, samples, extra = end_to_end(run, ledger)
    else:
        run = DriverRun.start(common + ["--mode", "layers"], budget * 0.8)
        ledger.add(run, "layers")
        left = budget - (time.monotonic() - t_run)
        audit = DriverRun.start(common + ["--mode", "audit"], left)
        ledger.add(audit, "audit")
        entries = spec["per_layer"]
        values, samples, extra = per_layer(run, audit, ledger, entries), {}, {}
    metrics = shape_metrics(values, entries)
    report(args.workload, args.trace, metrics, samples, extra, ledger)
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
