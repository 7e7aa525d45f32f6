#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def rep_line(index, steps, check="", kind="timed", counts=(10, 20, 30),
             task_s=(), wall_s=None):
    return json.dumps({
        "rec": "rep", "rep": index, "kind": kind, "setup_s": 0.5 + index,
        "wall_s": 1.0 + index if wall_s is None else wall_s, "steps": len(steps), "step_s": list(steps),
        "task_s": list(task_s), "check": check, "tasks": counts[0],
        "fetches": counts[1], "bytes_moved": counts[2]})


PLAN = json.dumps({"rec": "plan", "steps_per_rep": 100})
END = json.dumps({"rec": "end", "host_ref_ms": [3.0, 3.5, 4.0],
                  "vmhwm": "VmHWM:\t  204800 kB"})


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 201)]
        self.assertEqual(run.percentile(values, 95), 190.0)
        with self.assertRaises(ValueError):
            run.percentile(values[:199], 95)

    def test_p99_needs_a_thousand_samples(self):
        values = [float(i) for i in range(1, 1001)]
        self.assertEqual(run.percentile(values, 99), 990.0)
        with self.assertRaises(ValueError):
            run.percentile(values[:999], 99)

    def test_tail_is_never_the_maximum_of_few_samples(self):
        for n in (1, 5, 20, 100):
            with self.assertRaises(ValueError):
                run.percentile(list(range(n)), 95)

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            run.median([])


class VmHwm(unittest.TestCase):
    def test_parses_kib_to_mib(self):
        self.assertEqual(run.parse_vmhwm("VmHWM:\t  204800 kB"), 200.0)
        self.assertEqual(run.parse_vmhwm("VmHWM: 1536 kB"), 1.5)

    def test_rejects_other_lines(self):
        for line in ("VmRSS:\t 100 kB", "VmHWM: 12 MB", "", None,
                     "VmHWM: -5 kB"):
            with self.assertRaises(ValueError):
                run.parse_vmhwm(line)

    def test_own_status(self):
        with open("/proc/self/status") as f:
            line = next(l for l in f if l.startswith("VmHWM:"))
        self.assertGreater(run.parse_vmhwm(line.rstrip("\n")), 0)


class Names(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_spec_names_fit_the_charset(self):
        run.check_names(self.spec)

    def test_bad_names_are_refused(self):
        for bad in ("_lead", "a" * 65, "has space", "slash/no", ""):
            spec = {"workloads": [], "end_to_end": [],
                    "per_layer": [{"name": bad, "unit": "s"}]}
            with self.assertRaises(ValueError, msg=bad):
                run.check_names(spec)

    def test_duplicate_name_and_bad_unit_are_refused(self):
        dup = {"workloads": [{"name": "x"}], "end_to_end": [],
               "per_layer": [{"name": "x", "unit": "s"}]}
        with self.assertRaises(ValueError):
            run.check_names(dup)
        unit = {"workloads": [], "end_to_end": [],
                "per_layer": [{"name": "x", "unit": "m s"}]}
        with self.assertRaises(ValueError):
            run.check_names(unit)

    def test_shape_metrics_wants_exactly_the_spec(self):
        entries = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
        out = run.shape_metrics({"a": 1.0, "b": 2.0}, entries)
        self.assertEqual(out["b"], {"value": 2.0, "unit": "ms"})
        with self.assertRaises(ValueError):
            run.shape_metrics({"a": 1.0}, entries)
        with self.assertRaises(ValueError):
            run.shape_metrics({"a": 1.0, "b": 2.0, "c": 3.0}, entries)


class Outputs(unittest.TestCase):
    """The metrics run.py emits are exactly BENCHMARK.json's."""

    def setUp(self):
        self.spec = run.load_spec()

    def test_end_to_end_names(self):
        steps = [0.001 * (i + 1) for i in range(200)]
        out = "\n".join([PLAN] + [rep_line(i, steps) for i in range(3)] +
                        [END])
        ledger = run.Ledger()
        drv = run.DriverRun(out, "", 0)
        ledger.add(drv, "timed")
        values, samples, _ = run.end_to_end(drv, ledger)
        metrics = run.shape_metrics(values, self.spec["end_to_end"])
        self.assertEqual(ledger.failed, 0)
        self.assertEqual(ledger.attempted, 600)
        # Best of N: the lowest wall; set-up is the median over reps.
        self.assertEqual(metrics["wall_s"]["value"], 1.0)
        self.assertEqual(metrics["setup_s"]["value"], 1.5)
        self.assertEqual(metrics["step_p90_ms"]["value"], 180.0)
        self.assertEqual(metrics["peak_rss_mib"]["value"], 200.0)
        self.assertEqual(samples["step_p90_ms"], 200)
        for m in metrics.values():
            self.assertNotEqual(m["value"], 0)

    def test_driver_emits_every_per_layer_metric(self):
        """Each per-layer name is produced by the driver or by run.py."""
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "driver.cpp")) as f:
            keys = set(re.findall(r'j\.key\("([a-z]+\.[a-z0-9_.]+)"\)',
                                  f.read()))
        in_python = {"serve.task_p50_ms", "serve.task_p99_ms",
                     "telemetry.audit_runs", "host.ref_ms"}
        want = {e["name"] for e in self.spec["per_layer"]}
        self.assertEqual(keys | in_python, want | {"serve.task_s"})

    def test_per_layer_names(self):
        layers = {e["name"]: 1.0 for e in self.spec["per_layer"]}
        layers.update({"rec": "layers", "serve.task_s": []})
        out = "\n".join([PLAN, json.dumps(layers), END])
        audit = "\n".join([PLAN, json.dumps({"rec": "audit",
                                             "audit_runs": 7})])
        ledger = run.Ledger()
        values = run.per_layer(run.DriverRun(out, "", 0),
                               run.DriverRun(audit, "", 0), ledger,
                               self.spec["per_layer"])
        metrics = run.shape_metrics(values, self.spec["per_layer"])
        self.assertEqual(metrics["telemetry.audit_runs"]["value"], 7)
        self.assertEqual(metrics["serve.task_p99_ms"]["value"], 0)
        self.assertGreater(ledger.failed, 0)  # trace.dropped was 1

    def test_clean_trace_passes(self):
        layers = {e["name"]: 0.0 for e in self.spec["per_layer"]}
        layers.update({"rec": "layers", "serve.task_s": []})
        out = "\n".join([PLAN, json.dumps(layers), END])
        audit = "\n".join([PLAN, json.dumps({"rec": "audit",
                                             "audit_runs": 7})])
        ledger = run.Ledger()
        run.per_layer(run.DriverRun(out, "", 0), run.DriverRun(audit, "", 0),
                      ledger, self.spec["per_layer"])
        self.assertEqual(ledger.failed, 0)

    def test_metrics_table_lists_every_metric(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "METRICS.md")) as f:
            table = f.read()
        for group in ("end_to_end", "per_layer"):
            for e in self.spec[group]:
                self.assertIn(f"`{e['name']}`", table)


class Failures(unittest.TestCase):
    def test_crash_fails_the_rep_in_flight(self):
        steps = [0.01] * 100
        torn = rep_line(1, steps)[:40]
        out = "\n".join([PLAN, rep_line(0, steps), torn])
        err = ("hmr: CHECK failed: res.ok at src/rt/runtime.cpp:634: "
               "migration failed\nAborted\n")
        drv = run.DriverRun(out, err, -6)
        ledger = run.Ledger()
        ledger.add(drv, "timed")
        self.assertEqual((ledger.attempted, ledger.failed), (200, 100))
        self.assertIn("CHECK failed", ledger.notes[-1])
        self.assertNotIn("Aborted", ledger.notes[-1])

    def test_crash_before_any_rep_still_reports(self):
        drv = run.DriverRun(PLAN, "boom", -11)
        ledger = run.Ledger()
        ledger.add(drv, "timed")
        values, _, _ = run.end_to_end(drv, ledger)
        self.assertEqual(values["wall_s"], 0.0)
        self.assertGreater(ledger.failed, 0)

    def test_check_and_count_mismatch_fail_their_rep(self):
        steps = [0.01] * 100
        out = "\n".join([PLAN, rep_line(0, steps),
                         rep_line(1, steps, check="cg: differs"),
                         rep_line(2, steps, counts=(10, 21, 30)), END])
        ledger = run.Ledger()
        ledger.add(run.DriverRun(out, "", 0), "timed")
        self.assertEqual((ledger.attempted, ledger.failed), (300, 200))

    def test_failed_reps_supply_no_timing(self):
        """The fastest rep is skipped when its output or counts are wrong."""
        slow = [0.01] * 100
        fast = [0.001] * 100
        out = "\n".join([PLAN, rep_line(0, slow, wall_s=1.0),
                         rep_line(1, fast, counts=(10, 21, 30), wall_s=0.1),
                         rep_line(2, fast, check="cg: differs", wall_s=0.2),
                         rep_line(3, slow, wall_s=1.5), END])
        drv = run.DriverRun(out, "", 0)
        ledger = run.Ledger()
        ledger.add(drv, "timed")
        self.assertEqual((ledger.attempted, ledger.failed), (400, 200))
        values, samples, _ = run.end_to_end(drv, ledger)
        self.assertEqual(values["wall_s"], 1.0)
        self.assertEqual(values["step_p50_ms"], 10.0)
        self.assertEqual(samples["wall_s"], 2)

    def test_each_timing_is_its_own_best_of_n(self):
        """A tail can come from another rep than the lowest wall time."""
        steady = [0.010] * 100
        bursty = [0.009] * 80 + [0.020] * 20
        out = "\n".join([PLAN, rep_line(0, bursty, wall_s=1.0),
                         rep_line(1, steady, wall_s=1.1), END])
        drv = run.DriverRun(out, "", 0)
        ledger = run.Ledger()
        ledger.add(drv, "timed")
        values, samples, _ = run.end_to_end(drv, ledger)
        self.assertEqual(values["wall_s"], 1.0)
        self.assertEqual(values["step_p50_ms"], 9.0)
        self.assertEqual(values["step_p90_ms"], 10.0)
        self.assertEqual(samples["step_p90_ms"], 100)

    def test_odd_first_rep_fails_alone(self):
        """Counts are checked against the majority, not the first rep."""
        steps = [0.01] * 100
        out = "\n".join([PLAN, rep_line(0, steps, counts=(10, 21, 30))] +
                        [rep_line(i, steps) for i in range(1, 4)] + [END])
        ledger = run.Ledger()
        ledger.add(run.DriverRun(out, "", 0), "timed")
        self.assertEqual((ledger.attempted, ledger.failed), (400, 100))
        self.assertIn("rep 0", ledger.notes[0])

    def test_a_rep_failing_twice_counts_once(self):
        steps = [0.01] * 100
        out = "\n".join([PLAN, rep_line(0, steps), rep_line(1, steps),
                         rep_line(2, steps, check="cg: differs",
                                  counts=(11, 20, 30)), END])
        ledger = run.Ledger()
        ledger.add(run.DriverRun(out, "", 0), "timed")
        self.assertEqual((ledger.attempted, ledger.failed), (300, 100))


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        """Only BENCHMARK.json and perfbench/: fail fast, print no result."""
        build_root = os.path.join(run.ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as d:
            shutil.copy(run.SPEC, d)
            shutil.copytree(run.HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cg_fine", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
