#!/usr/bin/env python3
"""Tests of the host-cost benchmark.

    python3 hostbench/test_hostbench.py

The first group checks the statistic, verification and output code on
synthetic raw output. The second builds the binary (as run.py does) and
runs it: a corrupted pin must yield failed operations and a nonzero exit,
and a traced run must emit every per-layer metric, nonzero for each layer
that runs on the workload.
"""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run

# Layers (per-layer metric prefixes) that do work on each workload; every
# metric of these layers must be nonzero in a traced run.
LAYERS_BY_WORKLOAD = {
    "launch-storm": ("graph", "recorder", "scheduler", "attribution",
                     "critpath", "device"),
    "serve-mix": ("graph", "recorder", "scheduler", "attribution", "critpath",
                  "device", "server", "shard", "pool"),
    "combine-parallel": ("graph", "recorder", "scheduler", "attribution",
                         "critpath", "device", "thread_pool"),
}
# Counts that are legitimately zero: warm units may take no page faults
# (the allocator already holds the memory they need), the PageRank
# templates launch nothing from the device, and the steady serving leg and
# a short overload leg need not expire anything.
MAY_BE_ZERO = {"recorder.minor_faults", "recorder.device_grids",
               "server.expired"}
# serve-mix runs the server before its first unit (to read the attempts the
# replays re-run), so no unit there is cold and the cold metrics are 0.
ZERO_ON = {"serve-mix": {"recorder.cold_s", "recorder.cold_minor_faults"}}
# Workloads whose templates launch grids from the device.
DEVICE_LAUNCHING = ("launch-storm", "serve-mix")


def unit(s, model, warmup=False, traced=False, attempted=2, failed=0,
         engine="serial", counters=None,
         host_speed_s=run.REFERENCE_HOST_SPEED_S):
    return {"s": s, "host_speed_s": host_speed_s, "warmup": warmup,
            "traced": traced, "engine": engine,
            "attempted": attempted, "failed": failed,
            "model": dict(model), "counters": counters or {}}


def raw_run(units, workload="launch-storm", seed=1, trace=0, spans=()):
    return {"build": {"type": "Release", "compiler": "GNU", "nproc": 4},
            "workload": workload, "seed": seed, "trace": trace,
            "peak_rss_mb": 12.5, "setup_s": [0.3, 0.1, 0.2],
            "setup_host_speed_s": [run.REFERENCE_HOST_SPEED_S] * 3,
            "counts": {"graph.edges": 100, "thread_pool.threads": 1},
            "units": list(units), "spans": list(spans)}


MODEL = {"bfs.cycles": 123.5, "bfs.grids": 7.0}


class Statistics(unittest.TestCase):
    def test_run_s_is_the_10th_percentile_after_warmup(self):
        raw = raw_run([unit(0.5, MODEL, warmup=True)] +
                      [unit(float(v), MODEL) for v in range(11, 0, -1)])
        m = run.end_to_end(raw)
        self.assertEqual(m["run_s"], 2.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 12.5)

    def test_times_are_scaled_to_the_reference_host_speed(self):
        # A host running the kernel at half speed ran the units at half
        # speed too; run_s reads as on the reference host.
        slow = 2 * run.REFERENCE_HOST_SPEED_S
        raw = raw_run([unit(9.0, MODEL, warmup=True, host_speed_s=1.0)] +
                      [unit(2.0 * v, MODEL, host_speed_s=slow)
                       for v in range(11, 0, -1)])
        self.assertAlmostEqual(run.end_to_end(raw)["run_s"], 2.0)
        self.assertEqual(run.host_seconds(raw), (4.0, slow))
        raw["setup_host_speed_s"] = [slow, 4 * slow, slow]
        self.assertAlmostEqual(run.end_to_end(raw)["setup_s"], 0.1)

    def test_low_decile_interpolates_within_the_samples(self):
        self.assertAlmostEqual(run.low_decile([4.0, 1.0, 2.0, 3.0]), 1.3)
        self.assertEqual(run.low_decile([7.0]), 7.0)

    def test_serve_run_s_is_seconds_per_request(self):
        raw = raw_run([unit(9.0, MODEL, warmup=True, attempted=800),
                       unit(0.4, MODEL, attempted=800)], workload="serve-mix")
        self.assertAlmostEqual(run.end_to_end(raw)["run_s"], 0.0005)

    def test_self_time_subtracts_children(self):
        spans = [{"n": "device.report", "u": 1, "b": 0.0, "e": 1.0, "p": -1,
                  "f": 5},
                 {"n": "scheduler", "u": 1, "b": 2.0, "e": 2.25, "p": 0,
                  "f": 1},
                 {"n": "critpath", "u": 1, "b": 3.0, "e": 3.5, "p": 0,
                  "f": 0}]
        table = run.span_table(spans)
        self.assertEqual(table[("device.report", 1)], [1.0, 0.25, 5])
        self.assertEqual(table[("scheduler", 1)], [0.25, 0.25, 1])


class Verification(unittest.TestCase):
    def test_pinned_seed_matches(self):
        raw = raw_run([unit(1.0, MODEL, warmup=True), unit(1.0, MODEL)])
        pins = {"seed": 1, "workloads": {"launch-storm": MODEL}}
        self.assertEqual(run.check_models(raw, pins), [0, 0])

    def test_corrupted_pin_fails_every_unit(self):
        raw = raw_run([unit(1.0, MODEL, warmup=True), unit(1.0, MODEL)])
        pins = {"seed": 1, "workloads": {
            "launch-storm": dict(MODEL, **{"bfs.cycles": 124.5})}}
        self.assertEqual(run.check_models(raw, pins), [2, 2])
        result = run.summarize(raw, pins)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)

    def test_held_out_seed_requires_identical_repetitions(self):
        other = dict(MODEL, **{"bfs.grids": 8.0})
        raw = raw_run([unit(1.0, MODEL, warmup=True),
                       unit(1.0, MODEL, traced=True), unit(1.0, other)],
                      seed=7)
        pins = {"seed": 1, "workloads": {"launch-storm": other}}
        self.assertEqual(run.check_models(raw, pins), [0, 0, 2])

    def test_functional_failures_count(self):
        raw = raw_run([unit(1.0, MODEL, warmup=True),
                       unit(1.0, MODEL, failed=1)], seed=9)
        self.assertEqual(run.check_models(raw, {}), [0, 1])


class Output(unittest.TestCase):
    def test_result_has_exactly_the_contract_keys(self):
        raw = raw_run([unit(1.0, MODEL, warmup=True), unit(1.0, MODEL)])
        result = run.summarize(raw, {})
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(result["attempted"], 4)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], run.END_TO_END[name])

    def test_traced_result_reports_every_per_layer_metric(self):
        raw = raw_run([unit(1.0, MODEL, warmup=True, traced=True),
                       unit(1.0, MODEL),
                       unit(1.5, MODEL, traced=True)], trace=1)
        result = run.summarize(raw, {})
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        self.assertAlmostEqual(
            result["metrics"]["trace.overhead_s"]["value"], 0.5)

    def test_setup_layers_are_medians_over_repetitions(self):
        spans = [{"n": "graph", "u": -1 - k, "b": 0.0, "e": e, "p": -1,
                  "f": 0} for k, e in enumerate((0.1, 0.3, 0.2))]
        raw = raw_run([unit(1.0, MODEL, warmup=True, traced=True)], trace=1,
                      spans=spans)
        self.assertAlmostEqual(run.per_layer(raw)["graph.s"], 0.2)

    def test_benchmark_json_names_the_same_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(run.END_TO_END))
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(run.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class Binary(unittest.TestCase):
    def test_refuses_a_build_that_is_not_release(self):
        with tempfile.TemporaryDirectory() as tmp:
            exe = Path(tmp) / "hostbench"
            exe.write_text("#!/bin/sh\necho '%s'\n" % json.dumps(
                raw_run([unit(1.0, MODEL, warmup=True)]) |
                {"build": {"type": "Debug"}}))
            exe.chmod(0o755)
            with self.assertRaises(run.BenchError):
                run.run_binary(exe, "launch-storm", 1, 0, 0)


def bench(*args):
    """Runs run.main with `args`; returns (exit code, parsed last line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


@unittest.skipUnless((run.ROOT / "src" / "CMakeLists.txt").is_file(),
                     "needs the nestpar sources")
class EndToEnd(unittest.TestCase):
    def test_corrupted_pin_yields_failed_operations(self):
        pins = json.loads(run.PINS.read_text())
        model = pins["workloads"]["serve-mix"]
        model["steady.p99_us"] += 1.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pins.json"
            path.write_text(json.dumps(pins))
            code, result = bench("--workload", "serve-mix", "--seed",
                                 str(pins["seed"]), "--seconds", "0",
                                 "--pins", str(path))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_pinned_seed_passes(self):
        code, result = bench("--workload", "serve-mix", "--seconds", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_traced_run_reports_each_running_layer(self):
        for workload, layers in LAYERS_BY_WORKLOAD.items():
            with self.subTest(workload=workload):
                code, result = bench("--workload", workload, "--seed", "3",
                                     "--seconds", "0", "--trace", "1")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(set(metrics), set(run.PER_LAYER))
                zero = ZERO_ON.get(workload, set())
                for name, value in metrics.items():
                    if name in zero:
                        self.assertEqual(value, 0.0, name)
                    elif (name.split(".")[0] in layers
                          and name not in MAY_BE_ZERO):
                        self.assertNotEqual(value, 0.0, name)
                if workload in DEVICE_LAUNCHING:
                    self.assertNotEqual(metrics["recorder.device_grids"], 0.0)
                if workload == "serve-mix":
                    self.assertAlmostEqual(
                        metrics["shard.s"] + metrics["server.self_s"],
                        metrics["server.s"], places=12)


if __name__ == "__main__":
    unittest.main()
