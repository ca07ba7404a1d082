#!/usr/bin/env python3
"""Host-cost benchmark of nestpar: build, run one workload, verify, report.

    python3 hostbench/run.py --workload serve-mix --seed 1 --seconds 25 --trace 0

Builds the hostbench binary (hostbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that is unset,
runs it with the NESTPAR_* variables removed from its environment, checks
every unit's modeled statistics against hostbench/pins.json (default seed)
or against each other (any other seed), and prints one JSON object as the
last line of standard output. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. The exit code is nonzero when any operation
failed. README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
WORKLOADS = ("launch-storm", "serve-mix", "combine-parallel")
SCRUBBED_ENV = ("NESTPAR_THREADS", "NESTPAR_EXEC", "NESTPAR_FAULTS",
                "NESTPAR_PROFILE")
BINARY_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# run_s and setup_s are stated at the host speed at which the binary's
# HostSpeed kernel takes this long (its low decile on the 4-CPU machine
# README.md describes).
REFERENCE_HOST_SPEED_S = 0.02

# Per-layer metrics and their units; run.py emits every one on every
# workload, 0 where the layer does not run.
PER_LAYER = {
    "graph.s": "s", "graph.edges": "count",
    "recorder.s": "s", "recorder.grids": "count",
    "recorder.device_grids": "count", "recorder.warp_steps": "count",
    "recorder.us_per_grid": "us", "recorder.ns_per_warp_step": "ns",
    "recorder.minor_faults": "count", "recorder.cold_s": "s",
    "recorder.cold_minor_faults": "count",
    "scheduler.s": "s", "scheduler.us_per_grid": "us",
    "attribution.s": "s",
    "critpath.s": "s", "critpath.segments": "count",
    "device.report_s": "s", "device.report_self_s": "s",
    "thread_pool.threads": "count", "thread_pool.speedup": "x",
    "server.s": "s", "server.self_s": "s", "server.batches": "count",
    "server.attempts": "count", "server.retries": "count",
    "server.shed": "count", "server.expired": "count",
    "shard.s": "s", "shard.us_per_attempt": "us",
    "pool.build_s": "s", "pool.ref_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result (nothing is printed)."""


# --------------------------------------------------------------------------
# Statistics.

def median(values):
    return statistics.median(values) if values else 0.0


def low_decile(values):
    """The 10th percentile, interpolated between the sorted samples.

    Unit times on a shared host come in slow phases of a few seconds, up to
    1.5x the fast ones, that cover a varying share of a run; the fast tenth
    of the units moved less from run to run than their median (README.md,
    "Noise")."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[0]


# --------------------------------------------------------------------------
# Verification.

def check_models(raw, pins):
    """Failed operations per unit: a unit whose modeled statistics differ
    from the pins (pinned seed) or from the first unit (any seed) fails all
    of its operations, on top of the functional failures the binary found."""
    units = raw["units"]
    pinned = None
    if raw["seed"] == pins.get("seed"):
        pinned = pins.get("workloads", {}).get(raw["workload"])
    expect = pinned if pinned is not None else units[0]["model"]
    failed = []
    for u in units:
        bad = u["failed"]
        if not u["model"] or u["model"] != expect:
            bad = u["attempted"]
        failed.append(bad)
    return failed


# --------------------------------------------------------------------------
# Metrics.

def host_seconds(raw):
    """run_s before scaling to the reference host speed, and the HostSpeed
    kernel's low decile in the same run."""
    timed = [u for u in raw["units"] if not u["warmup"]]
    per_unit = [u["s"] for u in timed]
    if raw["workload"] == "serve-mix":
        # Host seconds per request: the inverse of requests per host-second.
        per_unit = [u["s"] / u["attempted"] for u in timed]
    return (low_decile(per_unit),
            low_decile([u["host_speed_s"] for u in timed]))


def end_to_end(raw):
    run_s, speed_s = host_seconds(raw)
    setup_scale = REFERENCE_HOST_SPEED_S / median(raw["setup_host_speed_s"])
    return {
        "setup_s": median(raw["setup_s"]) * setup_scale,
        # The host's speed moves between runs, for whole runs at a time, by
        # more than the bound on run_s; the kernel's time moves with it.
        "run_s": run_s * REFERENCE_HOST_SPEED_S / speed_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def span_table(spans):
    """Per (name, unit): summed duration, self time and minor faults.
    Self time is a span's duration minus its children's durations."""
    dur = [s["e"] - s["b"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["p"] >= 0:
            child[s["p"]] += dur[i]
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault((s["n"], s["u"]), [0.0, 0.0, 0])
        row[0] += dur[i]
        row[1] += dur[i] - child[i]
        row[2] += s["f"]
    return table


def per_layer(raw):
    units = raw["units"]
    table = span_table(raw["spans"])
    main_engine = units[0]["engine"]
    warm = [i for i, u in enumerate(units)
            if u["traced"] and not u["warmup"] and u["engine"] == main_engine]
    serial = [i for i, u in enumerate(units)
              if u["traced"] and not u["warmup"] and u["engine"] != main_engine]

    def per_unit(name, col=0, ids=warm):
        return median([table.get((name, i), (0.0, 0.0, 0))[col] for i in ids])

    def setup(name):
        return median([row[0] for (n, u), row in table.items()
                       if n == name and u < 0])

    counters = units[warm[0]]["counters"] if warm else {}

    def count(name):
        return counters.get(name, 0.0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    m["graph.s"] = setup("graph") or setup("pool.build")
    m["graph.edges"] = raw["counts"].get("graph.edges", 0.0)
    m["pool.build_s"] = setup("pool.build")
    m["pool.ref_s"] = setup("pool.ref")

    grids = count("recorder.grids")
    m["recorder.s"] = per_unit("recorder")
    m["recorder.grids"] = grids
    m["recorder.device_grids"] = count("recorder.device_grids")
    m["recorder.warp_steps"] = count("recorder.warp_steps")
    m["recorder.us_per_grid"] = ratio(m["recorder.s"], grids, 1e6)
    m["recorder.ns_per_warp_step"] = ratio(
        m["recorder.s"], m["recorder.warp_steps"], 1e9)
    m["recorder.minor_faults"] = per_unit("recorder", col=2)
    if raw["workload"] != "serve-mix":
        # The first unit's recording. On serve-mix the server runs that read
        # the attempts for the replays come first, so no unit is cold there.
        cold = table.get(("recorder", 0), (0.0, 0.0, 0))
        m["recorder.cold_s"] = cold[0]
        m["recorder.cold_minor_faults"] = cold[2]
    m["scheduler.s"] = per_unit("scheduler")
    m["scheduler.us_per_grid"] = ratio(m["scheduler.s"], grids, 1e6)
    m["attribution.s"] = per_unit("attribution")
    m["critpath.s"] = per_unit("critpath")
    m["critpath.segments"] = count("critpath.segments")
    m["device.report_s"] = per_unit("device.report")
    m["device.report_self_s"] = per_unit("device.report", col=1)

    m["thread_pool.threads"] = raw["counts"].get("thread_pool.threads", 1.0)
    if serial:
        m["thread_pool.speedup"] = ratio(
            per_unit("recorder", ids=serial), m["recorder.s"], 1.0)

    if raw["workload"] == "serve-mix":
        m["server.s"] = per_unit("server")
        m["shard.s"] = per_unit("shard")
        # Defined so that shard.s + server.self_s == server.s.
        m["server.self_s"] = m["server.s"] - m["shard.s"]
        for name in ("batches", "attempts", "retries", "shed", "expired"):
            m["server." + name] = count("server." + name)
        m["shard.us_per_attempt"] = ratio(
            m["shard.s"], m["server.attempts"], 1e6)

    traced = [units[i]["s"] for i in warm]
    untraced = [u["s"] for u in units
                if not u["traced"] and not u["warmup"]]
    if traced and untraced:
        m["trace.overhead_s"] = median(traced) - median(untraced)
    return m


def summarize(raw, pins):
    """The benchmark's result object (the last line of stdout)."""
    failed = check_models(raw, pins)
    attempted = sum(u["attempted"] for u in raw["units"])
    total_failed = sum(failed)
    if raw["trace"]:
        values, units = per_layer(raw), PER_LAYER
    else:
        values, units = end_to_end(raw), END_TO_END
    return {
        "correct": total_failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": total_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


# --------------------------------------------------------------------------
# Build and run.

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "hostbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"nestpar sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "hostbench"


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


def run_binary(exe, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=scrubbed_env(), timeout=BINARY_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"hostbench exceeded {BINARY_TIMEOUT_S} s") from e
    if proc.returncode:
        raise BenchError(f"hostbench exited with code {proc.returncode}")
    raw = json.loads(proc.stdout)
    if raw["build"]["type"] != "Release":
        raise BenchError(f"refusing to report from a {raw['build']['type']} "
                         "build; the benchmark needs Release")
    return raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", type=Path, default=PINS,
                    help="pinned modeled statistics (default: %(default)s)")
    args = ap.parse_args(argv)
    try:
        raw = run_binary(build(), args.workload, args.seed, args.seconds,
                         args.trace)
        pins = json.loads(args.pins.read_text())
    except (BenchError, OSError) as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 2
    unscaled_run_s, host_speed_s = host_seconds(raw)
    build_info = dict(raw["build"], workload=raw["workload"], seed=raw["seed"],
                      units=len(raw["units"]), unscaled_run_s=unscaled_run_s,
                      host_speed_s=host_speed_s)
    print("# hostbench " + json.dumps(build_info, sort_keys=True))
    result = summarize(raw, pins)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
