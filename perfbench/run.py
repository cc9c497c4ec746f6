#!/usr/bin/env python3
"""End-to-end placement-simulation benchmark.

Builds the benchmark binary from source (the placement library under src/
plus perfbench/src/), runs one workload for the requested seconds, checks
its outputs, and prints one JSON result line last:

    python3 perfbench/run.py --workload served_arrival --seed 2025 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics from an untraced run; --trace 1
reports the per-layer metrics from a separate traced run. Run from the
root of a checkout; everything is built and written under .bench_build/.
See perfbench/README.md for the workloads and how to read the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DEFAULT_SEED = 2025
WORKLOADS = ("served_arrival", "served_fleet")

END_TO_END = ("jobs_per_s", "setup_s", "peak_rss_mb", "tco_savings_pct",
              "hint_on_time_pct")
PER_LAYER = (
    "trace.train_week_s", "trace.summary_s", "trace.next_ns_per_job",
    "ml.train_s", "harness.cell_build_s",
    "policy.decide_ns_per_job", "policy.decide_cpu_ns_per_job",
    "policy.decide_offcpu_ns_per_job", "policy.decide_p50_ns",
    "policy.decide_p999_ns", "policy.decide_samples",
    "core.predict_ns_per_job", "core.predict_cpu_ns_per_job",
    "core.predict_offcpu_ns_per_job", "features.extract_ns_per_job",
    "policy.on_placed_ns_per_job", "policy.ssd_pct",
    "serving.enqueue_ns_per_job", "serving.enqueue_offcpu_ns_per_job",
    "serving.batches", "serving.rows_per_batch", "serving.lookup_hit_pct",
    "serving.late", "serving.dropped", "sim.engine_ns_per_job",
    "sim.events_per_job", "replay.traced_ns_per_job",
    "replay.accounted_pct", "replay.wall_ns_per_job",
    "replay.cpu_ns_per_job", "replay.offcpu_ns_per_job",
    "tracing_overhead_pct")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_sha256():
    """Hash of every library and benchmark source, so a record names the
    exact code it measured even outside git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stored_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        stored = json.load(f)
    if seed != stored["seed"]:
        return None
    return stored["digests"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not build():
        return 2

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("runs", "spans"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(BUILD, "spans", name + ".json")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark binary failed (exit %d)" % done.returncode)
        return 1
    raw = json.loads(lines[-1])

    failures = list(raw["failures"])
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    expected = stored_digest(args.workload, args.seed)
    if expected is not None and raw["digest"] != expected:
        failures.append("SimResult digest %s != stored %s"
                        % (raw["digest"], expected))
        failed = attempted
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in wanted if m not in raw["metrics"]]
    if missing:
        failures.append("metrics missing: " + ", ".join(missing))
    if attempted < 1:
        failures.append("no jobs attempted")
    if failures and failed == 0:
        failed = max(attempted, 1)
    correct = not failures

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host_cpu": cpu_model(),
        "nproc": os.cpu_count(), "compiler": raw["compiler"],
        "build_type": raw["build_type"], "git_sha": git_sha(),
        "source_sha256": source_sha256(), "replays": raw["replays"],
        "jobs_per_replay": raw["jobs_per_replay"], "digest": raw["digest"],
        "digest_checked": expected is not None, "failures": failures,
        "metrics": raw["metrics"],
    }
    with open(os.path.join(BUILD, "runs", name + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    for failure in failures:
        log("check failed: " + failure)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: raw["metrics"][m] for m in wanted
                    if m in raw["metrics"]},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
