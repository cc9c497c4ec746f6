#!/usr/bin/env python3
"""Reduce a google-benchmark JSON report to a compact, committable summary.

Usage:
    bench_summary.py RAW_JSON [-o OUTPUT_JSON] [--note KEY=VALUE]...
                     [--soak STREAM_JSON MATERIALIZED_JSON]
                     [--compare BASELINE_JSON]
                     [--ratio-threshold R] [--timing-threshold T]

Reads the file produced by
    bench_microbench --benchmark_out=raw.json --benchmark_out_format=json
and writes a stable, diff-friendly summary: per-benchmark timings plus the
derived hot-path ratios the ROADMAP tracks (event-engine overhead vs the
synchronous simulator, in-place vs allocating feature extraction, sharded
serving throughput scaling). The
summary is committed as BENCH_microbench.json so the perf trajectory is
visible PR-over-PR.

--compare turns the script into the CI regression gate: the fresh summary's
derived ratios are diffed against the committed baseline and a ratio that
moved beyond --ratio-threshold in its bad direction HARD-FAILS the run
(exit 1). Ratios compare like with like on one host, so they are stable
across hardware; raw ns timings are not — those only emit GitHub
`::warning::` annotations when they drift beyond --timing-threshold.

--soak ingests the JSON summaries bench_soak writes (one run per mode) and
adds the long-horizon memory story to the committed summary: per-mode peak
RSS and jobs/sec, plus the derived soak_peak_rss_ratio (streamed peak RSS
over materialized — the tentpole O(window)-vs-O(trace) claim, lower is
better).
"""

import argparse
import json
import sys

# Derived hot-path ratios: numerator / denominator of the named benchmark
# metric. `better` gives the ratio's good direction for the regression gate:
#   "lower"  — the ratio is an overhead factor (our path is the numerator);
#   "higher" — the ratio is a speedup factor (our path is the denominator
#              or the numerator measures throughput).
RATIOS = [
    {
        "key": "event_engine_overhead_x",
        "numerator": "BM_SimulatorReplay",
        "denominator": "BM_SimulatorReplaySynchronous",
        "metric": "real_time",
        "better": "lower",
    },
    {
        "key": "extract_vs_extract_into_x",
        "numerator": "BM_FeatureExtract",
        "denominator": "BM_FeatureExtractInto",
        "metric": "real_time",
        "better": "higher",
    },
    {
        "key": "per_job_vs_batch_x",
        "numerator": "BM_InferencePerJob",
        "denominator": "BM_InferenceBatch",
        "metric": "real_time",
        "better": "higher",
    },
    {
        # Compiled flat-forest kernel (SoA arena, blocked traversal) over
        # the node-block reference traversal, both reading the same shared
        # feature matrix. The PR-8 acceptance bar is >= 2x.
        "key": "compiled_vs_nodeblock_x",
        "numerator": "BM_InferenceNodeBlock",
        "denominator": "BM_InferenceCompiled",
        "metric": "real_time",
        "better": "higher",
    },
    {
        # Streaming replay (GeneratedStream pull, O(window) memory) over the
        # materialize-then-replay baseline, both generating and simulating
        # the same cluster end to end. The PR-10 acceptance bar is <= 1.10x
        # (absolute, see ABSOLUTE_BOUNDS); in practice streaming is faster —
        # it never builds or slices the whole-trace vector.
        "key": "stream_vs_materialized_overhead_x",
        "numerator": "BM_SimulatorReplayStream",
        "denominator": "BM_SimulatorReplayMaterialized",
        "metric": "real_time",
        "better": "lower",
    },
    {
        # Shard scaling of the serving path: requests/sec at 4 shards over
        # 1 shard. ~1.0 on a single-core host (lanes time-slice); the >= 2x
        # acceptance bar applies on the multi-core CI runner.
        "key": "serving_throughput_4v1_x",
        "numerator": "BM_ServingThroughput/4/real_time",
        "denominator": "BM_ServingThroughput/1/real_time",
        "metric": "items_per_second",
        "better": "higher",
    },
]

# Derived ratios computed from bench_soak JSON summaries (--soak) rather
# than google-benchmark runs. Gated by ABSOLUTE_BOUNDS only, not by
# relative drift: the numerator (streamed peak RSS) is small and dominated
# by the process's fixed baseline, so host-to-host baseline differences move
# the ratio by factors that a drift threshold sized for timing ratios would
# misread as regressions.
SOAK_RATIOS = {"soak_peak_rss_ratio": "lower"}

# Absolute acceptance bars, checked against the *fresh* run during
# --compare (relative drift from the baseline is checked separately): a
# fresh value past its bound hard-fails even if the committed baseline
# already satisfied it.
ABSOLUTE_BOUNDS = {
    # PR-10 acceptance: streaming replay within 1.10x of materialized.
    "stream_vs_materialized_overhead_x": ("max", 1.10),
    # Streamed peak RSS must stay well under materialized on the long-horizon
    # soak. The committed dev-host number is ~0.09 (>= 10x reduction at a
    # 20x horizon); the bound leaves room for runner base-RSS differences
    # while still catching any O(trace) reversion (which pushes it to ~1).
    "soak_peak_rss_ratio": ("max", 0.25),
}

# Fields of a bench_soak JSON summary worth committing per mode.
SOAK_FIELDS = [
    "days", "jobs", "jobs_per_sec", "peak_rss_kb", "tco_savings_pct",
    "hint_on_time_fraction", "retrain_events", "counter_rows",
]

# Per-benchmark user counters worth keeping in the committed summary.
COUNTERS = ["deadline_compliance", "requests_per_second"]

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def time_ns(run, field):
    """`field` of `run` normalized to nanoseconds via the run's time_unit."""
    return float(run[field]) * _NS_PER_UNIT[run.get("time_unit", "ns")]


def metric_value(run, metric):
    """A ratio ingredient: normalized time or a rate-style counter."""
    if metric == "real_time":
        return time_ns(run, "real_time")
    return float(run.get(metric, 0.0))


def load_runs(report):
    """Benchmark name -> run dict, preferring *_mean aggregates."""
    runs = {}
    for run in report.get("benchmarks", []):
        name = run.get("name", "")
        if run.get("run_type") == "aggregate":
            if run.get("aggregate_name") != "mean":
                continue
            name = run.get("run_name", name.rsplit("_", 1)[0])
        runs[name] = run
    return runs


def summarize(report, notes):
    runs = load_runs(report)
    benchmarks = {}
    for name in sorted(runs):
        run = runs[name]
        entry = {
            "real_time_ns": round(time_ns(run, "real_time"), 1),
            "cpu_time_ns": round(time_ns(run, "cpu_time"), 1),
        }
        if "items_per_second" in run:
            entry["items_per_second"] = round(float(run["items_per_second"]))
        for counter in COUNTERS:
            if counter in run:
                entry[counter] = round(float(run[counter]), 4)
        benchmarks[name] = entry

    derived = {}
    for ratio in RATIOS:
        if ratio["numerator"] in runs and ratio["denominator"] in runs:
            num = metric_value(runs[ratio["numerator"]], ratio["metric"])
            den = metric_value(runs[ratio["denominator"]], ratio["metric"])
            if den > 0.0:
                derived[ratio["key"]] = round(num / den, 3)

    summary = {
        "source": "bench_microbench (google-benchmark JSON)",
        "benchmarks": benchmarks,
        "derived": derived,
    }
    if notes:
        summary["notes"] = notes
    return summary


def ingest_soak(summary, stream_path, materialized_path):
    """Fold two bench_soak JSON summaries (one per mode) into `summary`."""
    modes = {}
    for path in (stream_path, materialized_path):
        with open(path, "r", encoding="utf-8") as f:
            run = json.load(f)
        entry = {k: run[k] for k in SOAK_FIELDS if k in run}
        modes[run["mode"]] = entry
    if sorted(modes) != ["materialized", "stream"]:
        raise SystemExit(
            f"--soak needs one stream and one materialized run, got modes "
            f"{sorted(modes)}")
    summary["soak"] = modes
    stream_rss = float(modes["stream"].get("peak_rss_kb", 0))
    mat_rss = float(modes["materialized"].get("peak_rss_kb", 0))
    if mat_rss > 0.0:
        summary["derived"]["soak_peak_rss_ratio"] = round(
            stream_rss / mat_rss, 3)


def compare(fresh, baseline, ratio_threshold, timing_threshold):
    """Diff `fresh` against the committed `baseline` summary.

    Returns (failures, warnings): lists of human-readable messages. Only
    derived-ratio regressions are failures; raw timing drift is warn-only
    because absolute ns are not comparable across hosts.
    """
    failures = []
    warnings = []

    directions = {ratio["key"]: ratio["better"] for ratio in RATIOS}
    directions.update(SOAK_RATIOS)
    base_derived = baseline.get("derived", {})
    for key, base in sorted(base_derived.items()):
        if key not in fresh.get("derived", {}):
            failures.append(
                f"derived ratio {key} missing from fresh run "
                f"(baseline {base}); was its benchmark removed?")
            continue
        if key in SOAK_RATIOS:
            continue  # no drift check — absolute bound only (see SOAK_RATIOS)
        value = fresh["derived"][key]
        if base <= 0.0:
            continue
        better = directions.get(key, "lower")
        if better == "higher":
            # Speedup/throughput ratio: a drop is a regression.
            change = (base - value) / base
        else:
            # Overhead ratio: a rise is a regression.
            change = (value - base) / base
        if change > ratio_threshold:
            failures.append(
                f"derived ratio {key} regressed: {base} -> {value} "
                f"({change:+.0%} in the bad direction, threshold "
                f"{ratio_threshold:.0%}, better={better})")

    for key, (kind, bound) in sorted(ABSOLUTE_BOUNDS.items()):
        value = fresh.get("derived", {}).get(key)
        if value is None:
            continue
        if (kind == "max" and value > bound) or (
                kind == "min" and value < bound):
            failures.append(
                f"derived ratio {key} = {value} violates its absolute "
                f"acceptance bound ({kind} {bound})")

    base_benchmarks = baseline.get("benchmarks", {})
    for name, base_entry in sorted(base_benchmarks.items()):
        fresh_entry = fresh.get("benchmarks", {}).get(name)
        if fresh_entry is None:
            warnings.append(f"benchmark {name} missing from fresh run")
            continue
        base_ns = base_entry.get("real_time_ns", 0.0)
        fresh_ns = fresh_entry.get("real_time_ns", 0.0)
        if base_ns <= 0.0:
            continue
        drift = (fresh_ns - base_ns) / base_ns
        if drift > timing_threshold:
            warnings.append(
                f"benchmark {name} slower than baseline: "
                f"{base_ns:.0f}ns -> {fresh_ns:.0f}ns ({drift:+.0%}; "
                f"warn-only, raw timings vary across hosts)")
    return failures, warnings


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw", help="google-benchmark JSON report")
    parser.add_argument("-o", "--output", default="BENCH_microbench.json")
    parser.add_argument(
        "--note", action="append", default=[], metavar="KEY=VALUE",
        help="annotation embedded under 'notes' (repeatable)")
    parser.add_argument(
        "--soak", nargs=2, metavar=("STREAM_JSON", "MATERIALIZED_JSON"),
        help="bench_soak JSON summaries (one per mode) to fold into the "
             "summary; derives soak_peak_rss_ratio")
    parser.add_argument(
        "--compare", metavar="BASELINE_JSON",
        help="committed summary to gate against; derived-ratio regressions "
             "beyond --ratio-threshold exit 1")
    parser.add_argument(
        "--ratio-threshold", type=float, default=0.5,
        help="hard-fail when a tracked ratio moves this fraction in its bad "
             "direction (default 0.5: generous, sized to cross-host "
             "variance of the committed numbers)")
    parser.add_argument(
        "--timing-threshold", type=float, default=0.25,
        help="warn when a raw timing is this fraction slower (default 0.25; "
             "never fails the run)")
    args = parser.parse_args(argv)

    with open(args.raw, "r", encoding="utf-8") as f:
        report = json.load(f)

    notes = {}
    for note in args.note:
        key, _, value = note.partition("=")
        if not key or not value:
            parser.error(f"--note must be KEY=VALUE, got {note!r}")
        notes[key] = value

    summary = summarize(report, notes)
    if args.soak:
        ingest_soak(summary, args.soak[0], args.soak[1])
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}: {len(summary['benchmarks'])} benchmarks, "
          f"{len(summary['derived'])} derived ratios")

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        failures, warnings = compare(summary, baseline,
                                     args.ratio_threshold,
                                     args.timing_threshold)
        for message in warnings:
            print(f"::warning::{message}")
        for message in failures:
            print(f"::error::{message}")
        if failures:
            print(f"{len(failures)} tracked ratio(s) regressed beyond "
                  f"{args.ratio_threshold:.0%} vs {args.compare}")
            return 1
        tracked = len(baseline.get("derived", {}))
        print(f"compare OK vs {args.compare}: {tracked} ratios within "
              f"threshold, {len(warnings)} timing warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
