#!/usr/bin/env python3
"""Diff bench JSON rows against a committed baseline — or a trend window.

The bench binaries emit machine-readable rows via --json (one object per
table row; see bench/bench_util.h MaybeEmitJson). CI uploads them as
BENCH_*.json artifacts; this tool closes the loop by comparing a fresh
run against the baseline committed under bench/baselines/, flagging any
row whose throughput — or per-lane producer-scaling efficiency, where a
row carries one — regressed by more than --max-regression (default 20%).

Rows are keyed by every identity column (bench, phase, engine, shards,
producers, threads, pinned, unit — whichever are present), so a schema
change that adds a column simply widens the key. Metric columns (seconds,
throughput, speedup, recall, efficiency) never participate in the key.
The retired "plan" and "cost" columns, which older micro_query_path rows
still carry, are ignored, so those rows key the same as current ones.

Trend mode: pass a DIRECTORY as the baseline to compare against the last
N (--last, default 5) BENCH_*.json files found in it — e.g. a folder of
downloaded CI artifacts — instead of the single committed point. Files
are ordered by modification time; each row's reference throughput is the
MEDIAN across the window, so one noisy artifact cannot flag (or mask) a
regression the way a single committed baseline can. Rows present in only
some window files use the median of the files that have them.

Exit status: 0 = no regressions, 1 = at least one flagged row, 2 = usage
or file errors. Baseline rows missing from the new run are reported as
warnings (a renamed engine should update the baseline); new rows absent
from the baseline are listed informationally and pass.

Throughput is machine-dependent: regenerate the baseline whenever the
runner hardware changes (see bench/baselines/README.md for the exact
smoke flags and steps).

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [--max-regression 0.20]
  tools/bench_compare.py ARTIFACT_DIR CURRENT.json [--last 5]
"""

import argparse
import glob
import json
import os
import statistics
import sys

METRIC_COLUMNS = frozenset(
    {"seconds", "throughput", "speedup", "recall", "efficiency"})

# Columns of retired query-plan rows: neither identity nor a metric.
RETIRED_COLUMNS = frozenset({"plan", "cost"})

# Metrics where lower-than-baseline means a regression. Efficiency is the
# micro_ingest_path producer-scaling column: throughput(P) divided by
# P times throughput(1) — it catches a scaling collapse (lanes serializing
# on each other) that absolute throughput noise can hide.
COMPARED_METRICS = ("throughput", "efficiency")


def row_key(row):
    """Identity of a row: every non-metric, non-retired column."""
    return tuple(
        sorted((k, v) for k, v in row.items()
               if k not in METRIC_COLUMNS and k not in RETIRED_COLUMNS)
    )


def format_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def load_rows(path):
    with open(path, "r", encoding="utf-8") as fp:
        rows = json.load(fp)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of row objects")
    indexed = {}
    for row in rows:
        key = row_key(row)
        if key in indexed:
            raise ValueError(f"{path}: duplicate row key ({format_key(key)})")
        indexed[key] = row
    return indexed


def load_trend_window(directory, bench_name, last):
    """Median-throughput reference rows from the last N artifacts.

    Scans `directory` recursively for files named like the current run's
    artifact (BENCH_<bench>.json — CI artifact folders nest each run), takes
    the `last` most recently modified, and builds one synthetic baseline:
    per row key, the row from the newest file carrying it with its
    throughput replaced by the median across all window files that have it.
    """
    pattern = os.path.join(directory, "**", f"BENCH_{bench_name}*.json")
    files = sorted(glob.glob(pattern, recursive=True), key=os.path.getmtime)
    if not files:
        # Fall back to any bench JSON so a flat artifact dump still works.
        pattern = os.path.join(directory, "**", "BENCH_*.json")
        files = sorted(glob.glob(pattern, recursive=True),
                       key=os.path.getmtime)
    if not files:
        raise ValueError(f"{directory}: no BENCH_*.json files found")
    window = files[-last:]
    print(f"trend window ({len(window)} artifact(s), oldest first):")
    for path in window:
        print(f"  {path}")
    merged = {}
    samples = {}
    for path in window:  # oldest → newest; newest row wins the identity
        for key, row in load_rows(path).items():
            for metric in COMPARED_METRICS:
                value = row.get(metric)
                if isinstance(value, (int, float)) and value > 0:
                    samples.setdefault((key, metric), []).append(value)
            merged[key] = dict(row)
    for (key, metric), values in samples.items():
        merged[key][metric] = statistics.median(values)
    return merged


def bench_name_of(path):
    """BENCH_micro_query_path.json -> micro_query_path."""
    stem = os.path.basename(path)
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return stem.rsplit(".", 1)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline",
        help="committed BENCH_*.json baseline, or a directory of "
        "downloaded artifacts for trend mode")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="flag rows whose throughput dropped by more than this "
        "fraction of the baseline (default: 0.20)",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=5,
        help="trend mode: number of most recent artifacts to take the "
        "median over (default: 5; ignored for a file baseline)",
    )
    args = parser.parse_args()

    try:
        if os.path.isdir(args.baseline):
            baseline = load_trend_window(args.baseline,
                                         bench_name_of(args.current),
                                         max(1, args.last))
        else:
            baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    regressions = []
    improvements = 0
    compared = 0
    for key, base_row in sorted(baseline.items()):
        new_row = current.get(key)
        if new_row is None:
            print(f"warning: baseline row missing from current run: "
                  f"{format_key(key)}")
            continue
        for metric in COMPARED_METRICS:
            base = base_row.get(metric)
            new = new_row.get(metric)
            if not isinstance(base, (int, float)) or not isinstance(
                    new, (int, float)) or base <= 0:
                continue
            compared += 1
            ratio = new / base
            if ratio < 1.0 - args.max_regression:
                regressions.append((key, metric, base, new, ratio))
            elif ratio > 1.0:
                improvements += 1

    for key in sorted(set(current) - set(baseline)):
        print(f"note: new row not in baseline: {format_key(key)}")

    for key, metric, base, new, ratio in regressions:
        print(f"REGRESSION ({(1.0 - ratio) * 100.0:.1f}% lower {metric}): "
              f"{format_key(key)}: {base:.3g} -> {new:.3g}")

    print(f"compared {compared} row metric(s): {len(regressions)} regression(s) "
          f"beyond {args.max_regression * 100.0:.0f}%, "
          f"{improvements} improvement(s)")
    if regressions:
        print("if the regression is expected (or the runner hardware "
              "changed), regenerate the baseline with the CI smoke flags "
              "and commit it over bench/baselines/")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
