#!/usr/bin/env python3
"""Record, summarise and compare end-to-end benchmark runs.

  compare.py record DIR --runs N --out FILE [--first-seed S] [--seconds T]
                        [--trace] [--workload W ...]
      Runs bench/e2e/run.sh in checkout DIR once per seed and workload and
      appends one JSON line per run (result, context, commit) to FILE.

  compare.py ab PARENT_DIR CHANGE_DIR [--runs 10] [--seconds T]
                [--workload W ...] [--out FILE]
      Alternating parent/change runs on the same seeds (the side that goes
      first alternates from pair to pair), then the report below.

  compare.py report FILE [CHANGE_FILE]
      One file: per workload x metric, the median, quartiles and spread
      (IQR / median) against the metric's bound. Two files (parent first):
      runs pair up by (workload, seed, trace) and every row gets a verdict.

  compare.py --self-test

Verdicts (bounds and directions come from BENCHMARK.json):
  improved    the change wins >= 90% of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  neither, but a side's spread exceeds the bound, unless every
              change run reads better than every parent run
  unchanged   otherwise
Per-layer metrics have no bound; their rows carry no verdict.

The comparison exits 1 on any worse row, on a higher failed/attempted
ratio, or on any run whose oracle failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["knn_serve", "ingest_live", "paged_cold", "frames_ingest"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def run_once(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    context = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("no result from %s (exit %d)" % (checkout,
                                                         proc.returncode))
    try:
        commit = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": 1 if trace else 0, "commit": commit,
            "context": context, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    """Verdict of one workload x metric row; parent/change pair by index."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1p, q3p = quartiles(parent)
    q1c, q3c = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_rate = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "-", win_rate
    sign = 1.0 if direction == "lower" else -1.0
    worse_frac = sign * (mc - mp) / abs(mp) if mp else 0.0
    spread = max((q3p - q1p) / abs(mp) if mp else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    if win_rate >= 0.9 and sign * (mp - mc) > (q3p - q1p):
        return "improved", win_rate
    if worse_frac > bound:
        return "worse", win_rate
    if spread > bound:
        all_better = all(better(c, p, direction)
                         for c in change for p in parent)
        return ("unchanged" if all_better else "unresolved"), win_rate
    return "unchanged", win_rate


def group(records):
    """{(workload, trace): {seed: record}}"""
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return out


def fmt(v):
    return "%.4g" % v


def check_runs(records, label):
    ok = True
    for r in records:
        if not r["result"]["correct"]:
            print("%s: %s seed %s failed its oracle"
                  % (label, r["workload"], r["seed"]))
            ok = False
    return ok


def summarise(records, metrics):
    """Per workload x metric spread table of one set of runs. Returns the
    rows whose spread exceeds the metric's bound."""
    over = []
    print("%-14s %-34s %4s %11s %11s %11s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for (workload, trace), runs in sorted(group(records).items()):
        names = list(next(iter(runs.values()))["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"]
                    for r in runs.values()]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  > bound"
                over.append((workload, name))
            print("%-14s %-34s %4d %11s %11s %11s %7.1f%% %6s%s" % (
                workload, name, len(vals), fmt(med), fmt(q1), fmt(q3),
                100 * spread, "-" if bound is None else "%g" % bound, flag))
    return over


def compare(parent_records, change_records, metrics):
    """Prints the verdict table; returns the process exit code."""
    parent_ok = check_runs(parent_records, "parent")
    change_ok = check_runs(change_records, "change")
    status = 0 if parent_ok and change_ok else 1
    parent, change = group(parent_records), group(change_records)
    print("%-14s %-34s %4s %11s %11s %11s %11s %5s  %s" % (
        "workload", "metric", "n", "parent_med", "parent_iqr", "change_med",
        "change_iqr", "wins", "verdict"))
    for key in sorted(parent):
        if key not in change:
            continue
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        workload = key[0]
        p_runs = [parent[key][s]["result"] for s in seeds]
        c_runs = [change[key][s]["result"] for s in seeds]
        for name in p_runs[0]["metrics"]:
            if name not in c_runs[0]["metrics"]:
                continue
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            m = metrics.get(name, {"better": "lower", "bound": None})
            v, win_rate = verdict(pv, cv, m["better"], m.get("bound"))
            if v == "worse":
                status = 1
            pq, cq = quartiles(pv), quartiles(cv)
            print("%-14s %-34s %4d %11s %11s %11s %11s %4.0f%%  %s" % (
                workload, name, len(seeds), fmt(statistics.median(pv)),
                fmt(pq[1] - pq[0]), fmt(statistics.median(cv)),
                fmt(cq[1] - cq[0]), 100 * win_rate, v))
        pf = sum(r["failed"] for r in p_runs) / max(
            1, sum(r["attempted"] for r in p_runs))
        cf = sum(r["failed"] for r in c_runs) / max(
            1, sum(r["attempted"] for r in c_runs))
        print("%-14s %-34s %4d %11s %11s %11s %11s %5s  %s" % (
            workload, "fail_ratio", len(seeds), fmt(pf), "", fmt(cf), "", "",
            "worse" if cf > pf else "unchanged"))
        if cf > pf:
            status = 1
    return status


def self_test():
    import random
    rng = random.Random(7)
    metrics = {"lat_ms": {"better": "lower", "bound": 0.1},
               "qps": {"better": "higher", "bound": 0.1},
               "layer_us": {"better": "lower", "bound": None}}
    base = [100 + rng.gauss(0, 1) for _ in range(10)]
    cases = [
        ("identical", base, base, "lat_ms", "unchanged"),
        ("20% slower", base, [v * 1.2 for v in base], "lat_ms", "worse"),
        ("20% faster", base, [v * 0.8 for v in base], "lat_ms", "improved"),
        ("20% more qps", base, [v * 1.2 for v in base], "qps", "improved"),
        ("20% fewer qps", base, [v * 0.8 for v in base], "qps", "worse"),
        ("5% slower, tight", base, [v * 1.05 for v in base], "lat_ms",
         "unchanged"),
        ("noisy", [100, 70, 130, 85, 115, 95, 105, 60, 140, 100],
         [100, 130, 70, 115, 85, 105, 95, 140, 60, 100], "lat_ms",
         "unresolved"),
        ("per-layer", base, [v * 2 for v in base], "layer_us", "-"),
    ]
    ok = True
    for label, p, c, name, want in cases:
        got, _ = verdict(p, c, metrics[name]["better"], metrics[name]["bound"])
        if got != want:
            print("self-test FAILED: %s: got %s, want %s" % (label, got, want))
            ok = False

    def rec(seed, value, failed=0, correct=True):
        return {"workload": "w", "seed": seed, "trace": 0,
                "result": {"correct": correct, "attempted": 100,
                           "failed": failed,
                           "metrics": {"lat_ms": {"value": value,
                                                  "unit": "ms"}}}}
    quiet = open(os.devnull, "w")
    stdout, sys.stdout = sys.stdout, quiet
    try:
        same = compare([rec(s, base[s]) for s in range(10)],
                       [rec(s, base[s]) for s in range(10)], metrics)
        more_failed = compare([rec(s, base[s]) for s in range(10)],
                              [rec(s, base[s], failed=1) for s in range(10)],
                              metrics)
        bad_oracle = compare([rec(s, base[s]) for s in range(10)],
                             [rec(s, base[s], correct=s != 3)
                              for s in range(10)], metrics)
        slower = compare([rec(s, base[s]) for s in range(10)],
                         [rec(s, base[s] * 1.3) for s in range(10)], metrics)
    finally:
        sys.stdout = stdout
        quiet.close()
    for label, got, want in [("same runs", same, 0),
                             ("more failures", more_failed, 1),
                             ("failed oracle", bad_oracle, 1),
                             ("slower", slower, 1)]:
        if got != want:
            print("self-test FAILED: %s: exit %d, want %d" % (label, got,
                                                             want))
            ok = False
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("checkout")
    rec.add_argument("--runs", type=int, required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--trace", action="store_true")
    ab = sub.add_parser("ab")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.add_argument("--runs", type=int, default=10)
    ab.add_argument("--out")
    for p in (rec, ab):
        p.add_argument("--seconds", type=int)
        p.add_argument("--workload", action="append", choices=WORKLOADS)
    rep = sub.add_parser("report")
    rep.add_argument("files", nargs="+")
    args = ap.parse_args()

    spec, metrics = load_spec()
    if args.cmd == "report":
        if len(args.files) == 1:
            records = read_records(args.files[0])
            ok = check_runs(records, args.files[0])
            return 1 if summarise(records, metrics) or not ok else 0
        return compare(read_records(args.files[0]),
                       read_records(args.files[1]), metrics)

    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or WORKLOADS
    if args.cmd == "record":
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for w in workloads:
                r = run_once(args.checkout, w, seed, seconds, args.trace)
                append(args.out, r)
                print("%s seed %d: correct=%s" % (w, seed,
                                                  r["result"]["correct"]))
        return 0

    parent, change = [], []
    for i, seed in enumerate(range(1, args.runs + 1)):
        for w in workloads:
            sides = [("parent", args.parent, parent),
                     ("change", args.change, change)]
            for side, checkout, sink in (sides if i % 2 == 0 else sides[::-1]):
                r = run_once(checkout, w, seed, seconds, False)
                r["side"] = side
                sink.append(r)
                if args.out:
                    append(args.out, r)
    return compare(parent, change, metrics)


if __name__ == "__main__":
    sys.exit(main())
