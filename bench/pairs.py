#!/usr/bin/env python3
"""Compare two checkouts in alternating pairs of runs.

Usage, from the root of the checkout under test (the tree):

    python3 bench/pairs.py perf --parent DIR [--workload W] [--n N]
    python3 bench/pairs.py full [--parent DIR] [--n N]

perf runs `python3 perfbench/run.py --workload W --seconds S` N times
(default 10) in DIR and in the tree, alternating which side goes first,
with S the run_seconds of BENCHMARK.json, over W or every workload listed
there. For each end-to-end metric it prints each side's median,
[min, max] and quartile distance, the pairs the change won and one
verdict word (see `verdict`); then each side's attempted and failed
operations. It stops with exit 1 at any run that exits non-zero, prints
no result line or reports `correct: false`.

full builds bin/faultroute.exe in both checkouts (release profile, into
the gitignored _perfbench_build/, so the dev _build/ is untouched), then
runs full `all --jobs 2` N times (default 3) per side, alternating
likewise. Every run's stdout must equal the first run's. It reports each
run's wall seconds and peak RSS, their medians and the change's wins.
Without --parent only the tree runs.

Both record each side's commit and whether its tree is dirty, and end
with one JSON line holding the table.
"""

import argparse
import filecmp
import json
import math
import os
import subprocess
import sys
import time

# run.py's build directory: release profile, and gitignored at every commit
# that has perfbench, so building there leaves a checkout clean.
BUILD_DIR = "_perfbench_build"
FULL_EXE = os.path.join(BUILD_DIR, "default", "bin", "faultroute.exe")
FULL_OUT = os.path.join("artifacts", "TIMING_out.txt")
FULL_FIRST = os.path.join("artifacts", "TIMING_first.txt")


def die(message, code=1):
    print("pairs: " + message, file=sys.stderr)
    sys.exit(code)


def quantile(xs, q):
    """Linear interpolation between order statistics.

    >>> quantile([5, 1, 4, 2, 3], 0.25), quantile([1, 2, 3, 4, 5], 0.75)
    (2.0, 4.0)
    >>> quantile([1, 2, 3, 4], 0.25), quantile([1, 2, 3, 4], 0.75)
    (1.75, 3.25)
    """
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartile_distance(xs):
    """Upper minus lower quartile, at odd and even counts alike.

    >>> quartile_distance([1, 2, 3, 4, 5])
    2.0
    >>> quartile_distance([1, 2, 3, 4])
    1.5
    """
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def summary(xs):
    return {"median": quantile(xs, 0.5), "min": min(xs), "max": max(xs),
            "iqr": quartile_distance(xs)}


def better_than(a, b, better):
    """Whether value a reads better than value b.

    >>> better_than(1.0, 2.0, "lower"), better_than(1.0, 2.0, "higher")
    (True, False)
    >>> better_than(2.0, 2.0, "lower"), better_than(2.0, 2.0, "higher")
    (False, False)
    """
    return a < b if better == "lower" else a > b


def wins(parent, change, better):
    """Pairs (runs of the same round) the change won; a tie counts for neither.

    >>> wins([3, 3, 3], [2, 3, 4], "lower")
    1
    >>> wins([3, 3, 3], [2, 3, 4], "higher")
    1
    """
    return sum(better_than(c, p, better) for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """One word for a metric measured in pairs, the first rule that holds:

    gain:       the change won at least 9 pairs in 10, and its median is
                better than the parent's by more than the parent's
                quartile distance;
    worse:      the change's median is worse than the parent's by more
                than the bound, relative to the parent's median;
    unresolved: the parent's quartile distance over its median is wider
                than the bound, and not every change run reads better
                than every parent run;
    even:       anything else.

    9 wins of 10 with the medians far apart is a gain; 8 is not.

    >>> parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    >>> verdict(parent, [p - 0.2 for p in parent[:9]] + [1.10], "lower", 0.25)
    'gain'
    >>> verdict(parent, [p - 0.2 for p in parent[:8]] + [1.10, 1.10], "lower", 0.25)
    'even'
    >>> verdict(parent, [p + 0.2 for p in parent[:9]] + [0.90], "higher", 0.25)
    'gain'

    A median worse by more than the bound, for either direction:

    >>> verdict([1.0] * 10, [1.3] * 10, "lower", 0.25)
    'worse'
    >>> verdict([1.0] * 10, [1.2] * 10, "lower", 0.25)
    'even'
    >>> verdict([1.0] * 10, [0.7] * 10, "higher", 0.25)
    'worse'

    A parent whose spread exceeds the bound cannot tell a change apart,
    unless every change run reads better than every parent run:

    >>> wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    >>> verdict(wide, wide, "lower", 0.25)
    'unresolved'
    >>> split = [0.95] * 5 + [1.5] * 5
    >>> verdict(split, [0.9] * 10, "lower", 0.25)
    'even'
    >>> verdict(split, [0.9] * 9 + [0.96], "lower", 0.25)
    'unresolved'
    """
    p, c = quantile(parent, 0.5), quantile(change, 0.5)
    if (10 * wins(parent, change, better) >= 9 * len(parent)
            and better_than(c, p, better) and abs(c - p) > quartile_distance(parent)):
        return "gain"
    if (c - p if better == "lower" else p - c) > bound * p:
        return "worse"
    worst_change = max(change) if better == "lower" else min(change)
    best_parent = min(parent) if better == "lower" else max(parent)
    if (quartile_distance(parent) > bound * p
            and not better_than(worst_change, best_parent, better)):
        return "unresolved"
    return "even"


def provenance(directory):
    def git(*args):
        out = subprocess.run(["git", "-C", directory] + list(args), capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else status != ""}


def sides(parent):
    """The checkouts that run, by name and directory; the tree is the cwd."""
    return ([] if parent is None else [("parent", parent)]) + [("change", os.getcwd())]


def order(names, round_index):
    """Each round alternates which side goes first.

    >>> order(["parent", "change"], 0), order(["parent", "change"], 1)
    (['parent', 'change'], ['change', 'parent'])
    """
    return names if round_index % 2 == 0 else names[::-1]


def fmt(x):
    return "%.4g" % x


def print_rows(rows):
    """rows: (label, {side: summary}, extra columns) per metric."""
    width = max(len(label) for label, _, _ in rows)
    print("  %-*s  %s" % (width, "metric", "   ".join(
        "%-36s" % ("%s median [min, max] iqr" % side) for side in rows[0][1])))
    for label, by_side, extra in rows:
        cells = ["%s [%s, %s] iqr %s" % (fmt(s["median"]), fmt(s["min"]), fmt(s["max"]),
                                          fmt(s["iqr"]))
                 for s in by_side.values()]
        print("  %-*s  %s" % (width, label, "   ".join(["%-36s" % c for c in cells] + extra)))


def print_header(title, checkouts):
    print("== %s ==" % title)
    for name, info in checkouts.items():
        print("  %-7s %s%s" % (name, info["commit"] or "(no commit)",
                               " (dirty)" if info["dirty"] else ""))


def perf_run(directory, workload, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", repr(seconds)]
    run = subprocess.run(command, cwd=directory, stdout=subprocess.PIPE, text=True)
    where = "%s in %s" % (workload, directory)
    if run.returncode != 0:
        die("%s: perfbench exited with code %d" % (where, run.returncode))
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        die("%s: perfbench printed no result line" % where)
    if result.get("correct") is not True:
        die("%s: perfbench reports correct: %s" % (where, json.dumps(result.get("correct"))))
    return metrics, result["attempted"], result["failed"]


def perf(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in listed:
        die("workload %r is not listed in BENCHMARK.json (%s)"
            % (args.workload, ", ".join(listed)), 2)
    seconds = spec["run_seconds"]
    dirs = dict(sides(args.parent))
    checkouts = {name: provenance(d) for name, d in dirs.items()}
    names = list(checkouts)
    table = {}
    for workload in [args.workload] if args.workload else listed:
        runs = {name: [] for name in names}
        ops = {name: [0, 0] for name in names}
        for i in range(args.n):
            for name in order(names, i):
                metrics, attempted, failed = perf_run(dirs[name], workload, seconds)
                runs[name].append(metrics)
                ops[name][0] += attempted
                ops[name][1] += failed
                print("pairs: %s round %d/%d %s: %s" % (
                    workload, i + 1, args.n, name,
                    " ".join("%s=%s" % (m["name"], fmt(metrics[m["name"]]))
                             for m in spec["end_to_end"])), file=sys.stderr, flush=True)
        share = {name: ops[name][1] / ops[name][0] if ops[name][0] else 0.0
                 for name in names}
        entry = {"pairs": args.n, "run_seconds": seconds, "metrics": {},
                 "attempted": {name: ops[name][0] for name in names},
                 "failed": {name: ops[name][1] for name in names},
                 "failed_share_rose": share["change"] > share["parent"]}
        rows = []
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            values = {side: [r[name] for r in runs[side]] for side in names}
            row = {side: summary(values[side]) for side in names}
            row["wins"] = wins(values["parent"], values["change"], better)
            row["verdict"] = verdict(values["parent"], values["change"], better, bound)
            entry["metrics"][name] = row
            rows.append(("%s (%s, %s, bound %s)" % (name, m["unit"], better, bound),
                         {side: row[side] for side in names},
                         ["wins %d/%d" % (row["wins"], args.n), row["verdict"]]))
        table[workload] = entry
        print_header("%s: %d pairs of %s s runs" % (workload, args.n, seconds), checkouts)
        print_rows(rows)
        for name in names:
            print("  %s operations: %d attempted, %d failed" % (name, *ops[name]))
        if entry["failed_share_rose"]:
            print("  FLAG: the change's failed share (%.3g) is above the parent's (%.3g)"
                  % (share["change"], share["parent"]))
    print(json.dumps({"mode": "perf", "checkouts": checkouts, "workloads": table},
                     sort_keys=True))


def full_build(directory):
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./bin/faultroute.exe"],
        cwd=directory, stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        die("build in %s failed with exit code %d" % (directory, build.returncode))


def full_run(directory):
    """One full `all --jobs 2`: wall seconds and peak RSS in MB (from wait4)."""
    with open(FULL_OUT, "wb") as out:
        start = time.monotonic()
        child = subprocess.Popen([os.path.join(directory, FULL_EXE), "all", "--jobs", "2"],
                                 cwd=directory, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.monotonic() - start
    # Reaped by wait4 above; tell Popen so it does not wait again.
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        die("all --jobs 2 in %s exited with code %d" % (directory, child.returncode))
    return wall, usage.ru_maxrss / 1024.0


def full(args):
    dirs = dict(sides(args.parent))
    checkouts = {name: provenance(d) for name, d in dirs.items()}
    names = list(checkouts)
    for name in names:
        full_build(dirs[name])
    os.makedirs("artifacts", exist_ok=True)
    if os.path.exists(FULL_FIRST):
        os.remove(FULL_FIRST)
    runs = {name: {"wall_s": [], "peak_rss_mb": []} for name in names}
    for i in range(args.n):
        for name in order(names, i):
            wall, rss = full_run(dirs[name])
            if not os.path.exists(FULL_FIRST):
                os.replace(FULL_OUT, FULL_FIRST)
            elif not filecmp.cmp(FULL_FIRST, FULL_OUT, shallow=False):
                die("%s run %d: output differs from the first run's" % (name, i + 1))
            runs[name]["wall_s"].append(wall)
            runs[name]["peak_rss_mb"].append(rss)
            print("pairs: full round %d/%d %s: wall_s=%.2f peak_rss_mb=%.1f"
                  % (i + 1, args.n, name, wall, rss), file=sys.stderr, flush=True)
    print_header("full all --jobs 2: %d round%s, every stdout equal"
                 % (args.n, "" if args.n == 1 else "s"), checkouts)
    table = {}
    rows = []
    for metric in ["wall_s", "peak_rss_mb"]:
        row = {name: dict(summary(runs[name][metric]), runs=runs[name][metric])
               for name in names}
        extra = []
        if "parent" in names:
            row["wins"] = wins(runs["parent"][metric], runs["change"][metric], "lower")
            extra = ["wins %d/%d" % (row["wins"], args.n)]
        table[metric] = row
        rows.append((metric, {name: row[name] for name in names}, extra))
        for name in names:
            print("  %-11s %-7s runs %s" % (metric, name,
                                           " ".join(fmt(x) for x in runs[name][metric])))
    print_rows(rows)
    print(json.dumps({"mode": "full", "checkouts": checkouts, "metrics": table},
                     sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    perf_parser = modes.add_parser("perf", help="perfbench pairs")
    perf_parser.add_argument("--parent", required=True, help="the parent checkout")
    perf_parser.add_argument("--workload", help="default: every workload in BENCHMARK.json")
    perf_parser.add_argument("--n", type=int, default=10, help="rounds per workload")
    full_parser = modes.add_parser("full", help="full `all --jobs 2` pairs")
    full_parser.add_argument("--parent", help="the parent checkout; without it only the tree runs")
    full_parser.add_argument("--n", type=int, default=3, help="rounds")
    args = parser.parse_args()
    if args.n < 1:
        die("--n must be at least 1", 2)
    for needed in ["BENCHMARK.json", "perfbench/run.py", "bin"]:
        if not os.path.exists(needed):
            die("run from the root of a checkout (missing %s)" % needed, 2)
    if args.parent is not None:
        args.parent = os.path.abspath(args.parent)
        if not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
            die("--parent %s is not a checkout with perfbench/run.py" % args.parent, 2)
    if args.mode == "perf":
        perf(args)
    else:
        full(args)


if __name__ == "__main__":
    main()
