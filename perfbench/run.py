#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seconds S [--seed N] [--trace 0|1]

S is the measuring time; the benchmark's own run length is run_seconds in
BENCHMARK.json. Builds perfbench/bench.exe with dune (release profile, into
_perfbench_build/), runs it, checks its result against the metric names
declared in BENCHMARK.json, and prints a provenance line followed, as the
last line, by

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

--trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones,
where a layer the workload never enters reads 0. Exits non-zero, without
a result line, if the checkout cannot build or run the benchmark.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BUILD_DIR = "_perfbench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# The first run in a fresh checkout builds; every run must end by 180 s.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit; in a checkout exported without .git, a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench", "examples"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, help="default: the benchmark's fixed seed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ["BENCHMARK.json", "dune-project", "lib", "examples/serve/session.json"]:
        if not os.path.exists(needed):
            die("run from the root of a full checkout (missing %s)" % needed)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    start = time.time()
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed with exit code %d" % build.returncode)

    command = [EXE, "--workload", args.workload, "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=max(10, RUN_TIMEOUT_S - (time.time() - start)))
    except (OSError, subprocess.TimeoutExpired) as e:
        die("benchmark did not finish: %s" % e)
    if run.returncode != 0:
        die("benchmark exited with code %d" % run.returncode)

    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        die("benchmark printed no result")
    provenance, raw = json.loads(lines[-2]), json.loads(lines[-1])
    provenance["provenance"]["commit"] = source_id()
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        die("metrics not declared in BENCHMARK.json: %s" % ", ".join(unknown))
    metrics = {}
    for name, unit in declared.items():
        if name not in measured and not args.trace:
            die("end-to-end metric %s was not measured" % name)
        value = measured.get(name, 0.0)
        if not math.isfinite(value) or (value <= 0 and not args.trace):
            die("metric %s has unusable value %r" % (name, value))
        metrics[name] = {"value": value, "unit": unit}

    print(json.dumps(provenance))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
