#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 ipmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the monitoring stack and the
ipmbench runner from source (CMake, into .bench_build/ipmbench), runs one
workload, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"} with exactly the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
Exits nonzero when the build fails, the runner fails, or any verification
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "ipmbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("ipmbench: no monitoring stack sources (src/) in %s" % os.getcwd())
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ipmbench", "-j4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("ipmbench: build step failed: %s" % " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "ipmbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("ipmbench: runner exited %d without a result line" % res.returncode)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("ipmbench: end-to-end metric %s not measured" % m["name"])
                return 1
            got = {"value": 0, "unit": m["unit"]}  # layer absent from this workload
            print("# %s: not applicable to %s (reported as 0)" % (m["name"], args.workload))
        if got["unit"] != m["unit"]:
            log("ipmbench: %s unit %s != %s" % (m["name"], got["unit"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    out = {"correct": raw["correct"] and res.returncode == 0,
           "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
