#!/usr/bin/env python3
"""Build perf.exe from source, run one workload, print one JSON result line.

Usage, from the root of a checkout of the repository:

    python3 bench/perf/run.py --workload NAME --seed N --seconds T --trace 0|1

The metrics of the last stdout line are the ones BENCHMARK.json lists:
its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1.  Stores, temporaries and spans go to bench/perf/_run/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.join("bench", "perf")
RUN_DIR = os.path.join(HERE, "_run")
EXE = os.path.join("_build", "default", HERE, "perf.exe")
TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: the sources to build are missing")

    os.makedirs(RUN_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(RUN_DIR))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        "./" + EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", RUN_DIR,
    ]
    if args.trace:
        cmd += ["--trace", os.path.join(RUN_DIR, "trace")]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if not lines:
        fail("perf.exe printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perf.exe did not end with a JSON line (exit %d)" % proc.returncode)

    section, wanted = (
        ("layers", bench["per_layer"]) if args.trace else ("metrics", bench["end_to_end"])
    )
    got = result.get(section, {})
    metrics = {}
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"]:
            fail("perf.exe did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
