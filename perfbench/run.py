#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/perfbench.exe from
source with dune (the first run in a fresh checkout compiles the
libraries it links), runs it, passes its report through, and ends with
one JSON line holding exactly the metrics BENCHMARK.json names for the
run: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Exits non-zero without a result line when the checkout
cannot be built, the run fails a correctness check, or a metric is
missing.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project in the current directory: run from the root "
             "of a checkout of the repository")
    try:
        b = subprocess.run(
            dune_command() + ["build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if b.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(b.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % a.workload)

    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(run.stderr)
    if run.returncode != 0 or not lines:
        fail("run failed (exit %d)" % run.returncode)

    result = json.loads(lines[-1])
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, not %s" % (m["name"], got["unit"], m["unit"]))
        if not math.isfinite(got["value"]):
            fail("metric %s is not finite" % m["name"])
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
