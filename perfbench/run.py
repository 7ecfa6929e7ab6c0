#!/usr/bin/env python3
"""Build and run the benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload fig6|fig6-pages|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/main.exe with
dune (build output goes to stderr), runs it with the same arguments,
and passes its stdout through; the last line is the JSON result. Exits
non-zero, without a result, when the checkout lacks the repository's
sources or the build fails.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_metrics(metrics):
    """The result must carry exactly BENCHMARK.json's metrics and units."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    spec = bench["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in metrics.items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            set(want.items()) ^ set(got.items())))


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s not found" % need)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
             "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    # One malloc arena: with glibc's default of one arena per thread, the
    # resident size of the threaded daemon depends on which threads
    # happened to allocate, and peak_rss_mb would measure that luck
    # rather than the program's memory.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        proc = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write((e.stdout or b"").decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("the last output line is not a JSON result")
        if set(result) != RESULT_KEYS:
            fail("unexpected result keys %s" % sorted(result))
        check_metrics(result["metrics"])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
