#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload scan_distinct --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from ../src)
into .bench_build/perfbench; later runs rebuild incrementally. The benchmark
binary's output is passed through, and the last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"} holding exactly the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). A per-layer metric of a layer the workload does not exercise
reads 0.

Exit codes: 0 when every correctness gate passed, 1 when a gate failed or the
build or run broke, 2 on a bad invocation or an incomplete checkout.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to %s; run from a full checkout" %
             BENCH_DIR, 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(os.path.dirname(BUILD_DIR), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed (%s); see %s" % (" ".join(step[:2]), log_path))
    return os.path.join(BUILD_DIR, target)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            return json.load(spec_file)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error, 2)


def run_binary(command):
    # The model's thread pool is pinned to two threads unless the caller
    # chooses: on a shared four-core host a pool as wide as the machine
    # competes with the scan producer, the server's connection threads and
    # the load generator, and the run-to-run spread of serve_open's
    # sustainable rate grows from under 1% to about 10%.
    env = dict(os.environ)
    env.setdefault("HOTSPOT_NUM_THREADS", "2")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, env=env)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        fail("%s timed out after %d s" % (os.path.basename(command[0]),
                                          RUN_TIMEOUT_S))
    finally:
        # A killed run cannot remove its own scratch directory.
        for leftover in glob.glob(os.path.join(
                SCRATCH_DIR, "run-%d-*" % process.pid)):
            shutil.rmtree(leftover, ignore_errors=True)
    return process.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        code, out = run_binary([binary, "--root", ROOT])
        sys.stdout.write(out)
        return code

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not 0 <= args.seed < 2 ** 32 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be in [0, 2^32) and --seconds in [1, 600]")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build("perfbench")
    code, out = run_binary([binary, "--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", str(args.trace), "--root", ROOT])
    lines = out.rstrip("\n").split("\n")
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("the benchmark binary printed no result (exit code %d)" % code)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    metrics = {}
    for name in units:
        if name in measured["metrics"]:
            metrics[name] = measured["metrics"][name]
            if metrics[name]["unit"] != units[name]:
                fail("%s is measured in %s, BENCHMARK.json says %s" %
                     (name, metrics[name]["unit"], units[name]))
        elif args.trace:
            metrics[name] = {"value": 0.0, "unit": units[name]}
        else:
            fail("%s did not measure end-to-end metric %s" % (args.workload, name))
    result = {key: measured[key] for key in RESULT_KEYS[:3]}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
