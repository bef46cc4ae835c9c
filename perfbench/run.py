#!/usr/bin/env python3
"""Build tripsim's benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench (and the tripsim library
it links) in .bench_build/ as a Release build; later runs only rebuild
what changed. The benchmark's own output is passed through: the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. The metric names are checked against BENCHMARK.json; a run
that prints other names, fails a check or fails to build exits non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170

# Compilers and the benchmark write scratch files under TMPDIR; keep
# them inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def build():
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=ENV)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=ENV)
    return os.path.join(BUILD, "perfbench")


def expected_metrics(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1] == "1"
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(args):
    exe = build()
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                          env=ENV, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    if names != sorted(expected_metrics(args)):
        print("perfbench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
