#!/usr/bin/env python3
"""Build and run one workload of the rtsmooth benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first call configures and builds the
benchmark (the library from src/ plus perfbench/src/) into
.bench_build/perfbench in Release mode; later calls rebuild only what
changed. Build output goes to stderr. The benchmark's stdout is passed
through; its last line is the JSON result, checked here against the metric
lists in BENCHMARK.json. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rtbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "rtbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result line has unexpected keys")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if names != got:
        fail("the benchmark's metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(names) - set(got))}, "
             f"extra {sorted(set(got) - set(names))}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring window; 0 runs one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference.json"),
               "--revision", revision()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1]:
        fail(f"the benchmark exited with code {run.returncode}")
    check_result(lines[-1], spec, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
