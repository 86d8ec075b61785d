#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the library and the harness from
source into .bench_build/perfbench (once; later runs rebuild only what
changed), runs the harness's own tests, then one measured run. The last
line of standard output is the JSON result; the exit code is nonzero when
the build, the harness tests or any correctness check failed. A traced
run also writes its spans to .bench_build/traces/.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    # Compiler and tool temporaries stay inside the checkout.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "database.h")):
        die("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    env = child_env()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        env=env, timeout=800).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    die("build step %s failed: %s" % (cmd[:2], e))
                if rc != 0:
                    die("build failed, see " + log_path)


def git_stamp():
    """(revision, dirty) of the checkout, or ("none", "unknown") outside git."""
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=20)
        if rev.returncode != 0:
            return "none", "unknown"
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, env=env,
                                timeout=20)
        dirty = "1" if status.returncode == 0 and status.stdout.strip() else "0"
        return rev.stdout.strip(), dirty
    except (OSError, subprocess.TimeoutExpired):
        return "none", "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be 1..60")
    if args.seed < 0:
        die("--seed must be >= 0")

    build()
    env = child_env()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_test"),
                               "--gtest_brief=1"], capture_output=True,
                              text=True, env=env, timeout=120)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        die("harness tests failed", 1)

    rev, dirty = git_stamp()
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-rev", rev, "--git-dirty", dirty]
    if args.trace == "1":
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
