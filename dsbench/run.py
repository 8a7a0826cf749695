#!/usr/bin/env python3
"""Build and run the dsprof end-to-end benchmark (described in BENCHMARK.json).

Run from the root of a source tree:

    python3 dsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the dsprof libraries and the benchmark driver from source with CMake
in $CARGO_TARGET_DIR/cmake ($CARGO_TARGET_DIR defaults to .bench_build; the
tree is configured afresh when it was configured for another source tree),
then runs the driver with the product's defaults: every DSPROF_* variable is
removed from its environment. The driver's output passes through; its last
line is the result object. Exits non-zero, without a result, when the build
or the run fails.

    python3 dsbench/run.py --selftest

builds and runs the tests of the benchmark's own arithmetic instead.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mcf", "dense_mpx_live")
# A run must end within 180 s (after its build); the driver is stopped
# before that.
RUN_LIMIT_S = 175


def log(msg):
    print("dsbench: " + msg, file=sys.stderr, flush=True)


def src_digest():
    """SHA-1 over the product sources: identifies the code without git."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    # Never look above the tree: a source tree that is not a repository
    # must not report the sha of a repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cmake_home(tree):
    """The source directory a CMake build tree was configured for, or None."""
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir, target):
    """Builds `target` in build_dir/cmake; returns its path, or None on failure."""
    tree = os.path.join(build_dir, "cmake")
    home = cmake_home(tree)
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        # build_dir may be reused from another source tree, and a CMake tree
        # keeps building the sources it was configured for.
        log("build tree %s was configured for %s; configuring it for %s" % (tree, home, HERE))
        shutil.rmtree(tree)
        home = None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if home is None:
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tree, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the driver's lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(tree, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.selftest:
        test = build(build_dir, "dsbench_test")
        if test is None:
            return 1
        return subprocess.run([test]).returncode
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    driver = build(build_dir, "dsbench")
    if driver is None:
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("DSPROF_")}
    removed = sorted(set(os.environ) - set(env))
    if removed:
        log("running with product defaults; unset " + ", ".join(removed))
    # A relative work dir keeps Unix socket paths short.
    work = os.path.relpath(os.path.join(build_dir, "dsbench-work"))
    cmd = [driver,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_LIMIT_S)
        return 1
    if proc.returncode != 0:
        log("driver exited with status %d" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
