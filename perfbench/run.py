#!/usr/bin/env python3
"""Build and run the PolyMem benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench/ (a CMake package that
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark binary, whose last stdout
line is the JSON result. Build output goes to stderr. Spans of a traced run
and the phase_adaptive trace land in the build directory. Exits nonzero,
without a result, when the sources are missing or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 420  # per step; configure + build stay under 15 minutes
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found in " + ROOT)
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", build_dir, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return build_dir, binary


def main():
    args = sys.argv[1:]
    build_dir, binary = build()
    cmd = [binary] + args
    if "--self-test" not in args:
        cmd += ["--out-dir", build_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
