#!/usr/bin/env python3
"""Builds the replikit benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload abcast_stream --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use and rebuilt
incrementally afterwards; build output goes to stderr only on failure. The
program's own output is passed through, so the last line of stdout is its
JSON result. Exits non-zero when the build fails (for example when the
library sources are missing) or the run does.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "replikit_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Returns the program's path, or None after reporting why it failed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: replikit sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", TARGET, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    exe = os.path.join(out, TARGET)
    return exe if os.path.isfile(exe) else None


def main(argv):
    exe = build()
    if exe is None:
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark program exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
