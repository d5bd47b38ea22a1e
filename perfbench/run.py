#!/usr/bin/env python3
"""PacketBench end-to-end benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables|svc_nat|svc_tsa_churn \
        --seed N --seconds S --trace 0|1

Configures and builds the `perfbench` program (perfbench/CMakeLists.txt,
a Release build of ../src) into .bench_build/perfbench, then runs it.
Build output goes to stderr; the program's stdout is passed through, so
the last stdout line is the result JSON.  Exits non-zero, printing no
result, when the build fails, and with the program's own code otherwise
(1 when the correctness gate rejects the run).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def run_quiet(cmd, timeout):
    """Run a build step, its output sent to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout).returncode


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if run_quiet(step, BUILD_TIMEOUT_S) != 0:
            return False
    return BINARY.exists()


def main(argv):
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 3
        proc = subprocess.run([str(BINARY)] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
