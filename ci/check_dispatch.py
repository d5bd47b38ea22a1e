#!/usr/bin/env python3
"""Check that the interpreter's threaded dispatch survived the build.

Usage: python3 ci/check_dispatch.py BINARY

BINARY is a program linked with pb_sim, such as
build/bench/bench_micro_interp.  The check finds the recorder
instantiation of the block-stepped loop,
pb::sim::Cpu::runBlocked<pb::sim::PacketRecorder>, with `nm -C -S` and
disassembles it with `objdump -d`.  It requires:

- that the loop starts on a 64-byte boundary, so code linked ahead of
  it cannot shift its internal alignment; and
- at least MIN_JUMPS indirect jumps in it: each handler dispatches the
  next slot with its own jump.  A compiler that merges those jumps
  back into one, or a build that drops the flags preventing it,
  leaves one or a few.

It also prints the compiler that built the binary, from its .comment
section, so that a failure under a new compiler can be told apart
from a lost flag.  Exits 0 when both hold, 1 otherwise, printing what
it found.
"""

import re
import subprocess
import sys

LOOP = re.compile(
    r"pb::sim::Cpu::runBlocked<pb::sim::PacketRecorder>\([^)]*\)$")
ALIGN = 64
# gcc 12.2 keeps 30 dispatch jumps with the loop's flags and 9 without
# them; the switch loop before threaded dispatch had 1.
MIN_JUMPS = 16


def find_loop(binary):
    """(address, size) of the loop's code, from nm's sized symbols."""
    out = subprocess.run(["nm", "-C", "-S", "--defined-only", binary],
                         check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "tTwW" and \
                LOOP.search(parts[3]):
            return int(parts[0], 16), int(parts[1], 16)
    return None


def indirect_jumps(binary, start, size):
    """The indirect jump instructions in [start, start + size)."""
    out = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn",
         f"--start-address={start:#x}",
         f"--stop-address={start + size:#x}", binary],
        check=True, capture_output=True, text=True).stdout
    jump = re.compile(r"^\s*[0-9a-f]+:\s+(?:notrack\s+)?jmpq?\s+\*")
    return [line.strip() for line in out.splitlines() if jump.match(line)]


def compilers(binary):
    """The distinct compiler strings in the binary's .comment section."""
    out = subprocess.run(["readelf", "-p", ".comment", binary],
                         capture_output=True, text=True).stdout
    found = re.findall(r"^\s*\[\s*[0-9a-f]+\]\s+(.*\S)", out, re.M)
    return sorted(set(found))


def main(argv):
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    binary = argv[0]
    print("check_dispatch: built by "
          f"{'; '.join(compilers(binary)) or 'unknown (no .comment)'}")
    found = find_loop(binary)
    if found is None:
        print(f"check_dispatch: no runBlocked<PacketRecorder> in {binary}")
        return 1
    start, size = found
    jumps = indirect_jumps(binary, start, size)
    print(f"check_dispatch: runBlocked<PacketRecorder> at {start:#x} "
          f"({start % ALIGN} mod {ALIGN}), {size} bytes, "
          f"{len(jumps)} indirect jumps")
    ok = True
    if start % ALIGN != 0:
        print(f"check_dispatch: FAIL: the loop starts {start % ALIGN} "
              f"bytes past a {ALIGN}-byte boundary")
        ok = False
    if len(jumps) < MIN_JUMPS:
        print(f"check_dispatch: FAIL: {len(jumps)} indirect jumps, "
              f"want at least {MIN_JUMPS} (one per handler); the "
              "dispatch jumps were merged")
        ok = False
    if ok:
        print("check_dispatch: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
