#!/usr/bin/env python3
"""Structural validator for Chrome trace-event JSON from --trace.

Checks that the file is valid JSON in the Chrome trace-event format
and that the instrumented pipeline actually showed up: per-packet
spans on more than one worker row (for a parallel run), dispatcher
spans, and well-formed required fields on every event.  With
--expect-npe it also requires the sampled NPE32 event stream: at least
one "npe.pc" counter sample and one "npe.mem.*" counter sample (a run
recorded with PB_TRACE_SAMPLE set).

Usage: check_trace.py TRACE.json [--expect-npe]
"""

import argparse
import json
import sys

VALID_PHASES = {"X", "i", "C", "M"}


def fail(msg):
    print(f"trace check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace")
    parser.add_argument("--expect-npe", action="store_true",
                        help="require npe.pc and npe.mem.* samples")
    opts = parser.parse_args()
    with open(opts.trace) as f:
        doc = json.load(f)

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    packet_spans = 0
    packet_tids = set()
    dispatch_spans = 0
    npe_pc = 0
    npe_mem = 0
    thread_names = set()
    for ev in events:
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            fail(f"bad phase {ph!r} in {ev}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                fail(f"event missing {key!r}: {ev}")
        if ph == "M":
            if ev["name"] == "thread_name":
                thread_names.add(ev["args"]["name"])
            continue
        if "ts" not in ev:
            fail(f"event missing ts: {ev}")
        if ph == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"complete event missing/negative dur: {ev}")
            if ev["name"] == "packet":
                packet_spans += 1
                packet_tids.add(ev["tid"])
                args = ev.get("args", {})
                for key in ("app", "engine", "packet"):
                    if key not in args:
                        fail(f"packet span missing arg {key!r}: {ev}")
            elif ev["name"] == "dispatch":
                dispatch_spans += 1
        elif ph == "C":
            if not ev.get("args"):
                fail(f"counter event without args: {ev}")
            if ev["name"] == "npe.pc":
                npe_pc += 1
            elif ev["name"].startswith("npe.mem."):
                npe_mem += 1

    if packet_spans == 0:
        fail("no per-packet spans recorded")
    if dispatch_spans == 0:
        fail("no dispatcher spans recorded (parallel run expected)")
    if len(packet_tids) < 2:
        fail(f"packet spans confined to one thread row: {packet_tids}")
    if not any(n.startswith("engine") for n in thread_names):
        fail(f"no engine thread names: {thread_names}")
    if "dispatcher" not in thread_names:
        fail(f"no dispatcher thread name: {thread_names}")
    if opts.expect_npe and (npe_pc == 0 or npe_mem == 0):
        fail(f"NPE32 samples missing: {npe_pc} npe.pc, "
             f"{npe_mem} npe.mem.* counter events")

    print(
        f"trace OK: {len(events)} events, {packet_spans} packet spans "
        f"on {len(packet_tids)} rows, {dispatch_spans} dispatch spans, "
        f"{npe_pc} npe.pc and {npe_mem} npe.mem.* samples"
    )


if __name__ == "__main__":
    main()
