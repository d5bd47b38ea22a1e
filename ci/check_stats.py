#!/usr/bin/env python3
"""Validator for the --stats NDJSON telemetry stream.

Checks that every line is a well-formed packetbench.stats.v1 record
(schema tag, strictly increasing seq and wall_ns, finite non-negative
rates, well-formed top-K tables), that the live plane actually
observed the run (at least one record with a positive per-engine
packet rate and a non-empty top-K flow table), and the run
invariants:

- the cumulative counters never decrease from one record to the next;
- in every record after the first, each rate is its total's delta:
  an engine's pps and fault_pps are the change in its packets and
  faults since the previous record (0 for an engine the previous
  record lacks) over interval_ns, and the process pps, mips and
  fault_pps are the change in packets, insts and faults, up to the
  rounding of the %.6g output;
- every record accounts for every packet (packets == sent + dropped
  + faults), and its engines' packets and faults sum to the process
  packets and faults: the pump reads each engine once per record and
  the process block is their sum, so mid-run records balance exactly
  like the final one.

Usage: check_stats.py STATS.ndjson
"""

import json
import math
import sys

SCHEMA = "packetbench.stats.v1"

PROCESS_COUNTERS = (
    "packets",
    "insts",
    "sent",
    "dropped",
    "faults",
    "trace_dropped",
)
PROCESS_RATES = ("pps", "mips", "fault_pps")
ENGINE_RATES = ("pps", "bps", "mips", "fault_pps")
# Cumulative counters: never lower than in the previous record.
MONOTONE_PROCESS = ("packets", "insts", "sent", "dropped", "faults")
MONOTONE_ENGINE = ("packets", "faults")


def fail(msg):
    print(f"stats check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_rate(value, what):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{what} is not a number: {value!r}")
    if not math.isfinite(value):
        fail(f"{what} is not finite: {value!r}")
    if value < 0:
        fail(f"{what} is negative: {value!r}")


def check_count(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        fail(f"{what} is not an integer: {value!r}")
    if value < 0:
        fail(f"{what} is negative: {value!r}")


def check_topk(topk, where):
    if not isinstance(topk, list):
        fail(f"{where}: topk is not a list")
    prev_packets = None
    for entry in topk:
        for key in ("flow", "hash", "packets", "bytes", "faults",
                    "error"):
            if key not in entry:
                fail(f"{where}: topk entry missing {key!r}: {entry}")
        if not isinstance(entry["flow"], str) or not entry["flow"]:
            fail(f"{where}: empty topk flow label: {entry}")
        for key in ("hash", "packets", "bytes", "faults", "error"):
            check_count(entry[key], f"{where}: topk {key}")
        if entry["packets"] < 1:
            fail(f"{where}: topk entry with zero packets: {entry}")
        # The space-saving invariant: est - error <= true <= est
        # needs error <= est to be satisfiable at all.
        if entry["error"] > entry["packets"]:
            fail(f"{where}: topk error exceeds estimate: {entry}")
        if prev_packets is not None and entry["packets"] > prev_packets:
            fail(f"{where}: topk not sorted by packets desc")
        prev_packets = entry["packets"]


def rounds_to(reported, expected):
    """True when reported is expected printed with %.6g."""
    if expected == 0:
        return reported == 0
    # Half a unit in the sixth significant digit, of the larger value
    # in case rounding carried into the next decade.
    magnitude = max(abs(reported), abs(expected))
    half_unit = 0.5 * 10 ** (math.floor(math.log10(magnitude)) - 5)
    return abs(reported - expected) <= half_unit * (1 + 1e-9)


def check_rate_is_delta(where, what, reported, delta, interval_ns,
                        scale=1.0):
    expected = delta * 1e9 / interval_ns / scale
    if not rounds_to(reported, expected):
        fail(f"{where}: {what} {reported} != delta {delta} over "
             f"interval_ns {interval_ns} ({expected:.6g})")


# (rate key, total key, divisor): each rate is its total's delta.
PROCESS_DELTAS = (("pps", "packets", 1.0), ("mips", "insts", 1e6),
                  ("fault_pps", "faults", 1.0))
ENGINE_DELTAS = (("pps", "packets", 1.0), ("fault_pps", "faults", 1.0))


def check_balance(where, rec):
    """packets == sent + dropped + faults, and the engines sum to the
    process packets and faults."""
    p = rec["process"]
    if p["packets"] != p["sent"] + p["dropped"] + p["faults"]:
        fail(f"{where}: packets {p['packets']} != sent {p['sent']} + "
             f"dropped {p['dropped']} + faults {p['faults']}")
    for key in MONOTONE_ENGINE:
        engine_sum = sum(eng[key] for eng in rec["engines"])
        if engine_sum != p[key]:
            fail(f"{where}: engines sum to {key} {engine_sum} != "
                 f"process {key} {p[key]}")


def check_invariants(records):
    """Every record balances, counters never decrease, and every rate
    is its total's delta."""
    prev_process = None
    prev_engines = {}
    for lineno, rec in records:
        where = f"line {lineno}"
        check_balance(where, rec)
        process = rec["process"]
        interval_ns = rec["interval_ns"]
        if prev_process is not None:
            for key in MONOTONE_PROCESS:
                if process[key] < prev_process[key]:
                    fail(f"{where}: process.{key} decreased from "
                         f"{prev_process[key]} to {process[key]}")
            for rate, total, scale in PROCESS_DELTAS:
                check_rate_is_delta(
                    where, f"process.{rate}", process[rate],
                    process[total] - prev_process[total], interval_ns,
                    scale)
        engines = {}
        for eng in rec["engines"]:
            eng_id = eng["engine"]
            before = prev_engines.get(eng_id)
            if before is not None:
                for key in MONOTONE_ENGINE:
                    if eng[key] < before[key]:
                        fail(f"{where}: engine {eng_id} {key} "
                             f"decreased from {before[key]} to "
                             f"{eng[key]}")
            # The first record covers the time since pump start, which
            # no earlier record brackets.
            if prev_process is not None:
                for rate, total, scale in ENGINE_DELTAS:
                    was = before[total] if before is not None else 0
                    check_rate_is_delta(
                        where, f"engine {eng_id} {rate}", eng[rate],
                        eng[total] - was, interval_ns, scale)
            engines[eng_id] = eng
        prev_process = process
        prev_engines = engines


def main():
    if len(sys.argv) != 2:
        fail("usage: check_stats.py STATS.ndjson")

    records = []
    with open(sys.argv[1]) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                fail(f"line {lineno} is not valid JSON: {e}")

    if not records:
        fail("no records in stream")

    prev_seq = 0
    prev_wall = 0
    saw_engine_pps = False
    saw_topk = False
    for lineno, rec in records:
        where = f"line {lineno}"
        if rec.get("schema") != SCHEMA:
            fail(f"{where}: schema {rec.get('schema')!r} != {SCHEMA!r}")

        for key in ("seq", "wall_ns", "interval_ns", "snapshot_ns"):
            check_count(rec.get(key), f"{where}: {key}")
        if rec["seq"] <= prev_seq:
            fail(f"{where}: seq {rec['seq']} not > {prev_seq}")
        if rec["wall_ns"] <= prev_wall:
            fail(f"{where}: wall_ns {rec['wall_ns']} not > {prev_wall}")
        prev_seq = rec["seq"]
        prev_wall = rec["wall_ns"]

        process = rec.get("process")
        if not isinstance(process, dict):
            fail(f"{where}: missing process object")
        for key in PROCESS_COUNTERS:
            check_count(process.get(key), f"{where}: process.{key}")
        for key in PROCESS_RATES:
            check_rate(process.get(key), f"{where}: process.{key}")

        engines = rec.get("engines")
        if not isinstance(engines, list):
            fail(f"{where}: missing engines array")
        for eng in engines:
            eng_where = f"{where}: engine {eng.get('engine')}"
            for key in ("engine", "packets", "faults", "queue_depth"):
                check_count(eng.get(key), f"{eng_where}: {key}")
            for key in ENGINE_RATES:
                check_rate(eng.get(key), f"{eng_where}: {key}")
            ipp = eng.get("insts_per_packet")
            if not isinstance(ipp, dict):
                fail(f"{eng_where}: missing insts_per_packet")
            check_count(ipp.get("count"), f"{eng_where}: ipp.count")
            check_rate(ipp.get("mean"), f"{eng_where}: ipp.mean")
            check_count(ipp.get("p50"), f"{eng_where}: ipp.p50")
            check_count(ipp.get("p99"), f"{eng_where}: ipp.p99")
            if ipp["p99"] < ipp["p50"]:
                fail(f"{eng_where}: p99 {ipp['p99']} < p50 {ipp['p50']}")
            check_topk(eng.get("topk"), eng_where)
            if eng["pps"] > 0:
                saw_engine_pps = True
            if eng["topk"]:
                saw_topk = True

    if not saw_engine_pps:
        fail("no record shows a positive per-engine packet rate")
    if not saw_topk:
        fail("no record carries a non-empty top-K flow table")
    check_invariants(records)

    last = records[-1][1]
    n_eng = len(last["engines"])
    print(
        f"stats OK: {len(records)} records over "
        f"{last['wall_ns'] / 1e9:.2f}s, {n_eng} engines, "
        f"live rates are deltas, top-K and run invariants hold"
    )


if __name__ == "__main__":
    main()
