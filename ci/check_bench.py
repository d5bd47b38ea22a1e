#!/usr/bin/env python3
"""Validator for bench_micro_interp documents.

Every document must have the packetbench.bench_interp.v1 schema, a
provenance block (the commit, compiler, flags and build type stamped at
configure time, and the CPU model), every application, positive
simulated-MIPS figures for all four dispatch-mode x observer
configurations, speedup figures consistent with the raw MIPS, and a
block-stepped loop that beats the reference loop (geomean speedup > 1.0,
with and without the accounting recorder).  That is all a run on a
shared CI runner is held to.

--baseline adds the performance gates for the committed BENCH_interp.json,
measured on a quiet machine:

  * geomean accounting overhead, blocked/none MIPS over
    blocked/accounting MIPS, at most 2.0;
  * geomean blocked-over-reference speedup with accounting at least 1.3.

Usage: check_bench.py [--baseline] BENCH_interp.json
"""

import json
import math
import sys

INTERP_SCHEMA = "packetbench.bench_interp.v1"

EXPECTED_APPS = {"IPv4-radix", "IPv4-trie", "Flow Class.", "TSA"}
CONFIGS = ("none", "accounting")
PROVENANCE_KEYS = ("commit", "compiler", "flags", "build_type", "cpu")

MAX_BASELINE_OVERHEAD = 2.0
MIN_BASELINE_ACCOUNTING_SPEEDUP = 1.3


def fail(msg):
    print(f"bench check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_provenance(doc):
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        fail("provenance block missing")
    for key in PROVENANCE_KEYS:
        if not isinstance(prov.get(key), str):
            fail(f"provenance/{key} missing or not a string")
    for key in ("commit", "compiler", "cpu"):
        if not prov[key]:
            fail(f"provenance/{key} is empty")


def check_interp(doc):
    if doc.get("packets", 0) <= 0 or doc.get("repeats", 0) <= 0:
        fail("packets/repeats missing or non-positive")

    apps = doc.get("apps")
    if not isinstance(apps, list):
        fail("apps missing")
    names = {a.get("app") for a in apps}
    if names != EXPECTED_APPS:
        fail(f"app set {sorted(names)} != {sorted(EXPECTED_APPS)}")

    for app in apps:
        name = app["app"]
        if app.get("insts_per_packet", 0) <= 0:
            fail(f"{name}: non-positive insts_per_packet")
        mips = app.get("mips", {})
        for loop in ("reference", "blocked"):
            for cfg in CONFIGS:
                v = mips.get(loop, {}).get(cfg, 0)
                if not (isinstance(v, (int, float)) and v > 0):
                    fail(f"{name}: {loop}/{cfg} MIPS {v!r} not > 0")
        for cfg in CONFIGS:
            claimed = app.get("speedup", {}).get(cfg)
            derived = mips["blocked"][cfg] / mips["reference"][cfg]
            if claimed is None or not math.isclose(
                claimed, derived, rel_tol=1e-6
            ):
                fail(
                    f"{name}: speedup/{cfg} {claimed!r} inconsistent "
                    f"with MIPS ratio {derived:.4f}"
                )

    geo = doc.get("geomean_speedup", {})
    for cfg in CONFIGS:
        v = geo.get(cfg, 0)
        derived = geomean([a["speedup"][cfg] for a in apps])
        if not math.isclose(v, derived, rel_tol=1e-6):
            fail(
                f"geomean_speedup/{cfg} {v!r} inconsistent with "
                f"per-app speedups ({derived:.4f})"
            )
        if v <= 1.0:
            fail(
                f"geomean_speedup/{cfg} is {v:.2f}: the block-stepped "
                "loop lost to the reference loop"
            )

    overhead = geomean(
        [
            a["mips"]["blocked"]["none"] / a["mips"]["blocked"]["accounting"]
            for a in apps
        ]
    )
    print(
        "bench OK: {} apps, geomean speedup {:.2f}x (no observer) / "
        "{:.2f}x (accounting), accounting overhead {:.2f}x".format(
            len(apps), geo["none"], geo["accounting"], overhead
        )
    )
    return overhead, geo["accounting"]


def check_baseline(overhead, accounting_speedup):
    if overhead > MAX_BASELINE_OVERHEAD:
        fail(
            f"geomean accounting overhead (blocked none/accounting MIPS) "
            f"is {overhead:.2f}x, above {MAX_BASELINE_OVERHEAD}x"
        )
    if accounting_speedup < MIN_BASELINE_ACCOUNTING_SPEEDUP:
        fail(
            f"geomean accounting speedup is {accounting_speedup:.2f}x, "
            f"below {MIN_BASELINE_ACCOUNTING_SPEEDUP}x"
        )
    print("baseline OK")


def main():
    args = sys.argv[1:]
    baseline = "--baseline" in args
    paths = [a for a in args if a != "--baseline"]
    if len(paths) != 1:
        fail("usage: check_bench.py [--baseline] BENCH_interp.json")
    with open(paths[0]) as f:
        doc = json.load(f)

    schema = doc.get("schema")
    if schema != INTERP_SCHEMA:
        fail(f"schema {schema!r} != {INTERP_SCHEMA!r}")
    check_provenance(doc)
    overhead, accounting_speedup = check_interp(doc)
    if baseline:
        check_baseline(overhead, accounting_speedup)


if __name__ == "__main__":
    main()
