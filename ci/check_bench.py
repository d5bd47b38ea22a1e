#!/usr/bin/env python3
"""Structural validator for bench_micro_interp baselines.

Checks a packetbench.bench_interp.v1 document: the expected schema,
every application present, positive simulated-MIPS figures for all
four dispatch-mode x observer configurations, and speedup figures
consistent with the raw MIPS.  Absolute thresholds are deliberately
loose (the hard 2x / 1.3x gate is judged on the committed baseline,
not on shared CI runners), but the block-stepped loop must at least
not lose to the reference loop.

Usage: check_bench.py BENCH_interp.json
"""

import json
import math
import sys

INTERP_SCHEMA = "packetbench.bench_interp.v1"

EXPECTED_APPS = {"IPv4-radix", "IPv4-trie", "Flow Class.", "TSA"}
CONFIGS = ("none", "accounting")


def fail(msg):
    print(f"bench check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


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
        derived = math.exp(
            sum(math.log(a["speedup"][cfg]) for a in apps) / len(apps)
        )
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

    print(
        "bench OK: {} apps, geomean speedup {:.2f}x (no observer) / "
        "{:.2f}x (accounting)".format(
            len(apps), geo["none"], geo["accounting"]
        )
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench.py BENCH_interp.json")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    schema = doc.get("schema")
    if schema != INTERP_SCHEMA:
        fail(f"schema {schema!r} != {INTERP_SCHEMA!r}")
    check_interp(doc)


if __name__ == "__main__":
    main()
