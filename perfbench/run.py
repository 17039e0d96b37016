#!/usr/bin/env python3
"""The repo benchmark.

Builds perfbench/ (the g2g libraries from src/ plus the g2g-perfbench
driver) into .bench_build/, runs one workload for a fixed time, checks every
experiment's output against the recorded reference digests and prints the
metrics, the last line being one JSON object. perfbench/README.md has the
metric catalogue and the reason for each workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "g2g-perfbench"
REFERENCES = BENCH_DIR / "references.json"

# Reference digests cover experiment seeds [0, REFERENCE_SEEDS).
REFERENCE_SEEDS = 512
# Layer busy times plus sim.unattributed_s must match the simulation stage
# this closely (ROADMAP's bar for the per-layer ledger).
ACCOUNTING_TOLERANCE = 0.05
# The host-speed gauge's time on the reference host (the 4-core Xeon VM the
# benchmark was defined on, in a quiet period). End-to-end times are reported
# in reference-host seconds: measured time divided by the run's slowdown,
# median gauge time / CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.006
# Candidate tail percentiles, reported only with >= 10 samples beyond them.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END_UNITS = {
    "experiment_s_p50": "s",
    "experiment_cpu_s_p50": "s",
    "relays_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that are the median over experiments of one field the
# driver prints for each traced experiment (same name).
PER_LAYER_MEDIANS = {
    "trace.gen_s": "s",
    "trace.contacts": "count",
    "community.kclique_s": "s",
    "proto.warm_up_s": "s",
    "proto.build_s": "s",
    "handshake.attempts": "count",
    "handshake.completed": "count",
    "handshake.busy_s": "s",
    "handshake.self_s": "s",
    "audit.rounds": "count",
    "audit.storage_proofs": "count",
    "audit.heavy_hmacs": "count",
    "audit.busy_s": "s",
    "pom.gossip_batches": "count",
    "pom.gossiped": "count",
    "pom.busy_s": "s",
    "pom.batch_verify_s": "s",
    "suite.sign_calls": "count",
    "suite.verify_calls": "count",
    "suite.batch_calls": "count",
    "suite.batch_items": "count",
    "suite.busy_s": "s",
    "wire.frames_encoded": "count",
    "wire.frames_decoded": "count",
    "wire.bytes": "B",
    "sim.events": "count",
    "sim.unattributed_s": "s",
}

# The top-level layer spans; suite time is nested inside them.
LAYER_BUSY = ("handshake.busy_s", "audit.busy_s", "pom.busy_s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "g2g-perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def run_driver(args, timeout):
    """Run g2g-perfbench and parse its JSON lines."""
    proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail(f"g2g-perfbench {' '.join(args)} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def tail_percentile(values):
    """Highest candidate percentile with at least 10 samples beyond it.

    Uses the nearest-rank percentile: the value at 1-based rank
    ceil(p/100 * n) of the sorted samples, which has n - rank samples beyond
    it. Returns (percentile, value), or None when even the median has fewer
    than 10 samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n - 1e-9))
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def check_experiments(records, digests, traced):
    """Count attempted and failed experiments against the reference digests.

    An experiment fails when it threw, when its result digest differs from
    the reference for its seed, when it accused a faithful node, or (traced
    runs) when the probed run's digest differs from the plain run's. Seeds
    beyond the recorded table are counted as unreferenced, not skipped
    silently. Returns (attempted, failed, reasons, unreferenced).
    """
    failed = 0
    unreferenced = 0
    reasons = []
    for rec in records:
        seed = rec["seed"]
        problems = []
        if "error" in rec:
            problems.append(f"threw: {rec['error']}")
        else:
            ref = digests[seed] if seed < len(digests) else None
            if ref is None:
                unreferenced += 1
            elif rec["digest"] != ref:
                problems.append(f"digest {rec['digest']} != reference {ref}")
            if rec["false_positives"] > 0:
                problems.append(f"{rec['false_positives']} false accusations")
            if traced and rec["traced"]["digest"] != rec["digest"]:
                problems.append(f"probed run digest {rec['traced']['digest']} "
                                f"!= plain run digest {rec['digest']}")
        if problems:
            failed += 1
            reasons.append(f"seed {seed}: " + "; ".join(problems))
    return len(records), failed, reasons, unreferenced


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def host_slowdown(records):
    """How much slower than the reference host this run's host ran."""
    return statistics.median(r["calib_s"] for r in records) / CALIBRATION_REF_S


def end_to_end(ok, slowdown):
    walls = [r["wall_s"] for r in ok]
    return {
        "experiment_s_p50": statistics.median(walls) / slowdown,
        "experiment_cpu_s_p50": statistics.median(r["cpu_s"] for r in ok) / slowdown,
        "relays_per_s": ratio(sum(r["relayed"] for r in ok), sum(walls)) * slowdown,
        "setup_s": statistics.median(r["setup_s"] for r in ok) / slowdown,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in ok) / 1024,
    }


def accounting_residual(layers):
    """(layer busy + unattributed - simulation stage) / simulation stage,
    summed over the traced experiments."""
    total = sum(sum(t[k] for k in LAYER_BUSY) + t["sim.unattributed_s"] for t in layers)
    stage = sum(t["sim.stage_s"] for t in layers)
    return ratio(total - stage, stage)


def per_layer(ok):
    layers = [r["traced"] for r in ok]
    total = lambda key: sum(t[key] for t in layers)  # noqa: E731
    values = {name: statistics.median(t[name] for t in layers) for name in PER_LAYER_MEDIANS}
    units = dict(PER_LAYER_MEDIANS)
    extra = {
        "handshake.useful_ratio": ratio(total("handshake.completed"),
                                        total("handshake.attempts")),
        "pom.dup_ratio": ratio(total("pom.dups"), total("pom.dups") + total("pom.unique")),
        "suite.verify_reach_ratio": ratio(total("suite.verify_calls") + total("suite.batch_items"),
                                          total("cost.verifications")),
        "sim.accounting_residual": accounting_residual(layers),
        "obs.trace_overhead_ratio": ratio(statistics.median(t["wall_s"] for t in layers),
                                          statistics.median(r["wall_s"] for r in ok)),
    }
    values.update(extra)
    units.update({name: "ratio" for name in extra})
    return values, units


def print_layer_shares(ok):
    """Where the simulation stage went, as self times that add up to it."""
    layers = [r["traced"] for r in ok]
    stage = sum(t["sim.stage_s"] for t in layers)
    if stage <= 0:
        return
    shares = {
        "handshake (self)": sum(t["handshake.self_s"] for t in layers),
        "audit (self)": sum(t["audit.self_s"] for t in layers),
        "pom (self)": sum(t["pom.self_s"] for t in layers),
        "suite (inside layer spans)": sum(t["suite.in_spans_s"] for t in layers),
        "unattributed": sum(t["sim.unattributed_s"] for t in layers),
    }
    print(f"simulation stage {stage:.3f} s over {len(layers)} traced experiments:")
    for name, seconds in shares.items():
        print(f"  {name:28s} {seconds:9.3f} s  {100 * seconds / stage:5.1f}%")


def measure(args):
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    digests = json.loads(REFERENCES.read_text())["digests"].get(args.workload)
    if digests is None:
        fail(f"no reference digests for workload {args.workload}")
    records = run_driver(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         timeout=args.seconds + 150)
    traced = args.trace == 1
    attempted, failed, reasons, unreferenced = check_experiments(records, digests, traced)
    ok = [r for r in records if "error" not in r]
    if not ok:
        fail("every experiment threw: " + "; ".join(reasons[:3]))

    print(f"workload {args.workload} seed {args.seed}: experiments_attempted={attempted} "
          f"experiments_failed={failed} unreferenced={unreferenced}")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")
    slowdown = host_slowdown(records)
    print(f"host slowdown vs the reference host: {slowdown:.4f} "
          f"(median gauge {1000 * slowdown * CALIBRATION_REF_S:.3f} ms)")
    correct = failed == 0
    if traced:
        metrics, units = per_layer(ok)
        print_layer_shares(ok)
        residual = metrics["sim.accounting_residual"]
        within = abs(residual) <= ACCOUNTING_TOLERANCE
        print(f"layer accounting residual {100 * residual:+.3f}% of the simulation stage "
              f"({'within' if within else 'OUTSIDE'} {100 * ACCOUNTING_TOLERANCE:.0f}%)")
        correct = correct and within
    else:
        metrics = end_to_end(ok, slowdown)
        units = END_TO_END_UNITS
        raw = end_to_end(ok, 1.0)
        print("as measured on this host: " + ", ".join(
            f"{name}={raw[name]:.6g}" for name in ("experiment_s_p50", "experiment_cpu_s_p50",
                                                 "relays_per_s", "setup_s")))
        tail = tail_percentile([r["wall_s"] for r in ok])
        tail_text = (f"p{tail[0]:g}={tail[1]:.6f} s" if tail
                     else "none (fewer than 20 samples)")
        print(f"experiment wall time as measured: n={len(ok)} samples, highest percentile with "
              f">=10 samples beyond it: {tail_text}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def record_references():
    """Re-record references.json from the checked-out code, in parallel."""
    build()
    jobs = min(3, os.cpu_count() or 1)
    chunk = math.ceil(REFERENCE_SEEDS / jobs)
    procs = [subprocess.Popen([str(BINARY), "--record", str(first),
                               str(min(chunk, REFERENCE_SEEDS - first))],
                              stdout=subprocess.PIPE, text=True)
             for first in range(0, REFERENCE_SEEDS, chunk)]
    outputs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode != 0 for proc in procs):
        fail("g2g-perfbench --record failed")
    lines = [json.loads(line) for out in outputs for line in out.splitlines() if line.strip()]
    digests = {}
    for rec in sorted(lines, key=lambda r: (r["workload"], r["seed"])):
        if "error" in rec or rec["false_positives"] > 0:
            fail(f"cannot record a reference from a failing experiment: {rec}")
        digests.setdefault(rec["workload"], []).append(rec["digest"])
    REFERENCES.write_text(json.dumps({"seeds": REFERENCE_SEEDS, "digests": digests},
                                     indent=1) + "\n")
    print(f"recorded {len(lines)} digests into {REFERENCES}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.record_references:
        record_references()
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
