#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload, reports.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--clients 1|2] [--scale default|tiny]

Run it from the root of a checkout. It configures and builds the package in
perfbench/ (the defrag libraries plus the perfbench binary) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
binary, which measures and prints raw samples. This script turns them into
the metrics BENCHMARK.json names, prints them one per line with units, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Exit status: 0 when every request succeeded and every restore was
bit-identical, 1 when one did not, 2 on a build or usage error.
"""

import argparse
import collections
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("first-write", "generations", "restore-fragmented", "engine-series")
RUN_TIMEOUT_S = 170
# Candidate tail percentiles, highest first; a timing reports the highest
# one that leaves at least TAIL_BEYOND samples above it in each of the
# run's TAIL_SLICES (or fewer, but at least two) contiguous slices.
TAIL_PERCENTILES = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10
TAIL_SLICES = 5
COVERAGE_FLOOR = 0.90
MB = 1e6
GIB = float(1 << 30)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build():
    """Configure once, then build; returns the binary's path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return out / "perfbench"


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail(values):
    """(percentile, slices, value) of samples in the order they were taken.

    The run is cut into contiguous slices and the value is the median of
    the slices' percentiles, so a burst of host noise in one part of the
    run does not set it. The percentile is the highest candidate that
    leaves TAIL_BEYOND samples above it in every slice, with at least two
    slices; a run too short for two is one slice.
    """
    for min_slices in (2, 1):
        for p in TAIL_PERCENTILES:
            beyond = len(values) * (100.0 - p) / 100.0
            k = min(TAIL_SLICES, int(beyond // TAIL_BEYOND))
            if k >= min_slices:
                n = len(values)
                parts = [values[i * n // k:(i + 1) * n // k] for i in range(k)]
                return p, k, statistics.median(percentile(v, p) for v in parts)
    return 100.0, 1, max(values)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw, notes):
    """The end-to-end metrics (name -> (value, unit)) of one run."""
    m = {}
    m["setup_s"] = (statistics.median(raw["setup_s"]), "s")
    for col, kind in ((0, "backup"), (2, "restore")):
        # Bytes over client-observed request time, per round; the median
        # round is reported.
        per_round = [r[col] / MB / r[col + 1] for r in raw["rounds"] if r[col + 1]]
        lat = raw[f"{kind}_s"]
        m[f"{kind}_mb_s"] = (statistics.median(per_round), "MB/s")
        m[f"{kind}_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        p, k, v = tail(lat)
        m[f"{kind}_tail_ms"] = (v * 1e3, "ms")
        notes.append(f"{kind}: n={len(lat)} samples, p50 and tail = p{p:g} "
                     f"(median over {k} slices of the run)")
    m["restore_ttfb_p50_ms"] = (statistics.median(raw["ttfb_s"]) * 1e3, "ms")
    m["peak_rss_mb"] = (raw["peak_rss_mib"], "MiB")
    m["stored_bytes_ratio"] = (ratio(raw["physical_stored"],
                                     raw["logical_ingested"]), "ratio")
    m["restore_loads_per_gb"] = (ratio(raw["restore_loads"],
                                       raw["restore_bytes"] / GIB), "count/GiB")
    m["sim_backup_mb_s"] = (ratio(raw["sim_backup_bytes"] / MB,
                                  raw["sim_backup_s"]), "MB/s")
    m["sim_restore_mb_s"] = (ratio(raw["sim_restore_bytes"] / MB,
                                   raw["sim_restore_s"]), "MB/s")
    notes.append(f"setup and MB/s: n={len(raw['setup_s'])} rounds, median "
                 "round reported")
    return m


class Export:
    """Sums over (before, after) pairs of defrag.metrics.v1 exports."""

    def __init__(self, pairs):
        self.pairs = [(b["metrics"], a["metrics"]) for b, a in pairs]

    def delta(self, name, field="value"):
        return sum(a.get(name, {}).get(field, 0.0) - b.get(name, {}).get(field, 0.0)
                   for b, a in self.pairs)

    def gauge_sum(self, name):
        """Sum of a gauge's values at each phase end (per-engine totals)."""
        return sum(a.get(name, {}).get("value", 0.0) for _, a in self.pairs)

    def engine_prefix(self):
        for name in self.pairs[-1][1]:
            hit = re.fullmatch(r"(engine\.[a-z0-9_]+\.)logical_bytes", name)
            if hit:
                return hit.group(1)
        return "engine.none."


def per_layer(raw, workload, lines):
    """The per-layer metrics (name -> (value, unit)) of one traced run."""
    t = raw["trace"]
    # The binary writes ledger entries only for the layers a workload runs.
    l = collections.defaultdict(float, t["ledger"])
    ex = Export(t["exports"])
    engine = workload == "engine-series"
    m = {}

    m["chunking.split_s"] = (l["chunk_s"], "s")
    m["chunking.chunks"] = (l["chunks"], "count")
    m["chunking.mb_s"] = (ratio(l["chunk_bytes"] / MB, l["chunk_s"]), "MB/s")
    m["fingerprint.hash_s"] = (l["fp_s"], "s")
    m["fingerprint.mb_s"] = (ratio(l["chunk_bytes"] / MB, l["fp_s"]), "MB/s")
    m["fingerprint.batch_mean"] = (ratio(l["chunks"], l["fp_flushes"]), "chunks")
    cpu = ratio(l["chunk_bytes"] / MB, l["chunk_s"] + l["fp_s"])
    m["cpu.chunk_fp_mb_s"] = (cpu, "MB/s")

    lookups = ex.delta("index.paged.lookups")
    m["index.op_s"] = (l["index_s"], "s")
    m["index.lookups"] = (lookups, "count")
    m["index.page_faults_per_lookup"] = (
        ratio(ex.delta("index.paged.page_faults"), lookups), "ratio")
    if engine:
        p = ex.engine_prefix()
        found = ex.delta(p + "removed_bytes") + ex.delta(p + "rewritten_bytes")
        m["index.hit_ratio"] = (0.0, "ratio")
        m["index.dup_byte_share"] = (ratio(found, ex.delta(p + "logical_bytes")),
                                     "ratio")
    else:
        m["index.hit_ratio"] = (ratio(l["core_dup_chunks"], l["core_chunks"]),
                                "ratio")
        m["index.dup_byte_share"] = (ratio(l["core_dup_bytes"],
                                           l["core_logical"]), "ratio")
    m["index.pending_dups"] = (l["core_pending"], "count")

    m["storage.append_s"] = (l["append_s"], "s")
    m["storage.seals"] = (l["seals"], "count")
    m["storage.appended_mb"] = (l["appended_bytes"] / MB, "MB")
    m["storage.load_s"] = (l["load_s"], "s")
    m["storage.loads"] = (l["loads"], "count")
    m["storage.loaded_per_restored"] = (ratio(l["loaded_bytes"],
                                              l["restored_bytes"]), "ratio")
    m["restore.assemble_s"] = (l["assemble_s"], "s")
    m["restore.cache_hit_rate"] = (ratio(l["restore_hits"],
                                         l["restore_lookups"]), "ratio")
    restored_mb = l["restored_bytes"] / MB
    m["restore.container_switches_per_mb"] = (ratio(l["switches"], restored_mb),
                                              "1/MB")
    m["restore.distinct_containers_per_mb"] = (ratio(l["distinct"], restored_mb),
                                               "1/MB")

    m["core.ingest_s"] = (l["core_s"], "s")
    stages = l["chunk_s"] + l["fp_s"] + l["index_s"] + l["append_s"]
    m["core.ingest_remainder_s"] = (l["core_s"] - stages if l["core_s"] else 0.0,
                                    "s")

    server_backup = ex.delta("service.request.backup_us", "sum") / 1e6
    server_restore = ex.delta("service.request.restore_us", "sum") / 1e6
    upload = t["client_backup_s"] - server_backup if not engine else 0.0
    m["service.server_backup_s"] = (server_backup, "s")
    m["service.server_restore_s"] = (server_restore, "s")
    m["service.upload_s"] = (upload, "s")
    m["service.frame_s"] = (l["frame_backup_s"] + l["frame_restore_s"], "s")
    m["catalog.commit_s"] = (l["commit_s"], "s")

    prepare = ex.delta("stage.prepare_us", "sum") / 1e6
    m["engine.backup_s"] = (l["engine_backup_s"], "s")
    m["engine.restore_s"] = (l["engine_restore_s"], "s")
    m["engine.prepare_s"] = (prepare, "s")
    m["engine.rewritten_mb"] = (l["engine_rewritten"] / MB, "MB")
    m["engine.bloom_negative_ratio"] = (
        ratio(ex.delta("index.bloom.negatives"), ex.delta("index.bloom.probes")),
        "ratio")
    hits = ex.gauge_sum("dedup.metadata_cache.hits") if engine else 0.0
    misses = ex.gauge_sum("dedup.metadata_cache.misses") if engine else 0.0
    m["engine.metadata_cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")

    # Attribution: layer busy time against the composed wall time.
    if engine:
        b_total, b_parts = l["engine_backup_s"], {"engine.prepare": prepare}
    else:
        b_total = t["client_backup_s"]
        b_parts = {"service.upload": upload, "chunking": l["chunk_s"],
                   "fingerprint": l["fp_s"], "index": l["index_s"],
                   "storage.append": l["append_s"],
                   "catalog.commit": l["commit_s"]}
    r_total = t["client_restore_s"]
    r_parts = {"storage.load": l["load_s"], "restore.assemble": l["assemble_s"]}
    if not engine:
        r_parts["service.frame"] = l["frame_restore_s"]
    remainder = 0.0
    for phase, total, parts in (("backup", b_total, b_parts),
                                ("restore", r_total, r_parts)):
        covered = sum(parts.values())
        cov = ratio(covered, total)
        m[f"attribution.{phase}_coverage"] = (cov, "ratio")
        if total:
            remainder += total - covered
            flag = "" if cov >= COVERAGE_FLOOR else \
                f"  << below {COVERAGE_FLOOR:.0%}"
            body = ", ".join(f"{k} {v:.4f}" for k, v in parts.items())
            lines.append(f"attribution {phase}: wall {total:.4f} s = {body}; "
                         f"remainder {total - covered:.4f} s; "
                         f"coverage {cov:.1%}{flag}")
        else:
            lines.append(f"attribution {phase}: no {phase} requests in the "
                         "timed phase")
    m["attribution.remainder_s"] = (remainder, "s")
    m["trace.overhead_s"] = (t["traced_wall_s"] - t["untraced_wall_s"], "s")
    env = raw["env"]
    lines.append(f"chunk+fingerprint CPU: {cpu:.1f} MB/s measured; the "
                 f"simulator assumes cpu_mb_per_s = "
                 f"{env['service_cpu_mb_per_s']:g} (ParallelIngestParams) and "
                 f"{env['engine_cpu_mb_per_s']:g} (paper_engine_config)")
    lines.append(f"trace: {t['trace_events']} spans recorded; traced phase "
                 f"{t['traced_wall_s']:.4f} s vs untraced "
                 f"{t['untraced_wall_s']:.4f} s")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--clients", default="1", choices=("1", "2"))
    ap.add_argument("--scale", default="default", choices=("default", "tiny"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    socket = build_dir() / f"pb-{os.getpid()}.sock"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--clients", args.clients, "--scale", args.scale,
           "--socket", os.path.relpath(socket)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited with status {proc.returncode}")
        return 1
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        log(f"perfbench: unreadable binary report: {err}")
        return 1

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    for err in raw["errors"]:
        log(f"perfbench: FAILED: {err}")
    timings_present = all(raw[k] for k in ("setup_s", "backup_s", "restore_s",
                                           "ttfb_s"))
    correct = failed == 0 and attempted > 0 and timings_present

    notes = []
    env = dict(raw["env"], seed=raw["seed"], workload=raw["workload"],
               clients=raw["clients"], scale=raw["scale"])
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    if timings_present:
        metrics = (per_layer(raw, args.workload, notes) if args.trace == "1"
                   else end_to_end(raw, notes))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    for note in notes:
        print(note)
    done = len(raw["trace"]["exports"] if args.trace == "1" else raw["rounds"])
    if done < raw["rounds_planned"]:
        print(f"host slower than the reference: {done} of "
              f"{raw['rounds_planned']:g} rounds ran before the time cap")
    if args.workload == "restore-fragmented":
        print(f"latest generation references {raw['latest_distinct_containers']}"
              " distinct containers (the daemon's restore cache holds 32)")
    print(f"error_rate {ratio(failed, attempted):.6f} ({failed} of {attempted} "
          "requests failed, were rejected or restored wrong)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
