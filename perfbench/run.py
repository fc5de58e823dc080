#!/usr/bin/env python3
"""Benchmark runner for the xBGAS collectives simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the simulator's
libraries and the harness from source into .bench_build/ (CMake, ~4 jobs).
It then runs the harness for one workload under a wall-clock cap, checks
every output, and prints each metric by name with its unit and class. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics, and also writes the spans and self-time table of the traced run
under .bench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

WORKLOADS = ("fig4-gups-8pe", "fig5-is-b-8pe", "coll-mix-64pe")

# Wall-clock cap on one harness run. A run that passes it is ended, counted
# as failed, and reported with the phase it was stuck in; it is never
# retried.
CAP_FLOOR_S = 60.0
CAP_CEILING_S = 150.0

# name -> (unit, class). "modeled" metrics are deterministic and must be
# identical across every repetition of a run, traced or not; "host"
# metrics are timed on the host and reported as medians.
END_TO_END = {
    "setup_s": ("s", "host"),
    "sim_ops_per_s": ("ops/s", "host"),
    "host_cpu_s": ("s", "host"),
    "peak_rss_mb": ("MiB", "host"),
    "modeled_mops": ("Mop/s", "modeled"),
    "pass_ratio": ("ratio", "modeled"),
}

COLL_ROWS = (
    "broadcast.small", "broadcast.large", "reduce_all.small",
    "reduce_all.large", "reduce_all_nbi.large", "fcollect.small",
    "alltoall.small",
)


def _per_layer():
    m = {
        "machine.ctor_s": ("s", "host"),
        "machine.barrier.calls": ("count", "modeled"),
        "machine.barrier.host_us_p50": ("us", "host"),
        "machine.barrier.host_us_p90": ("us", "host"),
        "sched.switches": ("count", "host"),
        "sched.yields_waiting": ("count", "host"),
        "sched.naps": ("count", "host"),
        "memory.malloc.calls": ("count", "modeled"),
        "memory.malloc.host_s": ("s", "host"),
        "xbrtime.amo.calls": ("count", "modeled"),
        "xbrtime.amo.host_ns_p50": ("ns", "host"),
        "xbrtime.amo.self_s": ("s", "host"),
        "xbrtime.put.calls": ("count", "modeled"),
        "xbrtime.put.bytes": ("bytes", "modeled"),
        "xbrtime.put.host_s": ("s", "host"),
        "rma.retries": ("count", "modeled"),
        "amo.retries": ("count", "modeled"),
        "net.messages": ("count", "modeled"),
        "net.bytes": ("bytes", "modeled"),
        "net.hops": ("count", "modeled"),
        "net.stall_cycles": ("cycles", "modeled"),
        "olb.lookups": ("count", "modeled"),
        "olb.misses": ("count", "modeled"),
    }
    for level in ("l1", "l2", "tlb"):
        m[f"cache.{level}.hit_ratio"] = ("ratio", "modeled")
        m[f"cache.{level}.accesses"] = ("count", "modeled")
    for row in COLL_ROWS:
        m[f"coll.{row}.calls"] = ("count", "modeled")
        m[f"coll.{row}.cycles_p50"] = ("cycles", "modeled")
        m[f"coll.{row}.cycles_p90"] = ("cycles", "modeled")
        m[f"coll.{row}.host_us_p50"] = ("us", "host")
        m[f"coll.{row}.host_us_p90"] = ("us", "host")
    for algo in ("tree", "ring", "hier"):
        m[f"coll.algo.{algo}"] = ("count", "modeled")
    m["coll.pipeline.chunks"] = ("count", "modeled")
    m["benchlib.self_s"] = ("s", "host")
    m["trace.overhead_ratio"] = ("ratio", "host")
    return m


PER_LAYER = _per_layer()


def log(msg):
    print(msg, flush=True)


def build():
    """Configure and build the harness; incremental after the first run."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    t0 = time.monotonic()
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-2000:]
                sys.stderr.write(tail)
                raise SystemExit(f"perfbench: build failed (see {build_log})")
    return time.monotonic() - t0


def run_harness(args, prefix):
    """Run the harness under the wall-clock cap. Returns (lines, stuck):
    the stdout records, and the phase a capped run was stuck in (None when
    the harness finished)."""
    cap = min(CAP_CEILING_S, max(CAP_FLOOR_S, 3.0 * args.seconds + 30.0))
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", prefix]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    stuck = None
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        phases = [l[6:] for l in err.splitlines() if l.startswith("PHASE ")]
        reps = [p for p in phases if p.startswith("rep ")]
        stuck = "%s, %s" % (reps[-1] if reps else "before the first rep",
                            phases[-1] if phases else "start")
        stuck = f"wall-clock cap of {cap:.0f} s passed in {stuck}"
    if stuck is None and proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        stuck = f"harness exited with code {proc.returncode}"
    records = {"REP": []}
    for line in out.splitlines():
        tag, _, body = line.partition(" ")
        if tag in ("FINGERPRINT", "PARITY", "END"):
            records[tag] = json.loads(body)
        elif tag == "REP":
            records["REP"].append(json.loads(body))
    return records, stuck


def median(values):
    return statistics.median(values) if values else 0.0


def evaluate(args, records, stuck):
    """Check every output and compute the metrics. Returns
    (correct, attempted, failed, metrics, problems)."""
    problems = []
    reps = records["REP"]
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if stuck is not None:
        problems.append(stuck)
        # The interrupted repetition's operations all count as failed.
        lost = reps[-1]["ops"] if reps else 1
        attempted += lost
        failed += lost
    for r in reps:
        for f in r["failures"]:
            problems.append(f"rep {r['rep']}: {f}")

    parity = records.get("PARITY")
    if parity is None:
        problems.append("no parity record")
    elif not parity["ok"]:
        problems.append(parity["detail"])

    # Modeled exactness: every repetition, traced or not, must produce the
    # same modeled results; traced repetitions the same modeled layers.
    if reps:
        first = reps[0]
        for r in reps[1:]:
            if r["modeled"] != first["modeled"] or r["digest"] != first["digest"]:
                diff = sorted(k for k in set(r["modeled"]) | set(first["modeled"])
                              if r["modeled"].get(k) != first["modeled"].get(k))
                problems.append(f"rep {r['rep']}: modeled results differ from "
                                f"rep 0 ({', '.join(diff) or 'call digest'})")
        traced = [r for r in reps if r["traced"]]
        for r in traced[1:]:
            for name, (_, cls) in PER_LAYER.items():
                if cls == "modeled" and r["layers"].get(name) != traced[0]["layers"].get(name):
                    problems.append(f"rep {r['rep']}: modeled layer metric {name} differs")
        for name in ("rma.retries", "amo.retries"):
            if first["modeled"].get(name, 0) != 0:
                problems.append(f"{name} = {first['modeled'][name]} on a fault-free run")
        committed = parity.get("committed_mops", "") if parity else ""
        if args.seed == 0 and committed:
            got = "%.3f" % first["modeled"].get("modeled_mops", 0.0)
            if got != committed:
                problems.append(f"modeled_mops {got} != committed {committed}")

    attempted = max(attempted, 1)
    failed = min(failed + (1 if problems and failed == 0 else 0), attempted)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    if args.trace == 0:
        values = {
            "setup_s": median([r["setup_s"] for r in reps]),
            "sim_ops_per_s": median([r["ops"] / r["timed_s"] for r in untraced
                                     if r["timed_s"] > 0]),
            "host_cpu_s": median([r["cpu_s"] for r in untraced]),
            "peak_rss_mb": records.get("END", {}).get("peak_rss_kb", 0) / 1024.0,
            "modeled_mops": reps[0]["modeled"].get("modeled_mops", 0.0) if reps else 0.0,
            "pass_ratio": 1.0 - failed / attempted,
        }
        catalog = END_TO_END
    else:
        values = {}
        for name, (_, cls) in PER_LAYER.items():
            samples = [r["layers"][name] for r in traced if name in r["layers"]]
            if not samples:
                continue
            values[name] = samples[0] if cls == "modeled" else median(samples)
        t_on = median([r["timed_s"] for r in traced])
        t_off = median([r["timed_s"] for r in untraced])
        values["trace.overhead_ratio"] = t_on / t_off if t_off > 0 else 0.0
        catalog = PER_LAYER
    for name, (unit, _) in catalog.items():
        if name not in values:
            problems.append(f"metric {name} missing")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    correct = not problems and failed == 0
    return correct, attempted, failed, metrics, problems


def check_catalog():
    """BENCHMARK.json must list exactly the metrics this runner reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {k: v[0] for k, v in END_TO_END.items()} or \
            layered != {k: v[0] for k, v in PER_LAYER.items()}:
        raise SystemExit("perfbench: BENCHMARK.json metrics differ from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("perfbench: BENCHMARK.json workloads differ from run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    check_catalog()
    build_s = build()
    log(f"perfbench: build step {build_s:.1f} s")
    os.makedirs(OUT_DIR, exist_ok=True)
    prefix = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    records, stuck = run_harness(args, prefix)
    correct, attempted, failed, metrics, problems = evaluate(args, records, stuck)

    fp = records.get("FINGERPRINT", {})
    log("host: nproc=%s compiler=%s build=%s sched_workers=%s (pinned %s)" % (
        fp.get("nproc"), fp.get("compiler"), fp.get("build_type"),
        fp.get("sched_workers"), fp.get("pinned_workers")))
    reps = records["REP"]
    log(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
        f"({sum(r['traced'] for r in reps)} traced)")
    catalog = END_TO_END if args.trace == 0 else PER_LAYER
    for name, m in metrics.items():
        log("  %-34s %-8s %-8s %.6g" % (name, catalog[name][1], m["unit"], m["value"]))
    log(f"  fail_ratio = {failed}/{attempted}")
    for p in problems:
        log(f"FAIL: {p}")
    if args.trace == 1:
        log(f"spans: {prefix}.spans.json, self time: {prefix}.self_time.txt")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(f"{prefix}-trace{args.trace}.json", "w") as f:
        json.dump({"fingerprint": fp, "seed": args.seed, "problems": problems,
                   "repetitions": [{k: r[k] for k in ("rep", "traced", "setup_s",
                                                      "timed_s", "cpu_s", "ops")}
                                   for r in reps],
                   "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
