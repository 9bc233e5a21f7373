#!/usr/bin/env python3
"""End-to-end cell benchmark for hcrl (see README.md beside this file).

    python3 perfbench/run.py --workload paper-hier --seed 7 --seconds 30 --trace 0

Builds the perfbench_cell program from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), then runs one workload as repeated
reps, each a fresh perfbench_cell process, until --seconds have passed (at
least MIN_REPS reps). Every rep uses the same seed. It checks the outputs and
prints, as the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer ledger with --trace 1. A `perfbench:` line before it records
the environment, the sample counts and the quartiles of every metric.
Standard library only.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper-hier", "drl-only", "engine-faulty")
DEFAULT_SEED = 1
MIN_REPS = 3
MAX_REPS = 200
# No rep starts, and none may run past, this long after the reps begin, so
# a run ends within the 180 s a caller allows even when a rep hangs.
HARD_LIMIT_S = 150

# --trace 0: name -> unit. The timings report the slow-side quartile of the
# run's reps (q3 of a time, q1 of a rate): the host alternates between its
# usual contended speed and sporadic faster phases that can last a whole run,
# and the slow-side quartile tracks the usual speed more steadily from run to
# run than the median does, while, unlike the slowest rep, it hardly depends
# on how many reps fit in the run (see README.md, Noise). Every other metric
# is the median over reps.
END_TO_END = {
    "cell_wall_s": "s",
    "setup_s": "s",
    "measured_jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "energy_kwh": "kWh",
    "latency_mean_s": "s",
    "latency_p99_s": "s",
}
SLOW_SIDE = {"cell_wall_s": "q3", "setup_s": "q3", "measured_jobs_per_s": "q1"}

PHASE_LAYER = {
    "wall_s": "s",
    "sim.self_s": "s",
    "timer_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "global.s": "s",
    "global.select_s": "s",
    "global.train_s": "s",
    "global.act_s": "s",
    "global.select_calls": "count",
    "global.select_p50_us": "us",
    "global.select_p99_us": "us",
    "global.train_steps": "count",
    "local.s": "s",
    "local.arrival_s": "s",
    "local.train_s": "s",
    "local.observe_s": "s",
    "local.train_rounds": "count",
    "local.decide_s": "s",
    "local.decisions": "count",
    "decision.flushes": "count",
    "decision.q_requests": "count",
    "decision.predict_requests": "count",
    "decision.max_epoch_width": "count",
    "nn.gemm.calls": "count",
    "nn.gemm.macs": "count",
    "nn.gmac_per_s": "GMAC/s",
}

# --trace 1: name -> unit. Medians over the traced reps.
PER_LAYER = {
    "pretrain_s": "s",
    "jobs_failed_frac": "fraction",
    "workload.produce_s": "s",
    "workload.jobs": "count",
    "policy.build_s": "s",
    "sim.faults.crashes": "count",
    "sim.faults.retries": "count",
    "sim.faults.jobs_lost": "count",
    **{f"{phase}.{name}": unit for phase in ("pretrain", "measured")
       for name, unit in PHASE_LAYER.items()},
    "measured.global.share": "fraction",
    "measured.local.share": "fraction",
    "measured.sim.share": "fraction",
    "layer_coverage": "fraction",
    "trace_overhead_s": "s",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build perfbench_cell; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_cell", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_cell")


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def run_rep(binary, workload, seed, traced, timeout):
    """One fresh process: run_scenario + replica(s). Returns its record or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"rep timed out after {timeout:.0f} s")
        return None
    if r.returncode != 0:
        log(f"rep failed (exit {r.returncode}): {r.stderr.strip()[-500:]}")
        return None
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("rep printed no JSON record")
        return None


def derived(rec):
    """Ledger ratios computed from one traced record.

    layer_coverage is structural: the phase clocks split the replica's wall
    with no gaps, so it only bounds the time outside them (validation, the
    decorators' construction). trace_overhead_s compares the traced replica
    with the untraced one that ran just before it in the same process.
    """
    wall = rec["measured.wall_s"]
    layers = (rec["workload.produce_s"] + rec["policy.build_s"] +
              rec["pretrain.wall_s"] + rec["measured.wall_s"])
    return {
        "measured.global.share": rec["measured.global.s"] / wall if wall > 0 else 0.0,
        "measured.local.share": rec["measured.local.s"] / wall if wall > 0 else 0.0,
        "measured.sim.share": rec["measured.sim.self_s"] / wall if wall > 0 else 0.0,
        "layer_coverage": layers / rec["replica.total_s"],
        "trace_overhead_s": rec["replica.total_s"] - rec["replica.untraced_s"],
    }


def check_rep(rec, workload, seed, traced):
    """Per-rep output checks; returns a list of problems."""
    problems = []
    if rec.get("workload") != workload or rec.get("seed") != seed or rec.get("traced") != traced:
        problems.append("record does not describe the requested run")
    if rec.get("precision") != "f64" or rec.get("gemm_threads") != 1:
        problems.append("precision/gemm_threads not pinned to f64/1")
    if not rec.get("parity"):
        problems.append("a replica snapshot differs from run_scenario")
    if rec["jobs_completed"] + rec["jobs_lost"] != rec["jobs_submitted"]:
        problems.append("completed + lost != submitted")
    for key, value in rec.items():
        if isinstance(value, str) and value in ("nan", "inf"):
            problems.append(f"{key} is not finite")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{key} is not finite")
    return problems


def summarize(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    traced = args.trace == 1

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    wanted = PER_LAYER if traced else END_TO_END
    records, problems = [], []
    attempted = failed = 0
    start = time.monotonic()
    while attempted < MAX_REPS:
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S or (attempted >= MIN_REPS and elapsed >= args.seconds):
            break
        attempted += 1
        rec = run_rep(binary, args.workload, args.seed, traced, HARD_LIMIT_S - elapsed)
        if rec is None:
            failed += 1
            continue
        if traced:
            rec.update(derived(rec))
        problems += check_rep(rec, args.workload, args.seed, traced)
        records.append(rec)

    if records and len({r["fingerprint"] for r in records}) != 1:
        problems.append("simulated metrics differ between reps of one seed")
    for p in sorted(set(problems)):
        log(f"check failed: {p}")

    stats = {k: summarize([r[k] for r in records]) for k in wanted} if records else {}
    first = records[0] if records else {}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - start, "reps": len(records),
        **{k: first.get(k) for k in ("registry", "system", "trace_jobs", "precision",
                                     "gemm_threads")},
        "nproc": os.cpu_count(), "build_type": build_type(), "git_describe": git_describe(),
        "stats": stats,
    }
    print("perfbench: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": bool(records) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": stats[k][SLOW_SIDE.get(k, "median")], "unit": wanted[k]}
                    for k in stats},
    }
    print(json.dumps(result))
    return 0 if records else 1


if __name__ == "__main__":
    sys.exit(main())
