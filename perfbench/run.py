#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dlaja simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the simulator and the benchmark from source (Release, into
.bench_build/ at the repository root), runs one workload and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 the
per-layer metrics from a traced run (README.md lists both). The lines before
it give the provenance (host, build, commit, seed) and every run's raw
values; the same record is written to .bench_build/results/. The exit status
is 0 when every output check passed, 1 when one failed (a run that throws
fails its check), 2 on bad arguments and 3 when the build or the measuring
process failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench_dlaja")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")

# Every run must end within 180 s of host time once the program is built.
RUN_BUDGET_S = 170.0

DEFAULT_SEED = 42  # perfbench/cpp/workloads.hpp, kDefaultSeed

WORKLOADS = ("fleet10k_probe4", "saturation16_cached4", "broadcast256_faults")

# (name, unit, better). Simulated quantities carry the sim_ prefix or unit;
# host quantities use plain s / ns.
END_TO_END = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_makespan_s", "sim_s", "lower"),
    ("sim_data_load_mb", "MB", "lower"),
    ("sim_cache_misses", "count", "lower"),
    ("sim_turnaround_p50_s", "sim_s", "lower"),
    ("sim_turnaround_p99_s", "sim_s", "lower"),
    ("jobs_completed_frac", "fraction", "higher"),
)

PER_LAYER = (
    ("sched.submit_ns_p50", "ns", "lower"),
    ("sched.submit_ns_p99", "ns", "lower"),
    ("sched.submit_share", "fraction", "lower"),
    ("sched.callback_ns", "ns", "lower"),
    ("sched.callback_share", "fraction", "lower"),
    ("cluster.estimate_ns_p50", "ns", "lower"),
    ("cluster.estimate_ns_p99", "ns", "lower"),
    ("workload.next_ns", "ns", "lower"),
    ("workload.setup_s", "s", "lower"),
    ("core.setup_engine_s", "s", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.residual_ns_per_event", "ns", "lower"),
    ("sim.events_per_job", "events/job", "lower"),
    ("sim.cancelled_per_job", "events/job", "lower"),
    ("msg.delivered_per_job", "msgs/job", "lower"),
    ("msg.batched_share", "fraction", "higher"),
    ("sched.contests", "count", "lower"),
    ("sched.bids_per_contest", "bids", "lower"),
    ("sched.contest_s_mean", "sim_s", "lower"),
    ("sched.alloc_latency_mean_s", "sim_s", "lower"),
    ("sched.fanout_accept_ratio", "fraction", "higher"),
    ("sched.fanout_stale_declines", "count", "lower"),
    ("sched.bid_rel_error_p50", "fraction", "lower"),
    ("sched.bid_rel_error_p99", "fraction", "lower"),
    ("cluster.queue_wait_mean_s", "sim_s", "lower"),
    ("cluster.fairness_index", "index", "higher"),
    ("storage.hit_rate", "fraction", "higher"),
    ("net.transfer_mb_mean", "MB", "lower"),
    ("net.transfer_s_mean", "sim_s", "lower"),
    ("fault.crashes", "count", "lower"),
    ("fault.retries_per_job", "1/job", "lower"),
    ("fault.attempts_voided", "count", "lower"),
    ("fault.dead_letters", "count", "lower"),
    ("fault.msg_dropped", "count", "lower"),
    ("fault.msg_duplicated", "count", "lower"),
    ("core.attempts_per_job", "1/job", "lower"),
    ("obs.telemetry_samples", "count", "lower"),
    ("bench.trace_overhead", "x", "lower"),
)


class BenchError(Exception):
    """The program could not be built or a measuring process failed."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("configuring the build failed (are the simulator sources "
                             "next to perfbench/?)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_dlaja", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("building perfbench_dlaja failed")


def run_binary(mode, args, deadline):
    """Runs one measuring mode and returns (exit status, its JSON result)."""
    command = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(mode + ": no time left in the run budget")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(mode + ": did not finish within the run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("%s: exited with status %d" % (mode, proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def failures(raw):
    """Root jobs attempted and failed by one measuring process. A run that
    failed an output check counts all its root jobs as failed."""
    summary = raw["summary"]
    per_run = summary["root_jobs"]
    runs = raw["runs"]
    bad_runs = min(raw["failed_runs"], runs)
    lost = summary["dead_lettered"] + summary["lost"]
    return per_run * runs, bad_runs * per_run + (runs - bad_runs) * lost


def end_to_end_metrics(rss, e2e):
    """The end-to-end metric values from an rss and an e2e result.

    jobs_per_s is root jobs completed over run-phase seconds, both summed
    over the measured runs. setup_s is the fastest of the repeated set-ups:
    host speed changes in phases longer than a run, and the median of a
    process's set-ups follows the mix of phases it caught (README.md,
    Steadiness). A run that threw leaves no samples; its metrics read 0."""
    summary = e2e["summary"]
    correct = not rss["problems"] and not e2e["problems"]
    run_s = sum(e2e["run_s"])
    jobs = sum(rate * s for rate, s in zip(e2e["jobs_per_s"], e2e["run_s"]))
    values = {
        "jobs_per_s": jobs / run_s if run_s > 0 else 0.0,
        "setup_s": min(e2e["setup_s"], default=0.0),
        "peak_rss_mb": rss["peak_rss_mb"],
        "jobs_completed_frac": summary["jobs_completed_frac"] if correct else 0.0,
    }
    for name in ("sim_makespan_s", "sim_data_load_mb", "sim_cache_misses",
                 "sim_turnaround_p50_s", "sim_turnaround_p99_s"):
        values[name] = summary[name]
    return values


def result_line(correct, attempted, failed, values, catalog):
    """The benchmark's last output line: every metric of `catalog`, with units."""
    missing = [name for name, _, _ in catalog if name not in values]
    if missing:
        raise BenchError("metrics missing from the result: " + ", ".join(missing))
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in catalog},
    }


def measure(args, deadline):
    """Runs the measuring processes; returns (result line, raw results)."""
    if args.trace == 0:
        rss_status, rss = run_binary("rss", args, deadline)
        e2e_status, e2e = run_binary("e2e", args, deadline)
        attempted = failed = 0
        for raw in (rss, e2e):
            a, f = failures(raw)
            attempted += a
            failed += f
        correct = rss_status == 0 and e2e_status == 0 and not rss["problems"] \
            and not e2e["problems"]
        line = result_line(correct, attempted, failed, end_to_end_metrics(rss, e2e), END_TO_END)
        return line, {"rss": rss, "e2e": e2e}
    status, traced = run_binary("traced", args, deadline)
    attempted, failed = failures(traced)
    correct = status == 0 and not traced["problems"]
    line = result_line(correct, attempted, failed, traced["layers"], PER_LAYER)
    return line, {"traced": traced}


def source_digest():
    """SHA-256 over the simulator and benchmark sources, which identifies the
    measured code when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout; see source_sha256)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, raw):
    build_info = next(iter(raw.values()))["build"]
    warnings = []
    if build_info["build_type"] != "Release" or not build_info["optimized"]:
        warnings.append("build type %s (optimized: %s): numbers are not comparable with "
                        "the Release build the benchmark is defined on"
                        % (build_info["build_type"] or "<none>", build_info["optimized"]))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "sim_seed": next(iter(raw.values()))["sim_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_model": cpu_model(),
        "build": build_info,
        "commit": commit(),
        "source_sha256": source_digest(),
        "warnings": warnings,
    }


def human_summary(line, raw):
    rows = []
    for name, value in line["metrics"].items():
        rows.append("  %-28s %16.6g %s" % (name, value["value"], value["unit"]))
    for key in ("e2e", "traced"):
        if key in raw:
            summary = raw[key]["summary"]
            rows.append("  turnaround percentiles cover %d completed jobs"
                        % summary["turnaround_jobs"])
    rows.append("  generator lateness: not applicable (simulated arrivals are open-loop; "
                "no real-time generator runs on the host)")
    return "\n".join(rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        line, raw = measure(args, deadline)
    except BenchError as e:
        log(str(e))
        return 3
    record = {"provenance": provenance(args, raw), "raw": raw, "result": line}
    for warning in record["provenance"]["warnings"]:
        log("warning: " + warning)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"raw": raw}))
    print(human_summary(line, raw))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
