#!/usr/bin/env python3
"""The repository benchmark: three workloads through the public simulator API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl
    python3 perfbench/run.py spread RUNS.jsonl

A measuring run builds perfbench/ (the simulator libraries from src/ plus the
mdr_perfbench binary) into .bench_build/ on first use, then runs one workload
instance after another, each in a fresh process, until --seconds are spent.
Every instance is checked: its output digest and result counters must repeat
exactly, and cairn_fig must see LFI sweeps and no violation. With --trace 0
the last stdout line reports the end-to-end metrics (medians over the
instances); with --trace 1 it reports the per-layer metrics from profiled
instances, each interleaved with an unprofiled one, plus a direct replay of
the proto layer. --record FILE appends the run's result, with every sample,
to a JSON-lines file; `compare` reads two such files, recorded from two
commits in alternating pairs, and prints a verdict per workload and metric;
`spread` prints each metric's quartile spread over runs of several seeds.
perfbench/README.md documents workloads, metrics and layers.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Default seed (that of the matching example scenario), the shard count the
# binary must report, and the workload's extra checks. README.md lists the
# held-out seeds.
WORKLOADS = {
    "cairn_fig": {"seed": 7, "shards": 1, "lfi": True},
    "waxman1000_cold": {"seed": 11, "shards": 4},
    "waxman120_steady": {"seed": 11, "shards": 4, "shard_check": True},
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("avg_delay_ms", "ms"),
]

# Result counters that must repeat exactly across every instance of a seed.
EXACT = ["digest", "events", "delivered", "dropped", "avg_delay_s",
         "control_messages", "control_bits", "lsus_originated", "acks",
         "lfi_checks", "lfi_violations", "shard_events"]

# Hard cap on one measuring run after the build, below the 180 s limit.
RUN_LIMIT_S = 170.0
JOBS = 4  # build jobs; the simulator runs at most 4 shard threads too


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    """Configures and builds mdr_perfbench; returns the binary's path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay in the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "mdr_perfbench",
                  "-j", str(JOBS)])
    for cmd in steps:
        p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            raise Failure("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "mdr_perfbench")


# -------------------------------------------------------------- instances

class Runner:
    """Runs mdr_perfbench instances of one workload and seed, checking each."""

    def __init__(self, binary, workload, seed, smoke, seconds):
        self.binary = binary
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        start = time.monotonic()
        # New instances start only while they should end by the deadline;
        # a running one is killed only at the hard stop.
        self.deadline = start + min(seconds, RUN_LIMIT_S)
        self.hard_stop = start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.reference = None  # first good simulation result

    def call(self, *extra):
        """One mdr_perfbench process: its JSON line, or None if it failed."""
        self.attempted += 1
        cmd = [self.binary, "--workload", self.workload,
               "--seed", str(self.seed)] + (["--smoke"] if self.smoke else [])
        cmd += list(extra)
        try:
            timeout = max(1.0, self.hard_stop - time.monotonic())
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=timeout)
            if p.returncode != 0:
                raise Failure("exit %d: %s" % (p.returncode, p.stderr.strip()))
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (Failure, subprocess.TimeoutExpired, ValueError,
                IndexError) as e:
            self.fail("%s failed: %s" % (" ".join(cmd[1:]), e))
            return None

    def fail(self, why):
        self.failed += 1
        log("FAILED: " + why)

    def simulate(self, *extra, shards=None):
        r = self.call(*extra)
        if r is None:
            return None
        problems = []
        want_shards = shards or self.spec["shards"]
        if r["shards"] != want_shards:
            problems.append("ran %d shards, not %d"
                            % (r["shards"], want_shards))
        if not (r["events"] > 0 and r["delivered"] > 0
                and 0 < r["avg_delay_s"] < math.inf):
            problems.append("empty or non-finite outputs")
        if self.spec.get("lfi") and not (r["lfi_checks"] > 0
                                         and r["lfi_violations"] == 0):
            problems.append("LFI: %d violations in %d sweeps"
                            % (r["lfi_violations"], r["lfi_checks"]))
        if self.reference is None:
            self.reference = r
        for key in EXACT:
            if key == "shard_events" and shards:
                continue  # per-shard counts depend on the shard count
            if r[key] != self.reference[key]:
                problems.append("%s %r differs from %r"
                                % (key, r[key], self.reference[key]))
        if problems:
            self.fail("%s seed %d: %s" % (self.workload, self.seed,
                                          "; ".join(problems)))
            return None
        return r

    def replay(self):
        r = self.call("--replay")
        if r is not None and not (r["bulk"]["entries"] > 0
                                  and r["steady"]["entries"] > 0):
            self.fail("replay folded no entries")
            return None
        return r


def measure_untraced(runner):
    """Instances back to back until the deadline; the samples."""
    samples, durations = [], []
    while True:
        t0 = time.monotonic()
        r = runner.simulate()
        durations.append(time.monotonic() - t0)
        if r is not None:
            samples.append(r)
        if time.monotonic() + statistics.median(durations) > runner.deadline:
            return samples


def measure_traced(runner):
    """Interleaved unprofiled/profiled pairs, the replay, and for
    waxman120_steady the one-shard digest check."""
    plain, traced, durations = [], [], []
    first = runner.simulate()
    if first is not None:
        plain.append(first)
    if runner.spec.get("shard_check"):
        runner.simulate("--shards", "1", shards=1)
    replay = runner.replay()
    while True:
        t0 = time.monotonic()
        for out, extra in ((traced, ["--prof"]), (plain, [])):
            r = runner.simulate(*extra)
            if r is not None:
                out.append(r)
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(durations) > runner.deadline:
            return plain, traced, replay


# ---------------------------------------------------------------- metrics

def med(values):
    return statistics.median(values)


def end_to_end(samples):
    values = {
        "wall_s": [s["run_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "avg_delay_ms": [s["avg_delay_s"] * 1e3 for s in samples],
    }
    metrics = {name: (med(values[name]), unit) for name, unit in END_TO_END}
    return metrics, values


def section(trace, name, field="total_ns"):
    return trace["prof"]["sections"][name][field]


def per_layer(plain, traced, replay):
    """Every per-layer metric: (value, unit). Times are medians over the
    profiled instances; counts repeat exactly for a seed."""
    t = traced[0]
    run_s = med([s["run_s"] for s in plain])

    def secs(name, field="total_ns"):
        return med([section(s, name, field) / 1e9 for s in traced])

    def count(name):
        return section(t, name, "count")

    busy = secs("engine.busy")
    stall = secs("engine.stall")
    control = sum(secs(n, "self_ns") for n in (
        "mpda.table_update", "mpda.lsu_decode", "mpda.recompute",
        "mpda.flood"))
    shard_events = t["shard_events"]
    bulk, steady = replay["bulk"], replay["steady"]
    m = {
        "sim.events": (t["events"], "count"),
        "sim.events_per_s": (t["events"] / run_s, "1/s"),
        "sim.dispatch.transmit": (count("dispatch.transmit"), "count"),
        "sim.dispatch.deliver": (count("dispatch.deliver"), "count"),
        "sim.dispatch.source": (count("dispatch.source"), "count"),
        "sim.dispatch.timer": (count("dispatch.timer"), "count"),
        "sim.delivered": (t["delivered"], "count"),
        "sim.dropped": (t["dropped"], "count"),
        "sim.report_s": (secs("sim.report"), "s"),
        "sim.construct_s": (med([s["construct_s"] for s in plain]), "s"),
        "topo.build_s": (med([s["topo_build_s"] for s in plain]), "s"),
        "engine.busy_s": (busy, "s"),
        "engine.stall_s": (stall, "s"),
        "engine.handoff_s": (secs("engine.handoff"), "s"),
        "engine.stall_share": (stall / (busy + stall), "ratio"),
        "engine.windows": (t["prof"]["windows"], "count"),
        "engine.imbalance": (med([s["prof"]["imbalance"] for s in traced]),
                             "ratio"),
        "engine.shard_events_imbalance": (
            max(shard_events) / (sum(shard_events) / len(shard_events)),
            "ratio"),
        "proto.table_update_s": (secs("mpda.table_update", "self_ns"), "s"),
        "proto.table_update.count": (count("mpda.table_update"), "count"),
        "proto.apply_lsu_ns_per_entry": (bulk["lsu_ns"] / bulk["entries"],
                                         "ns"),
        "proto.entries_folded": (bulk["entries"], "count"),
        "proto.mtu_us_per_call": (bulk["mtu_ns"] / bulk["mtu_calls"] / 1e3,
                                  "us"),
        "proto.mtu_calls": (bulk["mtu_calls"], "count"),
        "proto.diff.apply_lsu_ns_per_entry": (
            steady["lsu_ns"] / steady["entries"], "ns"),
        "proto.diff.entries_folded": (steady["entries"], "count"),
        "proto.diff.mtu_us_per_call": (
            steady["mtu_ns"] / steady["mtu_calls"] / 1e3, "us"),
        "proto.diff.mtu_calls": (steady["mtu_calls"], "count"),
        "proto.control_messages": (t["control_messages"], "count"),
        "proto.control_bits": (t["control_bits"], "bit"),
        "core.mpda.recompute_s": (secs("mpda.recompute", "self_ns"), "s"),
        "core.mpda.recompute.count": (count("mpda.recompute"), "count"),
        "core.mpda.lsu_decode_s": (secs("mpda.lsu_decode", "self_ns"), "s"),
        "core.mpda.flood_s": (secs("mpda.flood", "self_ns"), "s"),
        "core.mpda.lsus_originated": (t["lsus_originated"], "count"),
        "core.mpda.acks": (t["acks"], "count"),
        "core.control_share": (control / busy, "ratio"),
        "core.alloc.ah_s": (secs("alloc.ah", "self_ns"), "s"),
        "core.alloc.ah.count": (count("alloc.ah"), "count"),
        "core.alloc.ih_s": (secs("alloc.ih", "self_ns"), "s"),
        "core.alloc.ih.count": (count("alloc.ih"), "count"),
        "obs.prof_overhead": (
            med([s["run_s"] for s in traced]) / run_s - 1, "ratio"),
        "obs.prof_overhead_est": (
            med([s["prof"]["overhead_est_ns"] / s["prof"]["wall_ns"]
                 for s in traced]), "ratio"),
    }
    return m


# ------------------------------------------------------------ measure run

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args):
    spec = WORKLOADS[args.workload]
    seed = spec["seed"] if args.seed is None else args.seed
    runner = Runner(build(), args.workload, seed, args.smoke, args.seconds)
    if args.trace:
        plain, traced, replay = measure_traced(runner)
        ok = bool(plain and traced and replay)
        metrics = per_layer(plain, traced, replay) if ok else {}
        samples = {"plain": plain, "traced": traced, "replay": replay}
    else:
        plain = measure_untraced(runner)
        ok = bool(plain)
        metrics, samples = end_to_end(plain) if ok else ({}, {})
        for name, unit in END_TO_END if ok else ():
            q1, q3 = quartiles(samples[name])
            print("%-16s %14.6g %-4s median of n=%d, quartiles %.6g .. %.6g"
                  % (name, metrics[name][0], unit, len(samples[name]), q1, q3))
    if not ok:
        runner.fail("no successful instance")
    correct = runner.failed == 0
    print("%s seed %d: %d instances attempted, %d failed, host_cpus %d"
          % (args.workload, seed, runner.attempted, runner.failed,
             os.cpu_count() or 0))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": seed, "trace": args.trace,
                "seconds": args.seconds, "host_cpus": os.cpu_count(),
                "result": result, "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------- compare

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def verdict(base, head, bound, lower_better):
    """The choosing-metrics rule for one workload and metric: a gain needs
    nine tenths of the pairs won and a median shift beyond the base's own
    quartile spread; a spread wider than the bound leaves it unresolved
    unless every head run beats every base run."""
    sign = 1 if lower_better else -1
    b_med, h_med = med(base), med(head)
    b_q1, b_q3 = quartiles(base)
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    if wins >= 0.9 * len(base) and sign * (b_med - h_med) > b_q3 - b_q1:
        return "improved", wins
    if all(sign * (b - h) > 0 for b in base for h in head):
        return "no worse within bound", wins
    if (b_q3 - b_q1) > bound * abs(b_med):
        return "unresolved", wins
    if sign * (h_med - b_med) > bound * abs(b_med):
        return "worse", wins
    return "no worse within bound", wins


def end_to_end_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def spread(args):
    """Steadiness of recorded runs (one per seed): per workload and metric,
    the quartile distance as a share of the median, against the bound."""
    records = [r for r in load_records(args.records) if not r["trace"]]
    print("%-18s %-14s %3s %14s %8s %6s" % (
        "workload", "metric", "n", "median", "spread", "bound"))
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        for m in end_to_end_spec():
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, q3 = quartiles(values)
            print("%-18s %-14s %3d %14.6g %7.2f%% %5.0f%%" % (
                workload, m["name"], len(values), med(values),
                100 * (q3 - q1) / med(values), 100 * m["bound"]))
    return 0


def compare(args):
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in end_to_end_spec()]
    base = [r for r in load_records(args.base) if not r["trace"]]
    head = [r for r in load_records(args.head) if not r["trace"]]
    cpus = sorted({r["host_cpus"] for r in base + head})
    print("host_cpus: %s" % ", ".join(str(c) for c in cpus))
    print("%-18s %-14s %5s %24s %24s %6s  %s" % (
        "workload", "metric", "pairs", "base median [q1 q3]",
        "head median [q1 q3]", "won", "verdict"))
    status = 0
    for workload in WORKLOADS:
        b_runs = [r for r in base if r["workload"] == workload]
        h_runs = [r for r in head if r["workload"] == workload]
        pairs = min(len(b_runs), len(h_runs))
        if pairs == 0:
            continue
        for name, bound, lower_better in metrics:
            b = [r["result"]["metrics"][name]["value"] for r in b_runs[:pairs]]
            h = [r["result"]["metrics"][name]["value"] for r in h_runs[:pairs]]
            v, wins = verdict(b, h, bound, lower_better)
            status |= v in ("worse", "unresolved")
            print("%-18s %-14s %5d %24s %24s %5.0f%%  %s" % (
                workload, name, pairs,
                "%.5g [%.5g %.5g]" % ((med(b),) + quartiles(b)),
                "%.5g [%.5g %.5g]" % ((med(h),) + quartiles(h)),
                100.0 * wins / pairs, v))
    return status


# ------------------------------------------------------------------- main

def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", help="JSON-lines records of the parent commit")
        p.add_argument("head", help="JSON-lines records of the change")
        return compare(p.parse_args(argv[1:]))
    if argv[:1] == ["spread"]:
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("records", help="JSON-lines records, one run per seed")
        return spread(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, help="default: the workload's own")
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="the few-second size of the workload")
    p.add_argument("--record", help="append the result to this JSONL file")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        return measure(args)
    except Failure as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
