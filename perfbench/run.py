#!/usr/bin/env python3
"""Repository benchmark for the simulated EMERALDS kernel.

Run from the repository root:

  python3 perfbench/run.py --workload fleet_long --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all          # every workload in turn
  python3 perfbench/run.py --workload csd_deploy --seed 2 --record

Workloads (each repetition does a fixed amount of work in a fresh process, so
peak RSS belongs to that workload alone):

  fleet_long   fleet::RunFleet, 32 nodes x 2 s of virtual time, 2 workers.
  torture_smp  300 serial fuzz::RunTorture calls of 2000 ops, 1/2/4 cores.
  csd_deploy   24 paper-recipe task sets (20-50 tasks, periods / 2): CSD-3
               ComputeBreakdown, then SpawnTaskSet at 90% of the breakdown
               scale on a default CSD-3 kernel for 8 s of virtual time.

The benchmark builds perfbench_bin from source into .bench_build/ and runs
repetitions until --seconds have passed (at least three are timed, after one
untimed warm-up). Repetition k draws its inputs from batch k mod 16 of the
seed, so a run summarizes many independent draws of the same recipe rather
than hinging on one. It checks each repetition's simulated outcome and prints one
line per metric. The last line of standard output is a JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every unit passed.

End-to-end metrics (--trace 0), medians over the timed repetitions except
peak_rss_mb:
  cpu_s        process CPU seconds, all threads, for the timed work
  wall_s       wall seconds for the same work
  peak_rss_mb  the smallest peak resident memory (VmHWM) of a repetition's
               process: the memory every batch needs. About a third of
               torture batches hold one seed whose oracle replays a full
               trace ring, which lifts that process's peak from 9 to 15-18
               MB; a median over batches would flip between the two.
  setup_s      from process spawn to the start of the timed work (process
               start, argument parsing, input generation)
  pass_ratio   1 - fail_ratio; fail_ratio = failed units / attempted units.
               A unit is a fleet node, a torture seed or a deployed task set.

A unit fails when it fails an oracle or misses a deadline (csd_deploy). A
repetition whose outcome differs from the reference for its batch fails every
unit of the run, since the simulated semantics changed. The reference is
perfbench/references.json when it records the seed (seed 1 is the default,
seed 2 the held-out seed), else the first repetition of the same batch.

--trace 1 runs untraced repetitions for half of --seconds, then two traced
repetitions that record spans around each call into a src/ module. It prints
every per-layer metric in PER_LAYER, marks each as an exact count or a timing,
requires the exact counts of the two traced runs to be identical, and reports
the traced run's own cpu_s beside the untraced one.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_bin"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("fleet_long", "torture_smp", "csd_deploy")
MIN_REPETITIONS = 3
BATCHES = 16
CHILD_TIMEOUT_S = 150
FLEET_WORKERS = 2

# Simulated outcomes that must match the reference exactly.
FLEET_KEYS = ("events_total", "jobs_completed", "deadline_misses", "chain_completed",
              "blame_digest", "nodes_failed")
SET_KEYS = ("utilization", "partition", "jobs_completed")

END_TO_END = (("cpu_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("pass_ratio", "ratio"))

TRACE_EVENT_TYPES = (
    "context_switch", "job_release", "job_complete", "deadline_miss", "sem_acquire",
    "sem_acquire_block", "sem_release", "sem_cse_early_pi", "pi_inherit", "pi_restore", "irq",
    "msg_send", "msg_recv", "thread_exit", "pi_chain_limit", "headroom_low", "chain_emit",
    "chain_consume", "trace_epoch", "overhead_span", "thread_block", "thread_ready")
QUEUE_KINDS = ("edf_list", "rm_list", "rm_heap")
QUEUE_OPS = ("block", "unblock", "select")

FLEET = ("fleet_long",)
TORTURE = ("torture_smp",)
CSD = ("csd_deploy",)
KERNELS = ("fleet_long", "csd_deploy")

# Layer -> end-to-end metric -> workload: which number each per-layer metric
# should move, and where. "exact" metrics are deterministic counts (or ratios
# of counts) that must repeat bit for bit; "timing" metrics are host time.
# (name, unit, better, kind, workloads that exercise it, what it should move)
PER_LAYER = [
    ("fleet.inspect_node_ms.p50", "ms", "lower", "timing", FLEET, "cpu_s, wall_s on fleet_long"),
    ("fleet.inspect_node_ms.max", "ms", "lower", "timing", FLEET, "wall_s on fleet_long"),
    ("fleet.node_build_and_run_ms", "ms", "lower", "timing", FLEET, "cpu_s on fleet_long"),
    ("fleet.pool_busy_ratio", "ratio", "higher", "timing", FLEET, "wall_s on fleet_long"),
    ("fleet.triage_ms", "ms", "lower", "timing", FLEET, "cpu_s on fleet_long"),
    ("fleet.report_ms", "ms", "lower", "timing", FLEET, "cpu_s on fleet_long"),
] + [
    (f"obs.{name}_ms", "ms", "lower", "timing", KERNELS,
     "cpu_s on fleet_long; no change on csd_deploy")
    for name in ("analyze_trace", "reconcile", "analyze_chains", "analyze_postmortem",
                 "collect_telemetry")
] + [
    ("obs.replay_ns_per_record", "ns", "lower", "timing", KERNELS, "cpu_s on fleet_long"),
    ("hal.trace.records_per_virtual_ms", "1/ms", "lower", "exact", KERNELS,
     "peak_rss_mb, cpu_s on fleet_long"),
] + [
    (f"hal.trace.records.{t}", "count", "lower", "exact", KERNELS,
     "peak_rss_mb, cpu_s on fleet_long")
    for t in TRACE_EVENT_TYPES
] + [
    ("hal.trace.overhead_span_share", "ratio", "lower", "exact", KERNELS,
     "peak_rss_mb, cpu_s on fleet_long"),
    ("hal.trace.dropped", "count", "lower", "exact", KERNELS,
     "peak_rss_mb on fleet_long (large by design on csd_deploy)"),
    ("core.events", "count", "lower", "exact", WORKLOADS, "cpu_s on csd_deploy, fleet_long"),
    ("core.context_switches", "count", "lower", "exact", WORKLOADS,
     "cpu_s on csd_deploy, fleet_long"),
    ("core.timer_dispatches", "count", "lower", "exact", WORKLOADS,
     "cpu_s on csd_deploy, fleet_long"),
] + [
    (f"core.queue_ops.{k}.{o}", "count", "lower", "exact", WORKLOADS,
     "cpu_s on csd_deploy, fleet_long")
    for k in QUEUE_KINDS for o in QUEUE_OPS
] + [
    ("core.ipis", "count", "lower", "exact", WORKLOADS, "cpu_s on torture_smp"),
    ("core.sem_contended", "count", "lower", "exact", WORKLOADS, "cpu_s on torture_smp"),
    ("core.pi_inherits", "count", "lower", "exact", WORKLOADS, "cpu_s on torture_smp"),
    ("core.cse_switches_saved", "count", "higher", "exact", WORKLOADS, "cpu_s on torture_smp"),
    ("core.kernel_build_ms", "ms", "lower", "timing", CSD, "cpu_s on csd_deploy"),
    ("core.run_until_ns_per_event", "ns", "lower", "timing", CSD, "cpu_s on csd_deploy"),
    ("analysis.breakdown_ms", "ms", "lower", "timing", CSD, "cpu_s on csd_deploy"),
    ("analysis.full_evals", "count", "lower", "exact", CSD, "cpu_s on csd_deploy"),
    ("analysis.bound_evals", "count", "lower", "exact", CSD, "cpu_s on csd_deploy"),
    ("analysis.cache_hits", "count", "higher", "exact", CSD, "cpu_s on csd_deploy"),
    ("analysis.pruned", "count", "higher", "exact", CSD, "cpu_s on csd_deploy"),
    ("analysis.considered", "count", "lower", "exact", CSD, "cpu_s on csd_deploy"),
    ("analysis.prune_ratio", "ratio", "higher", "exact", CSD, "cpu_s on csd_deploy"),
    ("fuzz.seed_cpu_ms.p50", "ms", "lower", "timing", TORTURE, "cpu_s on torture_smp"),
    ("fuzz.seed_cpu_ms.p95", "ms", "lower", "timing", TORTURE, "cpu_s on torture_smp"),
    ("fuzz.ns_per_op", "ns", "lower", "timing", TORTURE, "cpu_s on torture_smp"),
    ("fuzz.ops_executed", "count", "higher", "exact", TORTURE, "cpu_s on torture_smp"),
    ("fuzz.trace_retained", "count", "lower", "exact", TORTURE, "cpu_s on torture_smp"),
    ("fuzz.trace_dropped", "count", "lower", "exact", TORTURE, "cpu_s on torture_smp"),
    ("trace.cpu_s", "s", "lower", "timing", WORKLOADS, "traced run's own cpu_s"),
    ("trace.untraced_cpu_s", "s", "lower", "timing", WORKLOADS, "cpu_s of the same run"),
    ("trace.overhead_ratio", "ratio", "lower", "timing", WORKLOADS, "trace.cpu_s / untraced"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no kernel sources under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_bin",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))


def run_child(workload, seed, batch, trace_out=None):
    """One repetition in a fresh process; returns its JSON line plus setup_s."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--batch", str(batch)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    child = json.loads(done.stdout.strip().splitlines()[-1])
    child["setup_s"] = child["timed_start_s"] - spawned
    return child


def reference_of(workload, child):
    """The checked part of a repetition's outcome, in references.json form."""
    outcome, units = child["outcome"], child["units"]
    if workload == "fleet_long":
        return {key: outcome[key] for key in FLEET_KEYS}
    if workload == "torture_smp":
        return {"ops_executed": outcome["ops_executed"],
                "ok": "".join("1" if u["ok"] else "0" for u in units)}
    return {"jobs_completed": outcome["jobs_completed"],
            "sets": [{key: u[key] for key in SET_KEYS} for u in units]}


def oracle_failures(workload, child):
    """The reasons of the units that failed an oracle or missed a deadline."""
    units = child["units"]
    if workload == "fleet_long":
        return [u["failure"] for u in units if u["failure"]]
    if workload == "torture_smp":
        return [u["failure"] or "oracle failed" for u in units if not u["ok"]]
    return [f"{u['deadline_misses']} deadline misses" for u in units if u["deadline_misses"]]


def reference_mismatch(got, reference):
    """Describes the first difference from the reference; None when equal."""
    for key, want in reference.items():
        if got.get(key) != want:
            if key == "sets" and len(got[key]) == len(want):
                index = next(i for i, (a, b) in enumerate(zip(got[key], want)) if a != b)
                return f"task set {index}: {got[key][index]} differs from the reference {want[index]}"
            return f"{key} {str(got.get(key))[:80]} differs from the reference {str(want)[:80]}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Run:
    """Repetitions of one workload and seed, with their outcome checks."""

    def __init__(self, workload, seed, references):
        self.workload = workload
        self.seed = seed
        recorded = references.get(workload, {}).get(str(seed))
        self.references = list(recorded) if recorded else [None] * BATCHES
        self.reference_source = "references.json" if recorded else "first repetition of each batch"
        roles = {str(s): role for role, s in references.get("seeds", {}).items()}
        self.seed_role = roles.get(str(seed), "unrecorded")
        self.children = []
        self.attempted = 0
        self.oracle_failed = 0
        self.mismatched = False
        self.failures = []

    @property
    def failed(self):
        return self.attempted if self.mismatched else self.oracle_failed

    def add(self, child):
        got = reference_of(self.workload, child)
        batch = child["batch"]
        if self.references[batch] is None:
            self.references[batch] = got
        mismatch = reference_mismatch(got, self.references[batch])
        if mismatch:
            self.fail_run(f"batch {batch}: {mismatch}")
        reasons = oracle_failures(self.workload, child)
        self.children.append(child)
        self.attempted += len(child["units"])
        self.oracle_failed += len(reasons)
        self.failures += reasons[:max(0, 5 - len(self.failures))]

    def fail_run(self, reason):
        self.mismatched = True
        self.failures.insert(0, reason)

    def untraced(self):
        """Timed untraced repetitions: all but the first, which warms the
        page cache and is checked but not timed."""
        return [c for c in self.children[1:] if not c["traced"]]


def repeat(run, seconds):
    deadline = time.monotonic() + seconds
    while len(run.untraced()) < MIN_REPETITIONS or time.monotonic() < deadline:
        run.add(run_child(run.workload, run.seed, len(run.children) % BATCHES))


def end_to_end_metrics(run):
    children = run.untraced()
    metrics = {}
    for name, unit in END_TO_END[:-1]:
        summary = min if name == "peak_rss_mb" else statistics.median
        metrics[name] = {"value": summary(c[name] for c in children), "unit": unit}
    metrics["pass_ratio"] = {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"}
    return metrics


# --- Per-layer metrics from a traced repetition's spans and counts ----------

def span_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def layer_values(workload, trace):
    """Per-layer values of one traced repetition: name -> list of samples
    (timings) or a single-element list (counts and ratios of counts)."""
    spans, counts = trace["spans"], trace["counts"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    values = {}

    def durations(name):
        return [span_ms(s) for s in by_name.get(name, [])]

    obs_names = {"analyze_trace": "obs.AnalyzeTrace", "reconcile": "obs.ComputeReconciliation",
                 "analyze_chains": "obs.AnalyzeChains",
                 "analyze_postmortem": "obs.AnalyzePostmortem",
                 "collect_telemetry": "obs.CollectNodeTelemetry"}
    if workload in KERNELS:
        for metric, span_name in obs_names.items():
            values[f"obs.{metric}_ms"] = durations(span_name)
        replay_ms = sum(durations("obs.AnalyzeTrace") + durations("obs.AnalyzeChains") +
                        durations("obs.AnalyzePostmortem"))
        values["obs.replay_ns_per_record"] = [replay_ms * 1e6 / (3 * counts["hal.trace.retained"])]
        values["hal.trace.records_per_virtual_ms"] = [
            counts["hal.trace.recorded"] / (counts["hal.virtual_us"] / 1000)]
        for t in TRACE_EVENT_TYPES:
            values[f"hal.trace.records.{t}"] = [counts[f"hal.trace.records.{t}"]]
        values["hal.trace.overhead_span_share"] = [
            counts["hal.trace.records.overhead_span"] / counts["hal.trace.retained"]]
        values["hal.trace.dropped"] = [counts["hal.trace.dropped"]]

    for name in ["core.events", "core.context_switches", "core.timer_dispatches", "core.ipis",
                 "core.sem_contended", "core.pi_inherits", "core.cse_switches_saved"] + [
                     f"core.queue_ops.{k}.{o}" for k in QUEUE_KINDS for o in QUEUE_OPS]:
        values[name] = [counts[name]]

    if workload == "fleet_long":
        visit_ms = {s["parent"]: span_ms(s) for s in by_name["fleet.visit"]}
        obs_ms = {}
        for span in spans:
            if span["name"].startswith("obs."):
                obs_ms[span["unit"]] = obs_ms.get(span["unit"], 0.0) + span_ms(span)
        inspect, build_and_run = [], []
        for index, span in enumerate(spans):
            if span["name"] == "fleet.InspectNode":
                own = span_ms(span) - visit_ms.get(index, 0.0)
                inspect.append(own)
                build_and_run.append(own - obs_ms.get(span["unit"], 0.0))
        values["fleet.inspect_node_ms.p50"] = inspect
        values["fleet.inspect_node_ms.max"] = inspect
        values["fleet.node_build_and_run_ms"] = build_and_run
        values["fleet.triage_ms"] = durations("fleet.ComputeFleetTriage")
        values["fleet.report_ms"] = durations("fleet.BuildFleetRunReport")
    elif workload == "torture_smp":
        seed_cpu_ms = [s["cpu_ns"] / 1e6 for s in by_name["fuzz.RunTorture"]]
        values["fuzz.seed_cpu_ms.p50"] = seed_cpu_ms
        values["fuzz.seed_cpu_ms.p95"] = seed_cpu_ms
        values["fuzz.ns_per_op"] = [sum(seed_cpu_ms) * 1e6 / counts["fuzz.ops_executed"]]
        for name in ("fuzz.ops_executed", "fuzz.trace_retained", "fuzz.trace_dropped"):
            values[name] = [counts[name]]
    else:
        values["core.kernel_build_ms"] = durations("core.build")
        run_ns = sum(durations("core.RunUntil")) * 1e6
        values["core.run_until_ns_per_event"] = [run_ns / counts["core.events"]]
        values["analysis.breakdown_ms"] = durations("analysis.ComputeBreakdown")
        for name in ("full_evals", "bound_evals", "cache_hits", "pruned", "considered"):
            values[f"analysis.{name}"] = [counts[f"analysis.{name}"]]
        values["analysis.prune_ratio"] = [
            (counts["analysis.pruned"] + counts["analysis.cache_hits"]) /
            counts["analysis.considered"]]
    return values


def summarize(name, samples):
    if name.endswith(".max"):
        return max(samples)
    if name.endswith(".p95"):
        return percentile(samples, 0.95)
    return statistics.median(samples)


def exact_mismatches(per_run):
    """Exact per-layer metrics whose values differ between traced runs."""
    return [name for name, _, _, kind, _, _ in PER_LAYER
            if kind == "exact" and name in per_run[0]
            and any(values.get(name) != per_run[0][name] for values in per_run[1:])]


def per_layer_metrics(run, traces):
    """Returns (metrics, sample counts, exact-count mismatches)."""
    per_run = [layer_values(run.workload, t) for t in traces]
    mismatches = exact_mismatches(per_run)
    untraced_cpu = [c["cpu_s"] for c in run.untraced()]
    traced_cpu = [c["cpu_s"] for c in run.children if c["traced"]]
    pooled = {"trace.cpu_s": traced_cpu, "trace.untraced_cpu_s": untraced_cpu,
              "trace.overhead_ratio": [statistics.median(traced_cpu) /
                                       statistics.median(untraced_cpu)]}
    if run.workload == "fleet_long":
        wall = statistics.median(c["wall_s"] for c in run.untraced())
        pooled["fleet.pool_busy_ratio"] = [
            statistics.median(untraced_cpu) / (wall * FLEET_WORKERS)]
    for name, _, _, kind, _, _ in PER_LAYER:
        if name in per_run[0]:
            # Counts come from the first traced run (the second must equal
            # it); timing samples are pooled over both.
            pooled[name] = per_run[0][name] if kind == "exact" else [
                x for v in per_run for x in v[name]]
    metrics, samples = {}, {}
    for name, unit, _, _, _, _ in PER_LAYER:
        values = pooled.get(name, [])
        metrics[name] = {"value": float(summarize(name, values)) if values else 0.0,
                         "unit": unit}
        samples[name] = len(values)
    return metrics, samples, mismatches


def run_workload(workload, seed, seconds, trace, references):
    run = Run(workload, seed, references)
    if not trace:
        repeat(run, seconds)
        return run, end_to_end_metrics(run), None
    repeat(run, seconds / 2)
    traces = []
    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for k in range(2):
        path = trace_dir / f"{workload}-{seed}-{k}.json"
        run.add(run_child(workload, seed, 0, path))
        traces.append(json.loads(path.read_text()))
    metrics, samples, mismatches = per_layer_metrics(run, traces)
    if mismatches:
        run.fail_run("exact counts differ between the traced runs: " + ", ".join(mismatches))
    return run, metrics, samples


def fmt(value):
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def report(run, seconds, metrics, samples):
    children = run.untraced()
    print(f"perfbench {run.workload} seed={run.seed} ({run.seed_role} seed; outcomes "
          f"checked against the {run.reference_source}), {len(children)} timed untraced "
          f"repetitions in ~{seconds:g} s")
    if samples is None:
        for name, unit in END_TO_END:
            values = [c[name] for c in children] if name != "pass_ratio" else None
            spread = ""
            if values:
                q1, q3 = quartiles(values)
                summary = "min" if name == "peak_rss_mb" else "median"
                spread = f"  ({summary} of {len(values)}; q1 {fmt(q1)}, q3 {fmt(q3)})"
            print(f"  {name:<12} {fmt(metrics[name]['value']):>12} {unit}{spread}")
    else:
        print("  per-layer metrics (exact = deterministic count, repeats bit for bit; "
              "timing = host time):")
        for name, unit, _, kind, used, moves in PER_LAYER:
            value = fmt(metrics[name]["value"]) if run.workload in used else "n/a"
            print(f"  {name:<36} {value:>14} {unit:<6} {kind:<6} n={samples[name]:<5} "
                  f"moves {moves}")
    print(f"  fail_ratio   {run.failed / run.attempted:>12.6g} ratio  "
          f"({run.failed} of {run.attempted} units failed)")
    last = run.children[-1]["outcome"]
    for key in ("fleet_digest", "trace_digest"):
        if key in last:
            print(f"  {key} {last[key]} (deterministic, printed only: trace-encoding changes "
                  f"may move it)")
    for reason in run.failures[:5]:
        print(f"  FAILED: {reason}")


def dump_references(references):
    """references.json text: one line per batch entry."""
    sections = []
    for key, value in references.items():
        if key == "seeds":
            sections.append(f' "seeds": {json.dumps(value)}')
            continue
        seeds = ",\n".join(
            f'  "{seed}": [\n' + ",\n".join("   " + json.dumps(e) for e in entries) + "\n  ]"
            for seed, entries in value.items())
        sections.append(f' "{key}": {{\n{seeds}\n }}')
    return "{\n" + ",\n".join(sections) + "\n}\n"


def record(workload, seed, references, path):
    build()
    entries = []
    for batch in range(BATCHES):
        child = run_child(workload, seed, batch)
        failures = oracle_failures(workload, child)
        if failures:
            fail(f"{workload} seed {seed} batch {batch} fails: {failures[0]}")
        entries.append(reference_of(workload, child))
    references.setdefault(workload, {})[str(seed)] = entries
    path.write_text(dump_references(references))
    print(f"recorded {workload} seed {seed}: {json.dumps(entries[0])[:300]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES)
    parser.add_argument("--record", action="store_true",
                        help="write the seed's outcome into the references file")
    args = parser.parse_args()

    references = json.loads(args.references.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        for workload in workloads:
            record(workload, args.seed, references, args.references)
        return 0
    build()
    results = {}
    for workload in workloads:
        run, metrics, samples = run_workload(workload, args.seed, args.seconds, args.trace,
                                             references)
        report(run, args.seconds, metrics, samples)
        results[workload] = (run, metrics)

    attempted = sum(run.attempted for run, _ in results.values())
    failed = sum(run.failed for run, _ in results.values())
    if len(workloads) == 1:
        metrics = results[workloads[0]][1]
    else:
        metrics = {f"{w}.{name}": m for w, (_, ms) in results.items() for name, m in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
