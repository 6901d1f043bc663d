#!/usr/bin/env python3
"""Wall-clock benchmark of the agnn library: one command, three workloads.

    python3 wallbench/run.py --workload train-gat|dist-gat-p4|serve-zipf \\
        --seed N --seconds S --trace 0|1

Builds the harness (wallbench/CMakeLists.txt) into .bench_build/wallbench,
runs one workload, checks its outputs, and prints the run context, the
metrics with their units and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs separately with the
tracer on, writes the Chrome/Perfetto trace, prints the self-time table and
reports the per-layer metrics. Exits nonzero when an output check fails.
NOTES.md explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "wallbench"
HARNESS = BUILD_DIR / "wallbench_harness"
WORKLOADS = ("train-gat", "dist-gat-p4", "serve-zipf")

# Kernels with a metric of their own; any other kernel lands in
# tensor.other_ms, so the self-time sum always covers the whole step.
KERNELS = (
    "spmm", "sddmm", "sddmm_unweighted", "psi_gat", "row_softmax",
    "row_softmax_backward", "sparse_row_sums", "sparse_col_sums",
    "fused_gat_aggregate",
)

# OpenMP threads per thread of the library, per workload. Every thread the
# library starts (a 1.5D rank, a serving worker) forks an OpenMP team of the
# default size, nproc, so under the defaults dist-gat-p4 and serve-zipf keep
# several teams busy on nproc cores. On a shared host their run-to-run spread
# then measured the scheduler, not the program (NOTES.md), so they run one
# OpenMP thread per rank or worker. train-gat, a single team, keeps the
# default. OpenMP settings found in the environment are stamped and dropped.
OMP_THREADS = {"train-gat": None, "dist-gat-p4": "1", "serve-zipf": "1"}
OMP_PREFIXES = ("OMP_", "GOMP_")

# Units of work per workload for the self-time accounting: the first and
# last top-level span of one unit on one track, and the harness's own wall
# samples of that unit, if it times it from outside. The per-layer metrics
# add up the per-unit figures of every kind, so on train-gat they are per
# training step plus one inference pass.
UNIT_SPANS = {
    "train-gat": (("bench.step", "bench.step", "traced_step_ms"),
                  ("bench.infer", "bench.infer", "traced_infer_ms")),
    "dist-gat-p4": (("bench.dist_step", "bench.dist_step", None),),
    "serve-zipf": (("serve.sample", "serve.reply", None),),
}

# A unit the harness timed from outside must be covered by its per-layer
# self times plus its unattributed time to within this share of that wall.
SUM_TOLERANCE = 0.05


def fail(msg, code=1):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(code)


def refuse_knobs():
    leaked = sorted(k for k in os.environ if k.startswith("AGNN_"))
    if leaked:
        fail("refusing to run with library knobs set: " + ", ".join(leaked)
             + " (the benchmark measures the program's defaults)", code=2)


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, timeout=300).returncode != 0:
            fail("configuring the harness failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode != 0:
        fail("building the harness failed")


def harness_env(workload):
    env = {k: v for k, v in os.environ.items() if not k.startswith(OMP_PREFIXES)}
    if OMP_THREADS[workload] is not None:
        env["OMP_NUM_THREADS"] = OMP_THREADS[workload]
    return env


def run_harness(args, trace_file):
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=160,
                          env=harness_env(args.workload))
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def cpu_ticks():
    """Aggregate CPU time counters of the host (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor took from the machine meanwhile."""
    if before is None or after is None:
        return "unknown"
    d = [b - a for a, b in zip(before, after)]
    return round(100.0 * d[7] / sum(d), 2) if sum(d) > 0 else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def open_loop_latencies(smp, prefix="open_"):
    return stats.due_time_latencies(smp[prefix + "due_ms"], smp[prefix + "sent_ms"],
                                    smp[prefix + "service_ms"])


# ---- end-to-end metrics (untraced run) -------------------------------------

def end_to_end(raw):
    """Returns ({metric: value}, [info lines])."""
    smp, ctr = raw["samples"], raw["counters"]
    info = []
    # Throughput is the median over the run's cycles of each cycle's rate,
    # so a slow spell of the host that spans a few cycles does not move it.
    if raw["workload"] == "serve-zipf":
        work = open_loop_latencies(smp)
        what = "open-loop request latency from due time"
        rates = stats.slice_rates(smp["closed_completed"], smp["closed_elapsed_s"])
        info.append(f"throughput_per_s = median over {len(rates)} cycles of closed-loop "
                    f"requests/s ({sum(smp['closed_completed']):.0f} requests in "
                    f"{sum(smp['closed_elapsed_s']):.3f} s)")
    else:
        work = smp["step_ms"]
        what = "training step"
        slices = stats.split(work, smp["step_slices"])
        rates = stats.slice_rates([ctr["vertices"] * len(s) for s in slices],
                                  [sum(s) / 1000.0 for s in slices])
        info.append(f"throughput_per_s = median over {len(rates)} cycles of vertices "
                    f"trained per second ({ctr['vertices']:.0f} vertices x {len(work)} steps)")
    info.append(f"p50_ms = median {what} over {len(work)} samples")
    info.append(f"infer_p50_ms = median full-graph inference pass over "
                f"{len(smp['infer_ms'])} samples")
    return {
        "p50_ms": statistics.median(work),
        "infer_p50_ms": statistics.median(smp["infer_ms"]),
        "throughput_per_s": statistics.median(rates),
        "setup_s": statistics.median(raw["setup"]["setup_s"]),
        "peak_rss_mb": ctr["peak_rss_mb"],
    }, info


# ---- per-layer metrics (traced run) ----------------------------------------

def trace_spans(raw, checks):
    """The traced run's spans; appends the balance and drop checks."""
    try:
        spans = stats.spans_from_events(stats.read_trace(raw["trace_file"]))
        checks.append({"name": "trace_balanced", "ok": True, "detail": f"{len(spans)} spans"})
    except stats.TraceError as e:
        checks.append({"name": "trace_balanced", "ok": False, "detail": str(e)})
        spans = []
    dropped = raw["counters"]["dropped_events"]
    checks.append({"name": "trace_no_drops", "ok": dropped == 0,
                   "detail": f"{dropped:.0f} dropped events"})
    return spans


def per_layer(raw, spec, checks):
    """Returns ({metric: value}, [(unit spans, acct)], [info lines]) and
    appends to `checks`. A layer the workload does not run reports 0."""
    w = raw["workload"]
    smp, ctr, setup = raw["samples"], raw["counters"], raw["setup"]
    m = {d["name"]: 0.0 for d in spec["per_layer"]}
    info = []

    m["graph.generate_s"] = statistics.median(setup["generate_s"])
    m["graph.build_s"] = statistics.median(setup["build_s"])
    m["graph.nnz"] = ctr["nnz"]

    spans = trace_spans(raw, checks)
    accts = []
    named = wall = 0.0
    for first, last, measured_key in UNIT_SPANS[w]:
        acct = stats.attribute(spans, first, last)
        accts.append(((first, last), acct))
        units = max(acct["units"], 1)
        for name, row in acct["by_name"].items():
            if row["cat"] == "kernel":
                key = f"tensor.{name}_ms" if name in KERNELS else "tensor.other_ms"
                m[key] += row["self_ms"] / units
        m["tensor.kernel_calls"] += acct["kernel_calls"] / units
        m["tensor.kernel_bytes"] += acct["kernel_bytes"] / units
        m["obs.unattributed_ms"] += acct["unattributed_ms"] / units
        named += acct["named_ms"] / units
        wall += acct["wall_ms"] / units
        if measured_key is None:
            continue
        # Named self times plus the unattributed remainder must add up to
        # the wall of the same unit the harness measured from outside.
        covered = sum(r["self_ms"] for r in acct["by_name"].values() if r["named"])
        covered = (covered + acct["unattributed_ms"]) / units
        measured = mean(smp[measured_key])
        gap = abs(covered - measured) / measured if measured > 0 else 1.0
        checks.append({"name": f"self_times_add_up_{first}", "ok": gap <= SUM_TOLERANCE,
                       "detail": f"{covered:.3f} ms of {measured:.3f} ms traced {first} wall "
                                 f"({100 * gap:.2f}% apart, limit {100 * SUM_TOLERANCE:g}%)"})
    m["obs.coverage"] = named / wall if wall > 0 else 0.0
    m["obs.dropped_events"] = ctr["dropped_events"]

    # Tails come from this run's untraced slices. They are diagnostics, not
    # end-to-end metrics: run to run they spread wider than any bound the
    # benchmark could hold them to (NOTES.md).
    if w == "serve-zipf":
        untraced = open_loop_latencies(smp)
        traced = open_loop_latencies(smp, "traced_open_")
        tail_name, what = "serve.tail_ms", "open-loop latency from due time"
    else:
        untraced, traced = smp["step_ms"], smp["traced_step_ms"]
        tail_name = "core.step_tail_ms" if w == "train-gat" else "dist.step_tail_ms"
        what = "untraced training step"
    q, m[tail_name], beyond, n = stats.tail(untraced)
    info.append(f"{tail_name} = p{q:g} {what}: {n} samples, {beyond} beyond it")
    m["obs.trace_overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)

    if w == "train-gat":
        for call in ("forward", "loss", "backward", "optimizer", "infer"):
            m[f"core.{call}_ms"] = mean([s.end - s.begin for s in spans
                                         if s.name == f"bench.{call}"])
        m["core.ws_misses"] = ctr["ws_misses_per_step"]

    if w == "dist-gat-p4":
        vol = ctr["volume"]
        steps = vol["steps"]
        modeled = (max(vol["compute_s"]) + vol["modeled_comm_s"]) / steps * 1000.0
        m["dist.setup_s"] = statistics.median(setup["engine_s"])
        m["dist.rank_cpu_ms"] = statistics.median(vol["max_rank_cpu_ms"])
        m["dist.cpu_over_wall"] = statistics.median(
            [c / s for c, s in zip(vol["max_rank_cpu_ms"], smp["step_ms"])])
        m["dist.modeled_step_ms"] = modeled
        m["dist.modeled_over_wall"] = modeled / statistics.median(smp["step_ms"])
        m["comm.bytes_per_step"] = sum(vol["bytes"]) / steps
        m["comm.messages_per_step"] = sum(vol["messages"]) / steps
        m["comm.supersteps_per_step"] = sum(vol["supersteps"]) / steps
        m["comm.wait_ms"] = max(vol["wait_ms"]) / steps

    if w == "serve-zipf":
        st = ctr["stages"]
        for stage in ("batch", "sample", "gather", "forward", "reply"):
            key = "serve.batch_wait_ms" if stage == "batch" else f"serve.{stage}_ms"
            m[key] = st[f"serve.{stage}.ns"]["mean_ns"] / 1e6
        m["serve.cache_hit_rate"] = ctr["cache_hit_rate"]
        m["serve.batch_size_p50"] = st["batch_size_p50"]
        m["serve.gen_lag_ms"] = statistics.median(
            [s - d for d, s in zip(smp["open_due_ms"], smp["open_sent_ms"])])
        m["serve.warmup_s"] = ctr["warmup_s"]
    return m, accts, info


def print_self_time_table(unit_spans, acct):
    units = max(acct["units"], 1)
    wall = acct["wall_ms"] / units
    first, last = unit_spans
    unit = first if first == last else f"{first} .. {last}"
    print(f"self time per unit ({acct['units']} units of {unit}, "
          f"mean wall {wall:.4f} ms):")
    print(f"  {'span':<28}{'cat':<11}{'calls/unit':>11}{'self_ms':>11}{'share':>8}  kind")
    rows = sorted(acct["by_name"].items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        self_ms = row["self_ms"] / units
        share = self_ms / wall if wall > 0 else 0.0
        kind = "named" if row["named"] else "container"
        print(f"  {name:<28}{row['cat']:<11}{row['calls'] / units:>11.2f}"
              f"{self_ms:>11.4f}{100 * share:>7.1f}%  {kind}")
    gaps = acct["unattributed_ms"] - sum(r["self_ms"] for r in acct["by_name"].values()
                                         if not r["named"])
    print(f"  {'(gaps between spans)':<28}{'':<11}{'':>11}{gaps / units:>11.4f}"
          f"{100 * gaps / units / wall if wall > 0 else 0:>7.1f}%  unattributed")
    coverage = acct["named_ms"] / acct["wall_ms"] if acct["wall_ms"] > 0 else 0.0
    print(f"coverage: {100 * coverage:.1f}% of unit wall is named self time; "
          f"unattributed {acct['unattributed_ms'] / units:.4f} ms per unit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)
    refuse_knobs()
    build()

    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}.json"  # the latest traced run
    ticks = cpu_ticks()
    raw = run_harness(args, trace_file)
    found = {k: v for k, v in sorted(os.environ.items()) if k.startswith(OMP_PREFIXES)}
    context = dict(raw["context"], omp_env_found=found or "none", git_sha=git_sha(),
                   workload=args.workload,
                   seed=args.seed, seconds=args.seconds, trace=args.trace,
                   steal_pct=steal_pct(ticks, cpu_ticks()))
    print("context: " + json.dumps(context, sort_keys=True))
    checks = list(raw["checks"])
    spec = load_spec()
    try:
        if args.trace:
            metrics, accts, info = per_layer(raw, spec, checks)
            print(f"trace: {raw['trace_file']} (open in https://ui.perfetto.dev)")
            for unit_spans, acct in accts:
                print_self_time_table(unit_spans, acct)
        else:
            metrics, info = end_to_end(raw)
    except (KeyError, ValueError, ZeroDivisionError, OSError) as e:
        # A failed operation can leave too few samples to measure; the run
        # still reports what it attempted and what failed.
        if not raw["failed"]:
            raise
        metrics, info = {}, [f"no metrics after failed operations ({type(e).__name__}: {e})"]
    for line in info:
        print(line)

    described = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in described}
    if metrics and set(metrics) != set(units):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:<32}{value:>18.6g} {units[name]}")
    bad = [c for c in checks if not c["ok"]]
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    # Checks computed here (trace balance, self-time sum) are operations too.
    extra = len(checks) - len(raw["checks"])
    attempted = int(raw["attempted"]) + extra
    failed = int(raw["failed"]) + sum(1 for c in checks[len(raw["checks"]):] if not c["ok"])
    correct = failed == 0 and not bad
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
