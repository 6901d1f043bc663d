#!/usr/bin/env python3
"""A/A mode: run the benchmark on one commit as two sets of runs and print
each metric's median and quartiles per set, with its spread (interquartile
range over median) against the bound in BENCHMARK.json. Later changes size
their claims with it: a difference smaller than the A/A spread is noise.

    python3 wallbench/aa.py --workload train-gat [--runs 10] [--seconds 20]

Every run gets its own seed. The two sets alternate run by run, so drift on
the host lands on both. Exits nonzero if any end-to-end metric but setup_s
spreads beyond its bound, or if the two sets' medians of any end-to-end
metric differ by more than the bound in either direction: in an A/A run both
directions are noise. setup_s is held to its bound on the medians only, as
the benchmark's acceptance rule holds it: its set-ups all run in the first
seconds of a run, so one run's median follows the host's speed at that
moment, and its spread reached 25.6% over ten runs (NOTES.md).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from run import ROOT, load_spec  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"aa: run with seed {seed} failed (exit {proc.returncode})")
    return result["metrics"]


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def compare(sets, described):
    """Per metric and set: quartiles and spread; per bounded metric, the
    drift of set B's median against set A's, held to the bound both ways.
    Every bounded metric but setup_s is also held to its bound on spread.
    `sets` is two lists of metric dicts as run.py prints them. Returns
    (rows, ok)."""
    rows = []
    ok = True
    for m in described:
        name, bound = m["name"], m.get("bound")
        meds = []
        for k, runs in enumerate(sets):
            q1, med, q3 = stats.quartiles([r[name]["value"] for r in runs])
            spread = (q3 - q1) / med if med else 0.0
            meds.append(med)
            verdict = ""
            if bound is not None and name != "setup_s":
                ok &= spread <= bound
                verdict = "ok" if spread <= bound else "SPREAD TOO WIDE"
                if spread > bound / 3:
                    verdict += " (above a third of the bound)"
            rows.append({"name": name, "set": "AB"[k], "q1": q1, "median": med, "q3": q3,
                         "spread": spread, "bound": bound, "verdict": verdict})
        if bound is not None:
            drift = worse_by(meds[0], meds[1], m["better"])
            ok &= abs(drift) <= bound
            rows.append({"name": name, "set": "B-A", "drift": drift, "bound": bound,
                         "verdict": "ok" if abs(drift) <= bound else "MEDIANS DISAGREE"})
    return rows, ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("aa: need at least two runs per set for quartiles")

    sets = ([], [])
    for i in range(args.runs):
        for k in (0, 1):
            seed = 1 + 2 * i + k
            sets[k].append(run_once(args.workload, seed, args.seconds, args.trace))
            print(f"run {2 * i + k + 1}/{2 * args.runs} done (set {'AB'[k]}, seed {seed})",
                  file=sys.stderr)

    described = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    rows, ok = compare(sets, described)
    print(f"A/A on {args.workload}: 2 sets x {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<30}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>8}  verdict")
    for r in rows:
        bound = "" if r["bound"] is None else f"{100 * r['bound']:.0f}%"
        if r["set"] == "B-A":
            print(f"{'':<30}{'B-A':>4}{'':>42}{100 * r['drift']:>8.2f}% worse  {r['verdict']}")
        else:
            print(f"{r['name']:<30}{r['set']:>4}{r['q1']:>14.6g}{r['median']:>14.6g}"
                  f"{r['q3']:>14.6g}{100 * r['spread']:>8.2f}%{bound:>8}  {r['verdict']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
