#!/usr/bin/env python3
"""Record the repository benchmark's end-to-end metrics for a checkout.

Usage: bench_ledger.py WORKLOAD [WORKLOAD ...]

For each workload, runs the command BENCHMARK.json declares
(python3 perfbench/run.py) at seeds 1-5, untraced, for BENCHMARK.json's
run_seconds each:

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

and writes BENCH_<workload>.json in the repository root:

  {
    "workload":   str
    "command":    [str]          the command of one run, seed as "{seed}"
    "runs":       [{"seed": int, "result": {...}, "provenance": {...}}]
    "summary":    {metric: {"unit", "n", "median", "q1", "q3"}}
  }

"result" is the run's JSON result line and "provenance" the JSON after
its "provenance:" line. The summary covers every end_to_end metric of
BENCHMARK.json that every run reports; quartiles interpolate between
runs.
If any run prints no result line or reports "correct": false, the script
writes no record at all and exits 1.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
PROVENANCE = "provenance: "


def log(msg):
    print(f"bench_ledger: {msg}", file=sys.stderr, flush=True)


def run_once(command, seed):
    """One run: (result, provenance) parsed from its output, or None."""
    cmd = [a.replace("{seed}", str(seed)) for a in command]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "correct" not in result:
        log(f"seed {seed}: no result line (exit {proc.returncode})")
        return None
    if result["correct"] is not True:
        log(f"seed {seed}: run reports \"correct\": "
            f"{json.dumps(result['correct'])}")
        return None
    provenance = None
    for line in lines:
        if line.startswith(PROVENANCE):
            provenance = json.loads(line[len(PROVENANCE):])
    return result, provenance


def summarize(runs, end_to_end):
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"].get("metrics", {})]
        if len(values) < len(runs):
            continue
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"unit": metric["unit"], "n": len(values),
                         "median": median, "q1": q1, "q3": q3}
    return summary


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = argv[1:]
    if not workloads or any(w not in known for w in workloads):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        print(f"workloads: {' '.join(known)}", file=sys.stderr)
        return 2

    records = {}
    for workload in workloads:
        command = bench["command"] + [
            "--workload", workload, "--seed", "{seed}",
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        runs = []
        for seed in SEEDS:
            log(f"{workload} seed {seed}")
            outcome = run_once(command, seed)
            if outcome is None:
                log(f"{workload} seed {seed} failed; no record written")
                return 1
            result, provenance = outcome
            runs.append({"seed": seed, "result": result,
                         "provenance": provenance})
        records[workload] = {"workload": workload, "command": command,
                             "runs": runs,
                             "summary": summarize(runs, bench["end_to_end"])}

    for workload, record in records.items():
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        log(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
