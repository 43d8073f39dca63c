#!/usr/bin/env python3
"""Compare two commits on one benchmark workload with interleaved pairs.

Usage: bench_pairs.py BASE HEAD --workload W [--pairs N] [--first-seed S]
                      [--tiny] [--scratch DIR] [--record PATH]

Extracts each revision's tree (git archive) into its own directory under
DIR, then runs N pairs of the command BENCHMARK.json declares,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

pair i at seed S + i, once per side, alternating which side runs first.
Each side builds through its own perfbench/run.py with its own
CARGO_TARGET_DIR; one throwaway --tiny run per side builds it before the
first pair, so no build falls between the two runs of a pair. The
extracted trees and their builds are removed afterwards. T is
BENCHMARK.json's run_seconds, the same for both sides; --tiny forwards
run.py's --tiny, and with it T is the 2 s perfbench/test_bench.py runs
tiny workloads for.

Appends one entry to the "pairs" list of PATH (default BENCH_<W>.json in
the repository root, created if missing):

  {
    "workload", "seconds", "tiny", "metric", "better",
    "base", "head":  {"rev", "sha", "provenance"}
    "seeds":         [int]
    "runs":          [{"seed", "first", "base": {...}, "head": {...}}]
                     each side's end-to-end metric values, attempted, failed
    "summary":       {"base": {"median", "q1", "q3"}, "head": {...},
                      "change", "leads", "trails", "pairs"}
    "failed_share":  {"base", "head"}: failed / attempted over all runs
    "verdict":       "gain" | "loss" | "no change" | "unresolved"
    "bounds":        {metric: {"base_median", "head_median", "change",
                      "bound", "state"}} for every end-to-end metric
    "identical_per_seed": {metric: bool} for kill_rate and overprovision
    "pooled":        the same summary fields over every entry of the
                     record for the same two commits and run length,
                     this one included, plus "entries"; only when the
                     record holds an earlier such entry
  }

The verdict for the claimed metric, throughput_per_s, follows one rule,
stated in verdict(): HEAD gains when it leads in at least nine tenths of
the pairs (ties count for neither side) and its median beats BASE's by
more than BASE's q1-q3 spread; "loss" is the mirror image; "unresolved"
when that spread is wider than the metric's BENCHMARK.json bound and not
every HEAD run beats every BASE run; anything else is "no change". A
HEAD that fails a larger share of its operations than BASE reads "loss"
whatever its metric. Every end-to-end metric, the claimed one included,
is checked against its BENCHMARK.json bound: HEAD's median may be worse
than BASE's by at most that fraction, and the check too reads
"unresolved" when the runs are that noisy. The rule counts every pair
run, so when the record already holds pairs of the same two commits, the
pooled verdict is the one that counts.

Exits 1, writing nothing, when a revision does not resolve, a build fails
or a run prints no result line or reports "correct": false; 0 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROVENANCE = "provenance: "
TINY_SECONDS = 2.0
CLAIMED = "throughput_per_s"
# The gain rule: leads in at least this share of the pairs, and a median
# gap wider than the base's interquartile spread.
WIN_SHARE = 0.9
SAME_PER_SEED = ("kill_rate", "overprovision")


def log(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3), interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def unresolved(base, head, better, bound):
    """Whether BASE's q1-q3 spread is wider than `bound` (a fraction of
    BASE's median) while some HEAD run does not beat every BASE run: the
    runs are then too noisy to tell a change from none."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(base)
    return (q3 - q1 > bound * abs(median)
            and min(sign * h for h in head) <= max(sign * b for b in base))


def verdict(base, head, better, bound):
    """The pair rule for one metric: (verdict, leads, trails).

    base[i] and head[i] are pair i's two runs; better is "higher" or
    "lower"; bound is the metric's BENCHMARK.json bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    leads = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    trails = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    if unresolved(base, head, better, bound):
        return "unresolved", leads, trails
    needed = math.ceil(WIN_SHARE * len(base))
    q1, base_median, q3 = quartiles(base)
    gap = sign * (statistics.median(head) - base_median)
    spread = q3 - q1
    if leads >= needed and gap > spread:
        return "gain", leads, trails
    if trails >= needed and -gap > spread:
        return "loss", leads, trails
    return "no change", leads, trails


def bound_check(base, head, better, bound):
    """How far HEAD's median moved from BASE's, and whether the worsening
    stays within `bound` (a fraction of BASE's median): "within",
    "beyond" or, when the runs are too noisy to tell, "unresolved"."""
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    if base_median == 0:
        change = 0.0 if head_median == 0 else math.copysign(math.inf,
                                                             head_median)
    else:
        change = (head_median - base_median) / abs(base_median)
    worse = -change if better == "higher" else change
    if unresolved(base, head, better, bound):
        state = "unresolved"
    else:
        state = "within" if worse <= bound else "beyond"
    return {"base_median": base_median, "head_median": head_median,
            "change": change, "bound": bound, "state": state}


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def extract(sha, dest):
    """The tree of `sha` at `dest`. A git archive leaves the repository
    itself untouched, so an interrupted run leaves nothing registered in
    it."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def run_once(tree, build_dir, workload, seed, seconds, tiny):
    """One run: (result, provenance) from its output, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True:
        log(f"{tree} seed {seed}: no correct result (exit {proc.returncode})")
        return None
    provenance = None
    for line in lines:
        if line.startswith(PROVENANCE):
            provenance = json.loads(line[len(PROVENANCE):])
    return result, provenance


def side_values(result, end_to_end):
    values = {m["name"]: result["metrics"][m["name"]]["value"]
              for m in end_to_end if m["name"] in result["metrics"]}
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return values


def summarize(runs, end_to_end, metric=CLAIMED):
    """The summary, failed shares, verdict, bounds and per-seed identity
    of `runs`, as a dict of entry fields."""
    spec = {m["name"]: m for m in end_to_end}
    better = spec[metric]["better"]
    base = [r["base"][metric] for r in runs]
    head = [r["head"][metric] for r in runs]
    result, leads, trails = verdict(base, head, better,
                                    spec[metric]["bound"])
    failed = {side: sum(r[side]["failed"] for r in runs)
              / max(1, sum(r[side]["attempted"] for r in runs))
              for side in ("base", "head")}
    if failed["head"] > failed["base"]:
        result = "loss"
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    bounds = {}
    for name, m in spec.items():
        if all(name in r["base"] and name in r["head"] for r in runs):
            bounds[name] = bound_check([r["base"][name] for r in runs],
                                       [r["head"][name] for r in runs],
                                       m["better"], m["bound"])
    return {
        "better": better,
        "summary": {
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "head": {"median": hmed, "q1": hq1, "q3": hq3},
            "change": (hmed - bmed) / abs(bmed) if bmed else None,
            "leads": leads, "trails": trails, "pairs": len(base)},
        "failed_share": failed,
        "verdict": result,
        "bounds": bounds,
        "identical_per_seed": {
            name: all(r["base"].get(name) == r["head"].get(name)
                      for r in runs)
            for name in SAME_PER_SEED}}


def pool(entry, earlier, end_to_end):
    """Set entry["pooled"] from the entries in `earlier` that compare the
    same two commits at the same run length, when there are any."""
    key = ("seconds", "tiny", "metric")
    same = [e for e in earlier
            if e["base"]["sha"] == entry["base"]["sha"]
            and e["head"]["sha"] == entry["head"]["sha"]
            and all(e.get(k) == entry.get(k) for k in key)]
    if same:
        runs = [r for e in same for r in e["runs"]] + entry["runs"]
        entry["pooled"] = {"entries": len(same) + 1,
                           **summarize(runs, end_to_end)}


def append_entry(path, workload, entry, end_to_end):
    """Append `entry` to the "pairs" list of the record at `path` (created
    if missing), pooling it first with the list's earlier entries."""
    record = {"workload": workload}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    pairs = record.setdefault("pairs", [])
    pool(entry, pairs, end_to_end)
    pairs.append(entry)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    os.replace(tmp, path)


def report(label, fields):
    s = fields["summary"]
    change = "n/a" if s["change"] is None else f"{100 * s['change']:+.1f}%"
    print(f"{label} {CLAIMED}: base median {s['base']['median']:g}"
          f" (q1 {s['base']['q1']:g}, q3 {s['base']['q3']:g}), head median "
          f"{s['head']['median']:g} ({change}); head leads {s['leads']} of "
          f"{s['pairs']}, trails {s['trails']}: {fields['verdict']}")
    failed = fields["failed_share"]
    print(f"  failed share: base {failed['base']:g}, head {failed['head']:g}")
    for name, b in fields["bounds"].items():
        print(f"  {name}: {100 * b['change']:+.2f}% ({b['state']}, bound "
              f"{100 * b['bound']:g}%)")
    for name, same in fields["identical_per_seed"].items():
        print(f"  {name} identical per seed: {'yes' if same else 'no'}")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True, choices=known)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--scratch")
    parser.add_argument("--record")
    args = parser.parse_args(argv[1:])
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = TINY_SECONDS if args.tiny else float(bench["run_seconds"])

    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        sha = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        if sha is None:
            log(f"{rev}: not a commit")
            return 1
        sides[side] = {"rev": rev, "sha": sha}

    if args.scratch:
        os.makedirs(args.scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="bench_pairs-", dir=args.scratch)
    try:
        for side, info in sides.items():
            info["tree"] = os.path.join(scratch, side)
            info["build"] = os.path.join(scratch, f"{side}-build")
            if not extract(info["sha"], info["tree"]):
                log(f"cannot extract {info['rev']}")
                return 1
            log(f"building {side} ({info['sha'][:12]})")
            if run_once(info["tree"], info["build"], args.workload,
                        args.first_seed, 0.1, True) is None:
                return 1

        seeds = [args.first_seed + i for i in range(args.pairs)]
        runs = []
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                info = sides[side]
                log(f"pair {i + 1}/{args.pairs} seed {seed}: {side}")
                outcome = run_once(info["tree"], info["build"],
                                   args.workload, seed, seconds,
                                   args.tiny)
                if outcome is None:
                    return 1
                result, provenance = outcome
                info.setdefault("provenance", provenance)
                run[side] = side_values(result, bench["end_to_end"])
            runs.append(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    entry = {"workload": args.workload, "seconds": seconds,
             "tiny": args.tiny, "metric": CLAIMED}
    for side, info in sides.items():
        entry[side] = {"rev": info["rev"], "sha": info["sha"],
                       "provenance": info.get("provenance")}
    entry["seeds"] = seeds
    entry["runs"] = runs
    entry.update(summarize(runs, bench["end_to_end"]))

    path = args.record or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    append_entry(path, args.workload, entry, bench["end_to_end"])
    report(args.workload, entry)
    if "pooled" in entry:
        report(f"all {entry['pooled']['entries']} entries of these commits:"
               f" {args.workload}", entry["pooled"])
    log(f"appended to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
