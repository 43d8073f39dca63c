#!/usr/bin/env python3
"""Tests for the pair rule of scripts/bench_pairs.py and the record
handling it shares with scripts/bench_ledger.py.

    python3 scripts/test_bench_pairs.py

Runs no benchmark: the verdict, the bound check and the record updates
are pure functions of their inputs.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_ledger  # noqa: E402
import bench_pairs  # noqa: E402

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
BOUND = 0.25  # throughput_per_s's bound; BASE's q1-q3 spread is 1.75%


class Verdict(unittest.TestCase):
    def test_identical_runs_are_no_change(self):
        self.assertEqual(
            bench_pairs.verdict(BASE, list(BASE), "higher", BOUND),
            ("no change", 0, 0))

    def test_clear_gain_in_every_pair(self):
        head = [v * 1.2 for v in BASE]
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND),
                         ("gain", 10, 0))

    def test_nine_of_ten_leads_are_enough(self):
        head = [v * 1.2 for v in BASE]
        head[4] = BASE[4] - 1.0
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND),
                         ("gain", 9, 1))

    def test_eight_of_ten_leads_are_not(self):
        head = [v * 1.2 for v in BASE]
        head[2] = BASE[2] - 1.0
        head[7] = BASE[7] - 1.0
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND)[0],
                         "no change")

    def test_ties_count_for_neither_side(self):
        head = [v * 1.2 for v in BASE]
        head[0] = BASE[0]
        head[1] = BASE[1]
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND),
                         ("no change", 8, 0))

    def test_lead_inside_the_base_spread_is_no_change(self):
        # Every pair leads by 0.5, inside the base's q1-q3 spread of 1.75.
        head = [v + 0.5 for v in BASE]
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND),
                         ("no change", 10, 0))

    def test_loss_mirrors_gain(self):
        head = [v * 0.8 for v in BASE]
        self.assertEqual(bench_pairs.verdict(BASE, head, "higher", BOUND),
                         ("loss", 0, 10))

    def test_lower_is_better_flips_the_direction(self):
        head = [v * 0.8 for v in BASE]
        self.assertEqual(bench_pairs.verdict(BASE, head, "lower", BOUND),
                         ("gain", 10, 0))

    def test_one_pair_needs_its_one_lead(self):
        self.assertEqual(bench_pairs.verdict([1.0], [2.0], "higher", BOUND),
                         ("gain", 1, 0))
        self.assertEqual(bench_pairs.verdict([1.0], [1.0], "higher", BOUND),
                         ("no change", 0, 0))


    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        # sim-mr-backfill, seeds 21-25, with the machine contended: the
        # base's q1-q3 spread is 26% of its median, past the 25% bound.
        base = [1751982.0, 1266954.0, 1351169.0, 1806324.0, 1824286.0]
        head = [1209090.0, 1379754.0, 1644708.0, 1671051.0, 1324139.0]
        self.assertEqual(bench_pairs.verdict(base, head, "higher", BOUND),
                         ("unresolved", 2, 3))

    def test_wide_spread_reads_only_when_every_head_run_is_better(self):
        wide = [60.0, 80.0, 100.0, 120.0, 140.0] * 2  # spread 40% of 100
        above = [v + 100.0 for v in wide]
        below = [v * 0.4 for v in wide]
        overlapping = [v + 30.0 for v in wide]
        self.assertEqual(bench_pairs.verdict(wide, above, "higher", BOUND),
                         ("gain", 10, 0))
        self.assertEqual(bench_pairs.verdict(wide, below, "higher", BOUND),
                         ("unresolved", 0, 10))
        self.assertEqual(
            bench_pairs.verdict(wide, overlapping, "higher", BOUND),
            ("unresolved", 10, 0))
        self.assertEqual(bench_pairs.verdict(wide, below, "lower", BOUND),
                         ("gain", 10, 0))


class Bounds(unittest.TestCase):
    def state(self, base, head, better, bound):
        return bench_pairs.bound_check(base, head, better, bound)["state"]

    def test_worsening_within_and_beyond_the_bound(self):
        self.assertEqual(self.state([100.0], [80.0], "higher", 0.25),
                         "within")
        self.assertEqual(self.state([100.0], [70.0], "higher", 0.25),
                         "beyond")
        self.assertEqual(self.state([100.0], [109.0], "lower", 0.1),
                         "within")
        self.assertEqual(self.state([100.0], [111.0], "lower", 0.1),
                         "beyond")

    def test_improvement_is_always_within(self):
        check = bench_pairs.bound_check([10.0, 12.0], [32.0, 34.0],
                                        "higher", 0.0)
        self.assertEqual(check["state"], "within")
        self.assertAlmostEqual(check["change"], 2.0)

    def test_zero_base(self):
        self.assertEqual(self.state([0.0], [0.0], "lower", 0.1), "within")
        self.assertEqual(self.state([0.0], [1.0], "lower", 0.1), "beyond")

    def test_noisy_base_is_unresolved_not_within(self):
        # BASE's q1-q3 spread is 20% of its median, past a 10% bound.
        base = [80.0, 90.0, 100.0, 110.0, 120.0]
        self.assertEqual(self.state(base, list(base), "lower", 0.1),
                         "unresolved")
        self.assertEqual(self.state(base, [v * 0.5 for v in base], "lower",
                                    0.1), "within")


END_TO_END = [
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
    {"name": "kill_rate", "better": "lower", "bound": 0.15},
]


def make_runs(base, head, head_failed=0):
    """Pairs of side values: head's peak RSS 19% above base's, kill_rate
    equal per seed, and `head_failed` failures in head's first run."""
    runs = []
    for i, (b, h) in enumerate(zip(base, head)):
        runs.append({
            "seed": i + 1, "first": "base" if i % 2 == 0 else "head",
            "base": {"throughput_per_s": b, "peak_rss_mib": 80.0,
                     "kill_rate": 0.02 + 0.0001 * i, "attempted": 1000,
                     "failed": 0},
            "head": {"throughput_per_s": h, "peak_rss_mib": 95.0,
                     "kill_rate": 0.02 + 0.0001 * i, "attempted": 1000,
                     "failed": head_failed if i == 0 else 0}})
    return runs


class Summary(unittest.TestCase):
    def test_entry_fields(self):
        fields = bench_pairs.summarize(
            make_runs(BASE, [v * 1.2 for v in BASE]), END_TO_END)
        self.assertEqual(fields["verdict"], "gain")
        self.assertEqual(fields["better"], "higher")
        self.assertEqual(fields["summary"]["leads"], 10)
        self.assertAlmostEqual(fields["summary"]["change"], 0.2)
        self.assertEqual(fields["failed_share"], {"base": 0.0, "head": 0.0})
        self.assertEqual(fields["bounds"]["peak_rss_mib"]["state"], "beyond")
        self.assertEqual(fields["bounds"]["kill_rate"]["state"], "within")
        self.assertTrue(fields["identical_per_seed"]["kill_rate"])

    def test_the_claimed_metric_is_bound_checked_too(self):
        fields = bench_pairs.summarize(
            make_runs(BASE, [v * 0.7 for v in BASE]), END_TO_END)
        self.assertEqual(sorted(fields["bounds"]),
                         ["kill_rate", "peak_rss_mib", "throughput_per_s"])
        self.assertEqual(fields["bounds"]["throughput_per_s"]["state"],
                         "beyond")
        self.assertAlmostEqual(fields["bounds"]["throughput_per_s"]["change"],
                               -0.3)

    def test_more_failures_are_a_loss_whatever_the_metric(self):
        fields = bench_pairs.summarize(
            make_runs(BASE, [v * 1.2 for v in BASE], head_failed=1),
            END_TO_END)
        self.assertEqual(fields["verdict"], "loss")
        self.assertEqual(fields["summary"]["leads"], 10)
        self.assertEqual(fields["failed_share"],
                         {"base": 0.0, "head": 1 / 10000})


def entry_for(base_sha, head_sha, runs, seconds=30.0):
    entry = {"workload": "w", "seconds": seconds, "tiny": False,
             "metric": "throughput_per_s", "base": {"sha": base_sha},
             "head": {"sha": head_sha}, "runs": runs}
    entry.update(bench_pairs.summarize(runs, END_TO_END))
    return entry


class Records(unittest.TestCase):
    def test_pairs_append_and_survive_a_ledger_rewrite(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_w.json")
            self.assertEqual(bench_ledger.kept_pairs(path), [])
            gain = entry_for("a", "b", make_runs(BASE, [v * 1.2 for v in
                                                        BASE]))
            same = entry_for("a", "c", make_runs(BASE, list(BASE)))
            bench_pairs.append_entry(path, "w", gain, END_TO_END)
            bench_pairs.append_entry(path, "w", same, END_TO_END)
            with open(path) as f:
                record = json.load(f)
            self.assertEqual(record["workload"], "w")
            self.assertEqual([e["verdict"] for e in record["pairs"]],
                             ["gain", "no change"])
            self.assertNotIn("pooled", record["pairs"][1])
            self.assertEqual(bench_ledger.kept_pairs(path), record["pairs"])

    def test_a_later_set_of_the_same_commits_is_pooled_with_the_first(self):
        # A second set that gains on its own does not outvote a first set
        # of the same two commits that did not: the rule counts every pair.
        first = entry_for("a", "b", make_runs(BASE, [v - 0.5 for v in BASE]))
        second = entry_for("a", "b", make_runs(BASE, [v * 1.2 for v in
                                                      BASE]))
        other_length = entry_for("a", "b", make_runs(BASE, list(BASE)),
                                 seconds=2.0)
        self.assertEqual(first["verdict"], "no change")
        self.assertEqual(second["verdict"], "gain")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_w.json")
            for entry in (first, other_length, second):
                bench_pairs.append_entry(path, "w", entry, END_TO_END)
        self.assertNotIn("pooled", first)
        self.assertNotIn("pooled", other_length)
        pooled = second["pooled"]
        self.assertEqual(pooled["entries"], 2)
        self.assertEqual(pooled["summary"]["pairs"], 20)
        self.assertEqual(pooled["summary"]["leads"], 10)
        self.assertEqual(pooled["verdict"], "no change")


if __name__ == "__main__":
    unittest.main()
