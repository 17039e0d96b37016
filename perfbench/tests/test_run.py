"""Self-tests of perfbench/run.py's reductions.

    python3 -m unittest discover -s perfbench/tests
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def record(seed, digest, **extra):
    rec = {"seed": seed, "calib_s": run.CALIBRATION_REF_S, "wall_s": 1.0, "cpu_s": 1.0,
           "setup_s": 0.1, "relayed": 10, "false_positives": 0, "digest": digest}
    rec.update(extra)
    return rec


class TailPercentile(unittest.TestCase):
    def test_needs_twenty_samples_for_the_median(self):
        self.assertIsNone(run.tail_percentile(range(19)))
        self.assertEqual(run.tail_percentile(range(20)), (50, 9))

    def test_picks_the_highest_percentile_with_ten_beyond(self):
        # n=100: p90 is rank 90 with 10 samples beyond; p95 has only 5.
        self.assertEqual(run.tail_percentile(range(100)), (90, 89))
        self.assertEqual(run.tail_percentile(range(199)), (90, 179))
        self.assertEqual(run.tail_percentile(range(200)), (95, 189))
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989))
        self.assertEqual(run.tail_percentile(range(10000)), (99.9, 9989))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(run.tail_percentile(reversed(range(100))), (90, 89))


class CheckExperiments(unittest.TestCase):
    REFS = ["aa", "bb", "cc"]

    def test_matching_digests_pass(self):
        attempted, failed, reasons, unreferenced = run.check_experiments(
            [record(0, "aa"), record(2, "cc"), record(0, "aa")], self.REFS, traced=False)
        self.assertEqual((attempted, failed, reasons, unreferenced), (3, 0, [], 0))

    def test_digest_mismatch_is_a_failure(self):
        attempted, failed, reasons, _ = run.check_experiments(
            [record(0, "aa"), record(1, "xx")], self.REFS, traced=False)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("seed 1", reasons[0])
        self.assertIn("digest xx != reference bb", reasons[0])

    def test_probed_run_must_match_the_plain_run(self):
        rec = record(1, "bb", traced={"digest": "bx"})
        _, failed, reasons, _ = run.check_experiments([rec], self.REFS, traced=True)
        self.assertEqual(failed, 1)
        self.assertIn("probed run digest bx", reasons[0])

    def test_exception_and_false_accusation_are_failures(self):
        recs = [{"seed": 0, "error": "boom"}, record(1, "bb", false_positives=2)]
        _, failed, reasons, _ = run.check_experiments(recs, self.REFS, traced=False)
        self.assertEqual(failed, 2)
        self.assertIn("threw: boom", reasons[0])
        self.assertIn("2 false accusations", reasons[1])

    def test_seed_beyond_the_table_is_counted_not_failed(self):
        _, failed, _, unreferenced = run.check_experiments(
            [record(7, "zz")], self.REFS, traced=False)
        self.assertEqual((failed, unreferenced), (0, 1))


class HostNormalisation(unittest.TestCase):
    def test_times_shrink_and_rates_grow_by_the_slowdown(self):
        recs = [record(0, "aa", calib_s=2 * run.CALIBRATION_REF_S, peak_rss_kb=2048)]
        slowdown = run.host_slowdown(recs)
        self.assertAlmostEqual(slowdown, 2.0)
        m = run.end_to_end(recs, slowdown)
        self.assertAlmostEqual(m["experiment_s_p50"], 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.05)
        self.assertAlmostEqual(m["relays_per_s"], 20.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)


class Accounting(unittest.TestCase):
    def test_residual_is_layer_overlap_over_the_stage(self):
        layer = {"handshake.busy_s": 0.3, "audit.busy_s": 0.5, "pom.busy_s": 0.1,
                 "sim.unattributed_s": 0.2, "sim.stage_s": 1.0}
        self.assertAlmostEqual(run.accounting_residual([layer, layer]), 0.1)


if __name__ == "__main__":
    unittest.main()
