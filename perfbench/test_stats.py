"""Tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def x(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


def by_name(spans):
    return {s.name: s for s in spans}


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = stats.spans_from_events([
            x("parent", 0, 10), x("a", 1, 3), x("b", 3, 3)])
        s = by_name(spans)
        # a covers [1,4), b covers [3,6): the union is 5, not 6.
        self.assertEqual(stats.self_time(s["parent"]), 5)
        self.assertEqual(stats.self_time(s["a"]), 3)

    def test_only_direct_children_are_subtracted(self):
        spans = stats.spans_from_events([
            x("outer", 0, 10), x("mid", 2, 6), x("inner", 3, 1)])
        s = by_name(spans)
        self.assertEqual(stats.self_time(s["outer"]), 4)
        self.assertEqual(stats.self_time(s["mid"]), 5)
        self.assertEqual(stats.self_time(s["inner"]), 1)
        self.assertEqual([a.name for a in s["inner"].ancestors()],
                         ["mid", "outer"])

    def test_other_threads_are_not_children(self):
        spans = stats.spans_from_events([
            x("main", 0, 10, tid=1), x("worker", 2, 5, tid=2)])
        s = by_name(spans)
        self.assertEqual(stats.self_time(s["main"]), 10)
        self.assertIsNone(s["worker"].parent)

    def test_unclosed_spans_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.spans_from_events([
                x("closed", 1, 1), {"name": "open", "ph": "X", "ts": 0}])
        with self.assertRaises(ValueError):
            stats.spans_from_events([x("negative", 5, -1)])

    def test_other_phases_are_ignored(self):
        spans = stats.spans_from_events([
            {"name": "thread_name", "ph": "M", "tid": 1}, x("a", 0, 2)])
        self.assertEqual([s.name for s in spans], ["a"])

    def test_coverage_of_a_thread(self):
        spans = stats.spans_from_events([
            x("a", 0, 4), x("b", 2, 4), x("c", 10, 1), x("d", 0, 50, 2)])
        self.assertEqual(stats.covered_on(spans, 1), 7)

    def test_client_gaps_average_request_threads_per_phase(self):
        spans = stats.spans_from_events([
            x("bench.phase.cold", 0, 10, tid=1),
            x("bench.request.sweep", 0, 8, tid=2),
            x("bench.request.sweep", 0, 4, tid=3),
            x("bench.request.sweep", 5, 5, tid=3)])
        # Thread 2 idles 2, thread 3 idles 1: the mean is 1.5 us.
        self.assertAlmostEqual(stats.client_gaps(spans), 1.5e-6)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        v, pct, n, k = stats.tail(range(1, 101))
        self.assertEqual((v, n, k), (90, 100, 10))
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_rises_with_samples(self):
        v, pct, n, k = stats.tail(range(1000))
        self.assertEqual((v, k), (989, 10))
        self.assertAlmostEqual(pct, 99.0)

    def test_ties_move_the_tail_down(self):
        # Twelve samples tie at the top: the tail is the value below
        # them, with all twelve beyond it.
        samples = list(range(50)) + [99] * 12
        v, pct, n, k = stats.tail(samples)
        self.assertEqual((v, k, n), (49, 12, 62))

    def test_pooled_and_per_phase_tails(self):
        a, b, c = list(range(20)), list(range(100, 120)), list(range(40))
        pooled, note = stats.pooled_tail(a + b + c)
        self.assertEqual(pooled, 109)
        self.assertIn("80 samples", note)
        per_phase, note = stats.per_phase_tail([a, b, c])
        # The phases' tails are 9, 109 and 29; the median phase wins.
        self.assertEqual(per_phase, 29)
        self.assertIn("median over 3 warm phases", note)
        with self.assertRaises(ValueError):
            stats.per_phase_tail([a, list(range(5))])
        with self.assertRaises(ValueError):
            stats.pooled_tail(list(range(10)))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(range(10)))
        self.assertIsNone(stats.tail([1] * 95 + [2] * 5))
        self.assertIsNotNone(stats.tail(range(11)))


class Accounting(unittest.TestCase):
    def test_failed_frac(self):
        attempted, failed, frac = stats.accounting({
            "requests": 10, "requests_failed": 1,
            "checks": 90, "checks_failed": 2})
        self.assertEqual((attempted, failed), (100, 3))
        self.assertAlmostEqual(frac, 0.03)

    def test_clean_run(self):
        self.assertEqual(stats.accounting({
            "requests": 0, "requests_failed": 0,
            "checks": 33, "checks_failed": 0}), (33, 0, 0.0))

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.accounting({"requests": 0, "requests_failed": 0,
                              "checks": 0, "checks_failed": 0})

    def test_more_failures_than_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.accounting({"requests": 1, "requests_failed": 2,
                              "checks": 0, "checks_failed": 0})


class Metrics(unittest.TestCase):
    def test_batch_end_to_end_from_samples(self):
        # Two copies side by side; refs count both copies' runs.
        rep = {"walls_s": [2.0, 2.0], "refs": 8e6, "rows": 10,
               "latency_s": [2.0] * 20}
        raw = {"workload": "fig2_sweep", "setup_s": [0.3, 0.1, 0.2],
               "rss_mb": 12.0,
               "cold": [rep, dict(rep, walls_s=[4.0, 4.0])],
               "warm": [dict(rep, walls_s=[float(i), float(i) + 0.5])
                        for i in range(1, 11)]}
        m, notes = stats.end_to_end(raw)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["grid_wall_s"], 3.0)
        # 8e6 refs over 4 grid-seconds, and over 8: the median is 1.5.
        self.assertAlmostEqual(m["sim_mrefs_per_s"], 1.5)
        self.assertAlmostEqual(m["cold_rows_per_s"], 3.75)
        # 20 warm grids, 1.0 to 10.5: ten lie beyond 5.5.
        self.assertEqual(m["warm_tail_ms"], 5500.0)
        self.assertIn("20 samples", notes["warm_tail_ms"])
        self.assertEqual([n for n, _ in stats.END_TO_END], list(m))

    def test_served_end_to_end_from_samples(self):
        phase = {"wall_s": 2.0, "refs": 6e6, "rows": 40,
                 "latency_s": [0.001 * i for i in range(1, 22)]}
        raw = {"workload": "served_sweeps", "setup_s": [0.1],
               "rss_mb": 30.0, "cold": [phase, dict(phase, wall_s=4.0)],
               "warm": [phase, phase, phase]}
        m, notes = stats.end_to_end(raw)
        self.assertEqual(m["grid_wall_s"], 3.0)
        self.assertAlmostEqual(m["sim_mrefs_per_s"], 2.25)
        self.assertAlmostEqual(m["warm_rows_per_s"], 20.0)
        self.assertAlmostEqual(m["warm_p50_ms"], 11.0)
        self.assertAlmostEqual(m["warm_tail_ms"], 11.0)
        self.assertIn("median over 3 warm phases", notes["warm_tail_ms"])

    def test_counter_layers_ratios(self):
        m = stats.counter_layers({
            "engine.utlb.hits": 90, "engine.utlb.misses": 10,
            "engine.probe.hits": 1, "engine.probe.skips": 3})
        self.assertAlmostEqual(m["os.utlb_miss_ratio"], 0.1)
        self.assertAlmostEqual(m["machine.probe_skip_ratio"], 0.75)
        self.assertEqual(m["harness.baseline_hit_ratio"], 0.0)


if __name__ == "__main__":
    unittest.main()
