"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest discover -s wallbench -p 'test_*.py'
"""

import json
import os
import tempfile
import unittest

import aa
import stats


def ev(ph, name, ts_ms, cat="phase", tid=0, nbytes=0):
    e = {"ph": ph, "name": name, "ts": ts_ms * 1000.0, "cat": cat, "tid": tid, "pid": 0}
    if ph == "B" and nbytes:
        e["args"] = {"bytes": nbytes}
    return e


def span(name, begin, end, children=(), cat="phase", tid=0, nbytes=0):
    """B/E events of a span tree, in the order one thread records them."""
    out = [ev("B", name, begin, cat, tid, nbytes)]
    for c in children:
        out += c
    return out + [ev("E", name, end, cat, tid)]


class TailRule(unittest.TestCase):
    def test_highest_rung_with_ten_samples_beyond(self):
        q, value, beyond, n = stats.tail(list(range(1, 101)))
        self.assertEqual((q, value, beyond, n), (90.0, 90, 10, 100))

    def test_one_sample_short_drops_a_rung(self):
        # p90 of 99 samples has only 9 beyond it; p75 has 24.
        q, value, beyond, n = stats.tail(list(range(1, 100)))
        self.assertEqual((q, value, beyond, n), (75.0, 75, 24, 99))

    def test_large_sample_reaches_p99(self):
        q, value, beyond, _ = stats.tail([float(i) for i in range(1000, 0, -1)])
        self.assertEqual((q, value, beyond), (99.0, 990.0, 10))

    def test_too_few_samples_falls_back_to_median(self):
        q, value, beyond, n = stats.tail(list(range(1, 12)))
        self.assertEqual((q, value, n), (50.0, 6, 11))
        self.assertLess(beyond, stats.MIN_BEYOND)


class SelfTime(unittest.TestCase):
    def step(self, t0, tid=0):
        # bench.step [t0, t0+100]
        #   bench.forward [0, 30]  > spmm kernel [5, 15]
        #   bench.backward [30, 90] > sddmm kernel [40, 50] > inner kernel [42, 44]
        #   bench.loss [90, 95]
        def s(name, b, e, children=(), cat="phase", nbytes=0):
            return span(name, t0 + b, t0 + e, children, cat, tid, nbytes)
        return s("bench.step", 0, 100, [
            s("bench.forward", 0, 30, [s("spmm", 5, 15, cat="kernel", nbytes=1000)]),
            s("bench.backward", 30, 90, [
                s("sddmm", 40, 50, [s("inner", 42, 44, cat="kernel", nbytes=7)],
                  cat="kernel", nbytes=500)]),
            s("bench.loss", 90, 95),
        ])

    def test_self_time_is_duration_minus_child_coverage(self):
        spans = stats.spans_from_events(self.step(0))
        got = {s.name: round(s.self, 9) for s in spans}
        self.assertEqual(got, {"bench.step": 5, "bench.forward": 20, "spmm": 10,
                               "bench.backward": 50, "sddmm": 8, "inner": 2,
                               "bench.loss": 5})

    def test_named_plus_unattributed_is_unit_wall(self):
        events = self.step(0) + self.step(200)
        acct = stats.attribute(stats.spans_from_events(events), "bench.step", "bench.step")
        self.assertEqual(acct["units"], 2)
        self.assertAlmostEqual(acct["wall_ms"], 200)
        # Named: spmm 10 + sddmm 8 + inner 2 + loss 5 per step.
        self.assertAlmostEqual(acct["named_ms"], 50)
        self.assertAlmostEqual(acct["unattributed_ms"], 150)
        self.assertAlmostEqual(acct["by_name"]["bench.backward"]["self_ms"], 100)
        # Outermost kernel calls only: the nested one is neither counted nor billed.
        self.assertEqual(acct["kernel_calls"], 4)
        self.assertEqual(acct["kernel_bytes"], 3000)

    def test_spans_outside_units_are_ignored(self):
        events = self.step(0) + span("bench.infer", 300, 310, [span("spmm", 301, 309, cat="kernel")])
        acct = stats.attribute(stats.spans_from_events(events), "bench.step", "bench.step")
        self.assertEqual(acct["units"], 1)
        self.assertEqual(acct["by_name"]["spmm"]["calls"], 1)

    def test_multi_span_unit_counts_gaps_as_unattributed(self):
        # One served batch: sample [0,2], gap, gather [3,4], forward [4,9] with
        # a kernel [5,7], reply [9,10]; then an idle batch wait outside the unit.
        events = (span("serve.sample", 0, 2) + span("serve.gather", 3, 4)
                  + span("serve.forward", 4, 9, [span("k", 5, 7, cat="kernel")])
                  + span("serve.reply", 9, 10) + span("serve.batch", 10, 50))
        acct = stats.attribute(stats.spans_from_events(events), "serve.sample", "serve.reply")
        self.assertEqual(acct["units"], 1)
        self.assertAlmostEqual(acct["wall_ms"], 10)
        self.assertAlmostEqual(acct["named_ms"], 2 + 1 + 2 + 1)
        self.assertAlmostEqual(acct["unattributed_ms"], 1 + 3)  # gap + forward self
        self.assertNotIn("serve.batch", acct["by_name"])

    def test_units_on_separate_tracks(self):
        events = self.step(0, tid=0) + self.step(0, tid=1)
        acct = stats.attribute(stats.spans_from_events(events), "bench.step", "bench.step")
        self.assertEqual(acct["units"], 2)

    def test_unbalanced_trace_is_rejected(self):
        with self.assertRaises(stats.TraceError):
            stats.spans_from_events([ev("B", "a", 0)])
        with self.assertRaises(stats.TraceError):
            stats.spans_from_events([ev("B", "a", 0), ev("E", "b", 1)])
        with self.assertRaises(stats.TraceError):
            stats.spans_from_events([ev("E", "a", 1)])


class ReadTrace(unittest.TestCase):
    @staticmethod
    def read(text):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            f.write(text)
        try:
            return list(stats.read_trace(f.name))
        finally:
            os.unlink(f.name)

    def test_streams_tracer_layout(self):
        events = [{"ph": "M", "name": "process_name"}] + span("a", 0, 1)
        lines = "[\n" + ",\n".join(json.dumps(e) for e in events) + "\n]\n"
        self.assertEqual(self.read(lines), events)

    def test_rejects_any_other_layout(self):
        with self.assertRaises(stats.TraceError):
            self.read(json.dumps(span("a", 0, 1)))


class CycleThroughput(unittest.TestCase):
    def test_rate_per_slice(self):
        self.assertEqual(stats.slice_rates([10, 30, 5], [1.0, 2.0, 0.0]), [10.0, 15.0])

    def test_split_cuts_samples_by_slice_size(self):
        self.assertEqual(stats.split([1, 2, 3, 4, 5, 6], [2, 1, 3]), [[1, 2], [3], [4, 5, 6]])

    def test_split_must_cover_every_sample(self):
        with self.assertRaises(ValueError):
            stats.split([1, 2, 3], [1, 1])

    def test_slow_cycle_leaves_the_median_rate(self):
        # Ten steps of 10 ms per cycle; one cycle runs at a third of the speed.
        cycles = [[10.0] * 10] * 4 + [[30.0] * 10]
        rates = stats.slice_rates([len(c) for c in cycles], [sum(c) / 1000 for c in cycles])
        self.assertEqual(sorted(rates)[len(rates) // 2], 100.0)


class DueTimeLatency(unittest.TestCase):
    def test_on_time_requests_pay_only_service(self):
        self.assertEqual(stats.due_time_latencies([0, 1], [0, 1], [0.5, 0.25]), [0.5, 0.25])

    def test_generator_stall_is_charged_to_delayed_requests(self):
        # Due at 0, 1, 2 ms; the generator stalled and sent the last two at
        # 3.0 and 3.1 ms. Each request's latency counts from its due time.
        got = stats.due_time_latencies([0.0, 1.0, 2.0], [0.0, 3.0, 3.1], [0.5, 0.5, 0.5])
        for g, want in zip(got, [0.5, 2.5, 1.6]):
            self.assertAlmostEqual(g, want)

    def test_failed_request_misses_every_limit(self):
        got = stats.due_time_latencies([0.0], [0.1], [float("inf")])
        self.assertEqual(got, [float("inf")])


class AAMode(unittest.TestCase):
    described = [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                 {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
                 {"name": "calls", "unit": "count", "better": "lower"}]

    @staticmethod
    def runs(values):
        return [{"p50_ms": {"value": v}, "rate": {"value": 100.0 / v},
                 "calls": {"value": 3.0}} for v in values]

    def test_steady_sets_pass_with_median_and_quartiles(self):
        a = self.runs([10.0, 10.1, 9.9, 10.0, 10.2])
        b = self.runs([10.1, 10.0, 9.95, 10.05, 10.0])
        rows, ok = aa.compare((a, b), self.described)
        self.assertTrue(ok)
        first = rows[0]
        self.assertEqual((first["name"], first["set"]), ("p50_ms", "A"))
        q1, med, q3 = stats.quartiles([10.0, 10.1, 9.9, 10.0, 10.2])
        self.assertEqual((first["q1"], first["median"], first["q3"]), (q1, med, q3))
        self.assertIn({"name": "calls", "set": "A", "q1": 3.0, "median": 3.0, "q3": 3.0,
                       "spread": 0.0, "bound": None, "verdict": ""}, rows)

    def test_wide_spread_fails(self):
        a = self.runs([10.0, 14.0, 8.0, 12.0, 9.0])
        _, ok = aa.compare((a, a), self.described)
        self.assertFalse(ok)

    def test_drift_beyond_bound_fails_in_either_direction(self):
        a = self.runs([10.0] * 4)
        for other in ([11.5] * 4, [8.5] * 4):
            _, ok = aa.compare((a, self.runs(other)), self.described)
            self.assertFalse(ok)
        self.assertAlmostEqual(aa.worse_by(10.0, 11.5, "lower"), 0.15)
        self.assertAlmostEqual(aa.worse_by(100.0, 80.0, "higher"), 0.2)
        self.assertLess(aa.worse_by(10.0, 8.0, "lower"), 0)

    def test_setup_time_is_held_to_its_bound_on_medians_only(self):
        described = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]
        wide = [{"setup_s": {"value": v}} for v in (1.0, 1.4, 0.8, 1.2, 0.9)]
        _, ok = aa.compare((wide, wide), described)
        self.assertTrue(ok)
        faster = [{"setup_s": {"value": 0.8 * v}} for v in (1.0, 1.4, 0.8, 1.2, 0.9)]
        _, ok = aa.compare((wide, faster), described)
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()
