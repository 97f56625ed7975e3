"""Self-tests of the benchmark's reduction helpers.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import subprocess
import unittest

import benchlib

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def raw_report(attempted=256, failed=0, checks=(), op_us=None):
    """A synthetic driver report shaped like e2ebench_driver's output."""
    return {
        "workload": "synthetic",
        "attempted": attempted,
        "failed": failed,
        "checks": list(checks),
        "series": {
            "setup_s": [0.3, 0.1, 0.2],
            "op_us": op_us if op_us is not None else [float(i) for i in range(1, 2001)],
        },
        "values": {"peak_rss_mb": 12.5, "ops_per_pass": len(op_us) if op_us else 2000,
                   "items_per_pass": 4000.0},
    }


class PercentileTest(unittest.TestCase):
    def test_p99_with_exactly_ten_samples_beyond(self):
        value, n = benchlib.percentile([float(i) for i in range(1, 1001)], 0.99)
        self.assertEqual(value, 990.0)
        self.assertEqual(n, 1000)

    def test_p99_refused_with_fewer_than_ten_beyond(self):
        with self.assertRaises(benchlib.MetricError):
            benchlib.percentile([float(i) for i in range(1, 1000)], 0.99)

    def test_median_rank_and_order_independence(self):
        value, n = benchlib.percentile([5.0, 1.0, 4.0, 2.0, 3.0] * 4, 0.5)
        self.assertEqual(value, 3.0)
        self.assertEqual(n, 20)

    def test_percentile_outside_unit_interval(self):
        for q in (0.0, 1.0, 1.5):
            with self.assertRaises(benchlib.MetricError):
                benchlib.percentile([1.0] * 100, q)

    def test_end_to_end_states_sample_counts(self):
        metrics, counts = benchlib.end_to_end_metrics(raw_report())
        self.assertEqual(counts, {"ops": 2000, "timed_passes": 1, "samples": 2000, "setups": 3})
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["op_p99_us"], 1980.0)
        # 4000 items over sum(1..2000) us.
        self.assertAlmostEqual(metrics["items_per_s"], 4000.0 / (2000 * 2001 / 2 * 1e-6))

    def test_p50_and_p99_from_best_of_passes(self):
        # Two passes of 1000 ops; the second runs every op 3x slower.
        fast = [float(i) for i in range(1, 1001)]
        raw = raw_report(op_us=fast + [3 * x for x in fast])
        raw["values"]["ops_per_pass"] = 1000
        metrics, counts = benchlib.end_to_end_metrics(raw)
        self.assertEqual(metrics["op_p50_us"], 500.0)
        self.assertAlmostEqual(metrics["op_p99_us"], 990.0)
        self.assertEqual((counts["ops"], counts["timed_passes"], counts["samples"]),
                         (1000, 2, 1000))

    def test_stretch_slow_in_every_pass_does_not_set_the_p99(self):
        # 1000 ops of 100 us, every 50th 110 us: p50 100, p99 110. Five
        # passes run 1.4x slow throughout, except one clean stretch of 200
        # ops in each of the first four; ops 800-999 met the slowdown in
        # every pass, so their bests read 140-154 us.
        cost = [110.0 if i % 50 == 0 else 100.0 for i in range(1000)]
        op_us = []
        for p in range(5):
            op_us += [c if p < 4 and 200 * p <= i < 200 * p + 200 else 1.4 * c
                      for i, c in enumerate(cost)]
        raw = raw_report(op_us=op_us)
        raw["values"]["ops_per_pass"] = 1000
        best, _ = benchlib.best_of_passes(op_us, 1000)
        self.assertEqual(benchlib.percentile(best, 0.99)[0], 140.0)
        metrics, counts = benchlib.end_to_end_metrics(raw)
        self.assertEqual(metrics["op_p50_us"], 100.0)
        self.assertAlmostEqual(metrics["op_p99_us"], 110.0)
        self.assertEqual((counts["timed_passes"], counts["samples"]), (5, 1000))

    def test_p99_pools_every_sample_when_a_pass_is_too_short(self):
        # Four passes of 256 ops (too few for a p99 of per-op shapes);
        # the last runs every op 3x slower, which relative to its own
        # pass reads the same as the others.
        fast = [float(i) for i in range(1, 257)]
        raw = raw_report(op_us=fast * 3 + [3 * x for x in fast])
        raw["values"]["ops_per_pass"] = 256
        metrics, counts = benchlib.end_to_end_metrics(raw)
        self.assertEqual(metrics["op_p50_us"], 128.0)
        # Rank 1014 of the pooled 1024 ratios is op 254's, rank 512 op
        # 128's: 128 us x 254/128.
        self.assertAlmostEqual(metrics["op_p99_us"], 254.0)
        self.assertEqual((counts["ops"], counts["timed_passes"], counts["samples"]),
                         (256, 4, 1024))

    def test_relative_latencies_divide_each_pass_by_its_median(self):
        shape, pooled = benchlib.relative_latencies([1.0, 2.0, 3.0, 30.0, 20.0, 10.0], 3)
        self.assertEqual(pooled, [0.5, 1.0, 1.5, 1.5, 1.0, 0.5])
        self.assertEqual(shape, [1.0, 1.0, 1.0])

    def test_best_of_passes_takes_each_ops_minimum(self):
        slow = [10.0, 20.0, 30.0]
        fast = [8.0, 25.0, 12.0]
        best, passes = benchlib.best_of_passes(slow + fast, 3)
        self.assertEqual(best, [8.0, 20.0, 12.0])
        self.assertEqual(passes, 2)
        with self.assertRaises(benchlib.MetricError):
            benchlib.best_of_passes(slow + fast[:2], 3)

    def test_too_few_ops_fail_the_run(self):
        spec = {"end_to_end": [{"name": "op_p99_us", "unit": "us"}], "per_layer": []}
        result, problems = benchlib.summarize(raw_report(op_us=[1.0] * 50), spec, trace=0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})
        self.assertTrue(problems)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "fleet.sweep_busy_s", "p99-us", "9lives", "a" * 64):
            self.assertEqual(benchlib.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "has space", "slash/name", ".leading", "_leading", "a" * 65,
                     "ünïcode", "semi;colon", "trailing\n", None):
            with self.assertRaises(benchlib.MetricError, msg=repr(name)):
                benchlib.check_name(name)

    def test_benchmark_json_names_and_units(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        seen = set()
        for m in spec["end_to_end"] + spec["per_layer"]:
            benchlib.check_name(m["name"])
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for w in spec["workloads"]:
            benchlib.check_name(w["name"])
        self.assertIn("setup_s", {m["name"] for m in spec["end_to_end"]})


class OpsFailedTest(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(benchlib.ops_failed_frac(256, 0), 0.0)
        self.assertAlmostEqual(benchlib.ops_failed_frac(256, 3), 3 / 256)

    def test_invalid_counts(self):
        with self.assertRaises(benchlib.MetricError):
            benchlib.ops_failed_frac(0, 0)
        with self.assertRaises(benchlib.MetricError):
            benchlib.ops_failed_frac(10, 11)


    def test_failed_check_fails_the_run(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        raw = raw_report(checks=[{"name": "no_err_lines", "ok": False, "detail": "2 err lines"}])
        result, problems = benchlib.summarize(raw, spec, trace=0)
        self.assertFalse(result["correct"])
        self.assertIn("no_err_lines", problems[0])

    def test_traced_run_reports_every_layer_and_the_fraction(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        raw = raw_report()
        raw["values"]["server.self_frac"] = 0.9
        raw["series"]["fault.trial_us"] = [float(i) for i in range(1, 1001)]
        # One sample per traced round: reduced by the plain median.
        raw["series"]["trace_overhead_frac"] = [0.03, 0.01, 0.02]
        result, problems = benchlib.summarize(raw, spec, trace=1)
        self.assertEqual(problems, [])
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(list(result["metrics"]), names)
        self.assertEqual(result["metrics"]["server.self_frac"]["value"], 0.9)
        self.assertEqual(result["metrics"]["fault.trial_us_p99"]["value"], 990.0)
        self.assertEqual(result["metrics"]["trace_overhead_frac"]["value"], 0.02)
        self.assertEqual(result["metrics"]["ops_failed_frac"]["value"], 0.0)
        self.assertEqual(result["metrics"]["policy.table_ns"]["value"], 0.0)


class DriverCountingTest(unittest.TestCase):
    """Synthetic failing input through the driver's own counting code
    (e2ebench_driver --self-check), built on first use like run.py does."""

    @classmethod
    def setUpClass(cls):
        import run
        run.build()
        proc = subprocess.run([run.DRIVER, "--self-check"], capture_output=True, text=True,
                              timeout=60, check=True)
        cls.raw = json.loads(proc.stdout.strip().splitlines()[-1])

    def counts(self, case):
        values = self.raw["values"]
        return values[f"{case}.attempted"], values[f"{case}.failed"]

    def test_rejected_query_line_fails_one_of_five(self):
        # Four valid queries and "1 2": one err line, four ok answers.
        self.assertEqual(self.counts("serve.invalid_query"), (5, 1))

    def test_truncated_response(self):
        # Cut inside the fourth line: the err line, a malformed answer
        # and a missing one.
        self.assertEqual(self.counts("serve.truncated"), (5, 3))

    def test_non_finite_answer(self):
        # The err line and an answer whose d_opt reads nan.
        self.assertEqual(self.counts("serve.non_finite"), (5, 2))

    def test_sweep_that_threw_fails_every_sweep(self):
        self.assertEqual(self.counts("fleet.sweep_threw"), (11, 10))

    def test_non_finite_decisions_of_spawned_missions(self):
        # 10 sweeps and three spawned missions, two with a non-finite d*
        # or U*; the unspawned mission is not counted.
        self.assertEqual(self.counts("fleet.non_finite_decisions"), (13, 2))

    def test_replica_reports_merge_their_counts(self):
        # The two fleet cases above, merged as run_fleet merges replicas.
        self.assertEqual(self.counts("fleet.replicas_merged"), (24, 12))

    def test_quarantined_trials(self):
        self.assertEqual(self.counts("campaign.quarantined"), (100, 3))

    def test_failing_batch_fails_the_run_without_numbers(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        raw = self.raw
        self.assertEqual((raw["attempted"], raw["failed"]), (163, 33))
        self.assertAlmostEqual(benchlib.ops_failed_frac(raw["attempted"], raw["failed"]),
                               33 / 163)
        result, problems = benchlib.summarize(raw, spec, trace=1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (163, 33))
        self.assertEqual(result["metrics"], {})
        self.assertTrue(any("33 of 163" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
