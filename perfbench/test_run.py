"""Tests of the benchmark's own metric code: percentile selection, the
failure arithmetic, the watchdog, and the agreement between run.py, its
manifest and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

PY = sys.executable


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40]
        self.assertEqual(run.percentile(xs, 0.0), 10)
        self.assertEqual(run.percentile(xs, 1.0), 40)
        self.assertAlmostEqual(run.percentile(xs, 0.5), 25.0)
        self.assertAlmostEqual(run.percentile(xs, 1 / 3), 20.0)

    def test_order_does_not_matter(self):
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)

    def test_median_matches_statistics(self):
        for xs in ([5], [1, 9], [4, 1, 7, 2, 8], [0.3, 0.1, 0.2, 0.9, 0.5, 0.4]):
            self.assertAlmostEqual(run.median(xs), statistics.median(xs))

    def test_rejects_nonsense(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)
        with self.assertRaises(ValueError):
            run.percentile([1], 1.5)

    def test_spread_is_quartile_distance_over_median(self):
        xs = [float(x) for x in range(1, 11)]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(run.spread(xs), (q3 - q1) / 5.5)
        self.assertEqual(run.spread([2.0] * 10), 0.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(10_000), 0.999)
        self.assertEqual(run.tail_percentile(1_000), 0.99)
        self.assertEqual(run.tail_percentile(999), 0.95)
        self.assertEqual(run.tail_percentile(100), 0.9)
        self.assertEqual(run.tail_percentile(20), 0.5)
        self.assertIsNone(run.tail_percentile(19))


def fake(kind, status, ops):
    data = None if ops is None else {"ops": ops}
    return run.Run(kind, status, data, "", 0.0, 0.0)


class Failures(unittest.TestCase):
    def test_share(self):
        self.assertEqual(run.failed_share(10, 0), 0.0)
        self.assertEqual(run.failed_share(8, 2), 0.25)
        with self.assertRaises(ValueError):
            run.failed_share(0, 0)
        with self.assertRaises(ValueError):
            run.failed_share(5, 6)

    def test_failed_run_charges_all_its_ops(self):
        led = run.Ledger()
        led.add(fake("live", "ok", 100))
        led.add(fake("live", "check", 40))
        self.assertEqual(led.totals(), (140, 40))
        self.assertFalse(led.correct())

    def test_dead_run_is_charged_the_median_of_its_kind(self):
        led = run.Ledger()
        for ops in (100, 300, 200):
            led.add(fake("live", "ok", ops))
        led.add(fake("live", "crash", None))
        led.add(fake("capture", "ok", 7))
        self.assertEqual(led.totals(), (600 + 200 + 7, 200))
        self.assertTrue(led.correct())

    def test_dead_run_with_no_reference_counts_one(self):
        led = run.Ledger()
        led.add(fake("live", "hang", None))
        led.add(fake("live", "crash", None))
        self.assertEqual(led.totals(), (2, 2))

    def test_output_check(self):
        ok = run.Run("audit", "ok", {"ok": True, "ops": 5, "well_formed": None,
                                     "causal": None, "occ_violations": 3}, "", 0, 0)
        self.assertEqual(run.output_check(ok, 3).status, "ok")
        bad = run.Run("audit", "ok", {"ok": True, "ops": 5, "causal": "closed witness incorrect",
                                      "occ_violations": 3}, "", 0, 0)
        self.assertEqual(run.output_check(bad, 3).status, "check")
        occ = run.Run("audit", "ok", {"ok": True, "ops": 5, "occ_violations": 4}, "", 0, 0)
        self.assertEqual(run.output_check(occ, 3).status, "check")
        div = run.Run("live", "ok", {"ok": False, "why": "diverged: x", "ops": 5}, "", 0, 0)
        self.assertEqual(run.output_check(div).status, "check")


class Watchdog(unittest.TestCase):
    def test_result_line(self):
        r = run.run_child("x", [PY, "-c", "print('noise'); print('{\"ops\": 3}')"], 10)
        self.assertEqual((r.status, r.data), ("ok", {"ops": 3}))

    def test_nonzero_exit_is_a_crash(self):
        r = run.run_child("x", [PY, "-c", "import sys; sys.exit(3)"], 10)
        self.assertEqual(r.status, "crash")
        self.assertIn("exit 3", r.detail)

    def test_missing_result_is_a_crash(self):
        self.assertEqual(run.run_child("x", [PY, "-c", "pass"], 10).status, "crash")

    def test_hang_is_killed_and_reaped(self):
        t0 = time.time()
        r = run.run_child("x", [PY, "-c", "import time; time.sleep(60)"], 0.5)
        self.assertEqual(r.status, "hang")
        self.assertLess(time.time() - t0, 10)

    def test_thread_lost_while_steady_is_a_crash(self):
        src = ("import threading, time\n"
               "t = threading.Thread(target=time.sleep, args=(0.5,)); t.start(); t.join()\n"
               "time.sleep(3); print('{}')\n")
        t0 = time.time()
        r = run.run_child("x", [PY, "-c", src], 30, run.Steady(0.2, 3.0, 2))
        self.assertEqual(r.status, "crash")
        self.assertIn("1 of 2 threads", r.detail)
        self.assertLess(time.time() - t0, 3.0)

    def test_thread_missing_from_the_start_is_a_crash(self):
        src = "import time; time.sleep(3); print('{}')"
        r = run.run_child("x", [PY, "-c", src], 30, run.Steady(0.2, 3.0, 2))
        self.assertEqual(r.status, "crash")

    def test_thread_ending_after_the_steady_window_is_fine(self):
        src = ("import threading, time\n"
               "t = threading.Thread(target=time.sleep, args=(0.8,)); t.start(); t.join()\n"
               "print('{}')\n")
        r = run.run_child("x", [PY, "-c", src], 30, run.Steady(0.2, 0.5, 2))
        self.assertEqual(r.status, "ok")


LIVE = {"ops": 100, "ops_per_s": 1e5, "lag_ms_mean": 2.0, "wire_bytes": 900, "updates": 90,
        "peak_rss_bytes": 4096, "run_wall_s": 1.2, "elapsed_s": 1.0, "drain_s": 0.1,
        "stalls": 3, "frames": 12, "replica_op_share_max": 0.5, "queue_depth_peak": 0,
        "digest_bytes": 40, "repair_bytes": 0, "dup_payloads": 0, "max_payload_bytes": 90,
        "minor_words": 5e4, "major_collections": 2, "events": 300, "messages": 12,
        "occ_violations": 0, "audit_s": 0.5, "message_bytes": 800, "sim_s": 0.2,
        "audit_cpu_s": 0.4, "sim_cpu_s": 0.1, "cpu_s": 0.001,
        "check.well_formed_s": 0.1, "check.complies_s": 0.1, "check.correct_s": 0.1,
        "check.closure_s": 0.1, "check.causal_s": 0.1, "check.occ_s": 0.1, "check.words": 9.0}


class Contract(unittest.TestCase):
    def setUp(self):
        self.manifest = run.load_manifest()

    def test_end_to_end_keys_match_manifest(self):
        names = [m["name"] for m in self.manifest["end_to_end"]]
        runs = [run.Run("live", "ok", LIVE, "", 0, 0)]
        self.assertEqual(sorted(run.live_end_to_end(runs, [0.01])), sorted(names))
        self.assertEqual(sorted(run.audit_end_to_end(runs, [0.01])), sorted(names))

    def test_per_layer_keys_match_manifest(self):
        names = [m["name"] for m in self.manifest["per_layer"]]
        runs = [run.Run("live", "ok", LIVE, "", 0, 0)]
        traced = run.Run("traced", "crash", None, "", 0, 0)
        got = run.traced_layer(traced)
        got.update(run.cluster_layer(runs))
        got.update(run.gc_layer(runs))
        got.update(run.check_layer(runs))
        self.assertEqual(sorted(got), sorted(names))

    def test_live_metrics(self):
        loop = run.Run("loop", "ok", dict(LIVE, ops=200, cpu_s=0.002, wire_bytes=450,
                                          peak_rss_bytes=2048), "", 0, 0)
        m = run.live_end_to_end([loop], [0.02, 0.01, 0.03])
        self.assertAlmostEqual(m["ops_per_cpu_s"], 1e5)
        self.assertAlmostEqual(m["wire_bytes_per_update"], 5.0)
        self.assertAlmostEqual(m["rss_bytes_per_op"], 10.24)
        self.assertAlmostEqual(m["setup_s"], 0.02)

    def test_audit_metrics(self):
        m = run.audit_end_to_end([run.Run("audit", "ok", LIVE, "", 0, 0)], [0.02])
        self.assertAlmostEqual(m["ops_per_cpu_s"], 100 / 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.02)

    def test_cold_starts_count_dead_and_hung_runs_outside_the_ledger(self):
        statuses = iter(["ok", "crash", "hang", "ok"])
        orig = run.run_child
        run.run_child = lambda kind, argv, timeout, steady: run.Run(
            kind, next(statuses), None, "", 0.0, 0.0)
        try:
            self.assertEqual(run.cold_starts("live-write", 1), (run.COLD_STARTS, 2))
        finally:
            run.run_child = orig

    def test_split_fills_the_time_in_short_sub_runs(self):
        self.assertEqual(run.split(4.0), (1, 4.0))
        k, d = run.split(13.0)
        self.assertEqual(k, 4)
        self.assertAlmostEqual(k * d, 13.0)
        self.assertLessEqual(d, run.SUB_SECONDS)

    def test_benchmark_json_agrees(self):
        path = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            bench = json.load(f)
        for key in ("end_to_end", "per_layer"):
            strip = [{k: m[k] for k in m if k in ("name", "unit", "better", "bound")}
                     for m in self.manifest[key]]
            self.assertEqual(bench[key], strip)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([w["why"] for w in bench["workloads"]],
                         [w["why"] for w in self.manifest["workloads"]])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_occ_table_covers_every_audit_seed(self):
        table = self.manifest["occ_table"]
        for seed in (0, 21, 404, 10**9, -5):
            for i in range(40):
                self.assertIn(run.audit_seed(seed, i, len(table)), range(len(table)))


if __name__ == "__main__":
    unittest.main()
