"""Tests of the benchmark itself. They build and run nothing of the repo.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOAD_TAG)


def stream(name, seed, n):
    wl = workloads.Workload(name, seed)
    reqs = [wl.ready()] + wl.warmup() + [wl.request(i) for i in range(n)]
    return [r.line for r in reqs]


# Answers every line with an ok response and appends what it read to the
# file named by argv[1]: what a server program sees of a run.
FAKE_SERVER = r"""
import sys
with open(sys.argv[1], "wb") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        log.flush()
        sys.stdout.write('{"ok": true, "ready": true}\n')
        sys.stdout.flush()
"""


class Determinism(unittest.TestCase):
    def test_same_seed_gives_byte_identical_stream(self):
        for name in NAMES:
            self.assertEqual(stream(name, 7, 60), stream(name, 7, 60), name)

    def test_other_seed_gives_other_stream(self):
        for name in NAMES:
            self.assertNotEqual(stream(name, 7, 60), stream(name, 8, 60), name)

    def test_request_does_not_depend_on_earlier_requests(self):
        for name in NAMES:
            wl = workloads.Workload(name, 3)
            late = wl.request(41).line
            self.assertEqual(workloads.Workload(name, 3).request(41).line, late)

    def test_every_block_holds_each_kind_once(self):
        wl = workloads.Workload("hot_run", 11)
        n = len(wl.kinds)
        for block in range(5):
            kinds = sorted(wl.kind_of(i)
                           for i in range(block * n, (block + 1) * n))
            self.assertEqual(kinds, list(range(n)))

    def test_planted_errors_are_one_request_in_five(self):
        wl = workloads.Workload("fresh_check", 5)
        every = workloads.FRESH_ERROR_EVERY
        for block in range(40):
            bad = [wl.request(i).ref[1] > 0
                   for i in range(block * every, (block + 1) * every)]
            self.assertEqual(sum(bad), 1)

    def test_server_sees_only_the_generated_requests(self):
        wl = workloads.Workload("fresh_check", 9)
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "seen")
            argv = [sys.executable, "-c", FAKE_SERVER, log]
            srv, _, _ = run.set_up(wl, argv, "stdio")
            loop = run.ClosedLoop(srv, wl)
            loop.run_for(0.2)
            loop.run_for(0.1)
            srv.close()
            with open(log, "rb") as f:
                seen = f.read().splitlines()
        self.assertEqual(seen, stream("fresh_check", 9, len(loop.lats)))

    def test_gauges_are_read_after_a_fixed_count(self):
        wl = workloads.Workload("hot_run", 2)
        gauge_at, run.GAUGE_AT = run.GAUGE_AT, 30
        try:
            with tempfile.TemporaryDirectory() as tmp:
                argv = [sys.executable, "-c", FAKE_SERVER,
                        os.path.join(tmp, "seen")]
                srv, _, _ = run.set_up(wl, argv, "stdio")
                probes = []

                def probe():
                    probes.append(len(loop.sent))
                    return 1.0
                loop = run.ClosedLoop(srv, wl, probe=probe)
                loop.run_for(0)      # a window too short to reach the count
                loop.reach_gauge()
                loop.reach_gauge()
                srv.close()
        finally:
            run.GAUGE_AT = gauge_at
        self.assertEqual(loop.lats, [])
        self.assertEqual(len(loop.sent), 30)
        self.assertEqual(probes, [30])
        self.assertEqual(loop.probed, 1.0)


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(run.percentile(xs, 50), 5)
        self.assertEqual(run.percentile(xs, 90), 9)
        self.assertEqual(run.percentile(xs, 91), 10)
        self.assertEqual(run.percentile(xs, 100), 10)
        self.assertEqual(run.percentile([2, 1], 50), 1)
        self.assertEqual(run.percentile([5], 99), 5)
        self.assertEqual(run.percentile(list(range(1000, 0, -1)), 99), 990)

    def test_samples_beyond(self):
        self.assertEqual(run.beyond(1000, 99), 10)
        self.assertEqual(run.beyond(999, 99), 9)
        self.assertEqual(run.beyond(10, 50), 5)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class Reference(unittest.TestCase):
    def test_catches_a_wrong_value(self):
        ref = ("value", workloads.GOLDEN["parsec"])
        good = b'{"ok": true, "value": "(7, 9, 101, 7)"}'
        wrong = b'{"ok": true, "value": "(7, 9, 101, 8)"}'
        self.assertIsNone(workloads.check_response(ref, good))
        self.assertIsNotNone(workloads.check_response(ref, wrong))

    def test_catches_a_wrong_error_count(self):
        ref = ("errors", 2)
        good = b'{"ok": true, "errors": 2, "artifact": false}'
        self.assertIsNone(workloads.check_response(ref, good))
        for bad in (b'{"ok": true, "errors": 1, "artifact": false}',
                    b'{"ok": true, "errors": 2, "artifact": true}',
                    b'{"ok": false, "error": {"class": "ice"}}',
                    b'not json'):
            self.assertIsNotNone(workloads.check_response(ref, bad), bad)


class Layers(unittest.TestCase):
    def test_compile_split_keeps_the_total(self):
        baseline = {"compile/infer": 700, "compile/static": 100}
        spans = {"compile": 2000, "compile/lex": 10, "compile/prelude": 900,
                 "compile/infer": 500, "compile/static": 300}
        split = run.split_compile(spans, baseline)
        self.assertEqual(split["infer"], 0)
        self.assertEqual(split["static"], 200)
        self.assertEqual(split["syntax"], 10)
        self.assertEqual(sum(split.values()), 2000)

    HIT = {"handle": 1000, "parse": 50, "render": 30, "hook": 100,
           "spec": 400, "hits": 1, "misses": 0, "sel": 3, "dc": 1,
           "spans": {"optimize": 400, "exec": 420, "exec/eval": 100,
                     "exec/render": 300}}

    def test_self_times_cover_a_cache_hit(self):
        row, kind = run.self_times(self.HIT, {})
        self.assertEqual(row["cache"], 100)
        self.assertEqual(row["exec.eval"], 400)
        self.assertEqual(row["exec.other"], 20)
        self.assertEqual(sum(row.values()), 1000)
        self.assertTrue(kind["hit"] and kind["run"] and not kind["vm"])

    def test_coverage_passes_when_layers_add_up(self):
        rows = [run.self_times(self.HIT, {})]
        *_, covered, err = run.coverage(rows)
        self.assertEqual(covered, 1.0)
        self.assertIsNone(err)

    def test_coverage_fails_when_layers_miss_the_handle(self):
        # 1000 ns of layers inside a 1500 ns handle: a third is unaccounted
        rec = dict(self.HIT, handle=1500)
        rows = [run.self_times(self.HIT, {}), run.self_times(rec, {})]
        *_, covered, err = run.coverage(rows)
        self.assertAlmostEqual(covered, 0.8)
        self.assertIsNotNone(err)


if __name__ == "__main__":
    unittest.main()
