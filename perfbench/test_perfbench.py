"""Self-tests of the benchmark's pure parts (no build needed).

    python3 -m unittest discover -s perfbench
"""

import collections
import os
import signal
import statistics
import unittest

import checks
import metrics
import run
import spawn
import workloads as W


def doolittle(a, n):
    """Packed unit-lower/upper LU factor of a, without pivoting."""
    lu = list(a)
    for t in range(n):
        for r in range(t + 1, n):
            lu[r * n + t] /= lu[t * n + t]
            for c in range(t + 1, n):
                lu[r * n + c] -= lu[r * n + t] * lu[t * n + c]
    return lu


def lu_stdout(lu):
    return ("lu = [" + ", ".join(repr(v) for v in lu) + "]\n").encode()


class Percentile(unittest.TestCase):
    def test_linear_interpolation_between_order_statistics(self):
        xs = [10.0, 1.0, 4.0, 3.0, 2.0]  # sorted: 1 2 3 4 10
        self.assertEqual(metrics.percentile(xs, 0.5), 3.0)
        self.assertEqual(metrics.percentile(xs, 0.0), 1.0)
        self.assertEqual(metrics.percentile(xs, 1.0), 10.0)
        self.assertAlmostEqual(metrics.percentile(xs, 0.9), 4.0 + 0.6 * 6.0)

    def test_single_value_and_empty(self):
        self.assertEqual(metrics.percentile([7.5], 0.9), 7.5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)

    def test_agrees_with_inclusive_quartiles(self):
        xs = [float((i * 37) % 101) for i in range(57)]
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        self.assertAlmostEqual(metrics.percentile(xs, 0.25), q1)
        self.assertAlmostEqual(metrics.percentile(xs, 0.5), q2)
        self.assertAlmostEqual(metrics.percentile(xs, 0.75), q3)


class FixedComposition(unittest.TestCase):
    def test_every_seed_and_round_issues_the_same_multiset(self):
        for wl in W.WORKLOADS.values():
            want = collections.Counter(wl.round)
            for seed in (0, 1, 2, 97, 123456):
                for index in range(3):
                    shares = W.round_order(wl, seed, index)
                    self.assertEqual(len(shares), wl.clients)
                    got = collections.Counter(r for share in shares for r in share)
                    self.assertEqual(got, want, (wl.name, seed, index))

    def test_same_seed_same_list_and_inputs(self):
        for wl in W.WORKLOADS.values():
            self.assertEqual(W.round_order(wl, 5, 1), W.round_order(wl, 5, 1))
        self.assertEqual(W.make_inputs(5), W.make_inputs(5))
        self.assertNotEqual(W.make_inputs(5), W.make_inputs(6))

    def test_seed_changes_the_order(self):
        wl = W.WORKLOADS["tiled_lu"]
        orders = {tuple(W.round_order(wl, s, 0)[0]) for s in range(5)}
        self.assertGreater(len(orders), 1)

    def test_daemon_edits_one_request_in_ten(self):
        rnd = W.WORKLOADS["daemon"].round
        self.assertEqual(10 * sum(r.edit for r in rnd), len(rnd))


class Checkers(unittest.TestCase):
    def setUp(self):
        self.inputs = W.make_inputs(3)

    def test_lu_factor_passes_and_a_perturbed_one_fails(self):
        a = self.inputs["tiled8"]["a"]
        lu = doolittle(a, W.LU_N)
        req = W.Request("run", "tiled8")
        self.assertIsNone(checks.check_output(req, 0, lu_stdout(lu), self.inputs))
        bad = list(lu)
        bad[5 * W.LU_N + 9] += 1e-3
        self.assertIn("|LU - A|", checks.check_output(req, 0, lu_stdout(bad), self.inputs))
        self.assertIsNotNone(checks.check_output(req, 0, lu_stdout(lu[:-1]), self.inputs))

    def test_heat_probe_replica_matches_the_cli(self):
        # `banger run heat_probe.bang -i left=100 -i right=0` prints this.
        self.assertEqual(
            checks.heat_summary(100.0, 0.0),
            [53.33333333333333, 46.66666666666667, 50.0, 6.666666666666657],
        )

    def test_lu3_solve(self):
        x = checks.solve3([5, 1.5, 2, 1.75, 5, 1.5, 1.25, 1.75, 5], [1, 2, 3])
        want = [-0.09323703217334209, 0.2744583059750492, 0.5272488509520683]
        for p, q in zip(x, want):
            self.assertAlmostEqual(p, q, places=12)

    def test_matmul_needs_identity_times_b(self):
        b = self.inputs["matmul"]["B"]
        req = W.Request("run", "matmul")
        good = ("C = [" + ", ".join(repr(v) for v in b) + "]\n").encode()
        self.assertIsNone(checks.check_output(req, 0, good, self.inputs))
        self.assertIsNotNone(checks.check_output(req, 0, good.replace(b"[", b"[1", 1), self.inputs))

    def test_racy_check_must_exit_1_naming_b001(self):
        req = W.Request("check", "racy_pipeline")
        self.assertIsNone(checks.check_output(req, 1, b"error[B001]: ...\n1 error, 0 warnings\n", self.inputs))
        self.assertIsNotNone(checks.check_output(req, 0, b"error[B001]: ...\n", self.inputs))
        self.assertIsNotNone(checks.check_output(req, 1, b"error[B030]: ...\n", self.inputs))

    def test_gantt_needs_a_makespan_line(self):
        req = W.Request("gantt_ETF", "lu3")
        ok = b"chart\n\nmakespan 49.000, speedup 1.12x, efficiency 28%, 2 of 4 processors used\n"
        self.assertIsNone(checks.check_output(req, 0, ok, self.inputs))
        self.assertIsNotNone(checks.check_output(req, 0, b"chart\n", self.inputs))


class Verify(unittest.TestCase):
    def record(self, req, stdout, outputs):
        outputs[stdout] = stdout
        return run.Record(req, 0, W.expected_rc(req), stdout, 0.05, 0.001, 4000, False, None)

    def test_daemon_output_must_match_local_byte_for_byte(self):
        local = W.Request("gantt_ETF", "lu3")
        served = W.Request("gantt_ETF", "lu3", connect=True)
        ref = b"chart\nmakespan 49.000, speedup 1.12x, efficiency 28%\n"
        prep = run.Prepared("", W.make_inputs(1), {local.kind: ref}, None)
        outputs = {}
        same = [self.record(served, ref, outputs), self.record(local, ref, outputs)]
        self.assertEqual(run.verify(same, outputs, prep), [None, None])
        differs = [self.record(served, ref.replace(b"49.000", b"49.001"), outputs)]
        [err] = run.verify(differs, outputs, prep)
        self.assertIn("differs from the verified local output", err)

    def test_timeouts_count_as_failures(self):
        req = W.Request("check", "lu3")
        prep = run.Prepared("", W.make_inputs(1), {req.kind: b"0 errors, 0 warnings\n"}, None)
        outputs = {b"": b""}
        rec = run.Record(req, 0, -9, b"", 60.0, 0.0, 0, True, None)
        self.assertIn("timed out", run.verify([rec], outputs, prep)[0])


class StatsSpawner:
    """Answers `banger --connect SOCK stats` with the given request counts."""

    def __init__(self, *counts):
        self.counts = iter(counts)

    def run(self, argv, timeout_s):
        assert argv[1:] == ["--connect", spawn.SOCKET, "stats"], argv
        out = b"requests %d  hits 0  misses 0  rebuilds 0  evictions 0  panics 0\n" % next(self.counts)
        return spawn.Outcome(0, out, 0.05, 0.0, 0, False)


class DaemonServed(unittest.TestCase):
    """A --connect request that cannot reach the daemon runs locally with
    the same stdout; the daemon's request count must expose it."""

    def daemon(self):
        d = spawn.Daemon("banger")
        d.pid = os.posix_spawnp("sleep", ["sleep", "30"], os.environ)  # stands in for `banger serve`
        self.addCleanup(d.stop)
        return d

    def test_every_request_served(self):
        d = self.daemon()
        # 4 pings at start-up and the first query, then 10 requests and the second query.
        sp = StatsSpawner(5, 16)
        before = d.served(sp)
        self.assertEqual(run.unserved(d, sp, 10, before), 0)

    def test_requests_that_fell_back_to_local_are_failures(self):
        d = self.daemon()
        sp = StatsSpawner(5, 13)  # only 7 of the 10 reached the daemon
        before = d.served(sp)
        self.assertEqual(run.unserved(d, sp, 10, before), 3)

    def test_a_daemon_that_exited_served_nothing(self):
        d = self.daemon()
        sp = StatsSpawner(5)
        before = d.served(sp)
        os.kill(d.pid, signal.SIGKILL)
        os.waitid(os.P_PID, d.pid, os.WEXITED | os.WNOWAIT)
        self.assertEqual(run.unserved(d, sp, 10, before), 10)
        self.assertIsNone(d.pid)


if __name__ == "__main__":
    unittest.main()
