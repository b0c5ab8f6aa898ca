"""Self-tests of the benchmark's summary, verdict and trace-check logic.

The percentile and written-trace tests build the harness's src/trace.cpp
with the C++ compiler named by $CXX (default c++).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import stats  # noqa: E402
from report import check_trace  # noqa: E402


class Harness:
    """The harness's statistics and trace writer (src/trace.cpp), built with
    tests/harness_main.cpp."""

    def __init__(self, workdir):
        cxx = os.environ.get("CXX", "c++")
        if shutil.which(cxx) is None:
            raise unittest.SkipTest(f"no C++ compiler ({cxx})")
        self.workdir = Path(workdir)
        self.binary = self.workdir / "harness_main"
        subprocess.run(
            [cxx, "-std=c++20", "-O2", "-I", str(HERE.parent / "src"),
             str(HERE / "harness_main.cpp"),
             str(HERE.parent / "src" / "trace.cpp"), "-o", str(self.binary)],
            check=True)

    def quantile(self, cases):
        """[(quantile, median)] for each (values, p) case."""
        text = "".join(" ".join(repr(x) for x in [p, *values]) + "\n"
                       for values, p in cases)
        out = subprocess.run([str(self.binary), "quantile"], input=text,
                             check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        return [tuple(float(x) for x in line.split())
                for line in out.splitlines()]

    def write_trace(self, spans):
        """Writes (name, start_s, end_s, lane) spans; returns the file."""
        path = self.workdir / "trace.json"
        text = "".join(f"{n} {a!r} {b!r} {lane}\n" for n, a, b, lane in spans)
        subprocess.run([str(self.binary), "trace", str(path)], input=text,
                       check=True, text=True)
        return path


def setUpModule():
    global WORKDIR, HARNESS
    WORKDIR = tempfile.TemporaryDirectory()
    HARNESS = Harness(WORKDIR.name)


def tearDownModule():
    WORKDIR.cleanup()


class Percentiles(unittest.TestCase):
    def one(self, values, p):
        return HARNESS.quantile([(values, p)])[0][0]

    def test_matches_statistics_for_every_sample_count(self):
        cases, expected = [], []
        for n in range(2, 23):
            values = [((7 * k) % n) * 1.5 + 0.25 for k in range(n)]
            want = statistics.quantiles(values, n=4)
            for i, p in enumerate((0.25, 0.5, 0.75)):
                if 1 <= p * (n + 1) <= n:  # quantiles() extrapolates outside
                    cases.append((values, p))
                    expected.append((n, want[i], statistics.median(values)))
        for (n, want, med), (got, got_med) in zip(expected,
                                                  HARNESS.quantile(cases)):
            self.assertAlmostEqual(got, want, places=12, msg=n)
            self.assertEqual(got_med, med, n)

    def test_ties(self):
        values = [2.0, 5.0, 2.0, 2.0, 5.0, 5.0, 2.0]
        for p in (0.25, 0.5, 0.75):
            self.assertEqual(self.one(values, p), statistics.quantiles(
                values, n=4)[int(p * 4) - 1])
        self.assertEqual(self.one([3.0] * 9, 0.9), 3.0)
        # p90 of four equal values and one outlier: clamped to the outlier.
        self.assertEqual(self.one([1.0, 1.0, 1.0, 1.0, 9.0], 0.9), 9.0)

    def test_clamps_to_the_sample_range(self):
        values = [3.0, 1.0, 2.0]
        self.assertEqual(self.one(values, 0.9), 3.0)
        self.assertEqual(self.one(values, 0.01), 1.0)
        self.assertEqual(self.one([5.0], 0.5), 5.0)
        # p90 of 1..100: position 90.9, between the 90th and 91st values.
        self.assertAlmostEqual(self.one(list(range(1, 101)), 0.9), 90.9)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.relative_spread([4.0]), 0.0)

    def test_quartiles_and_relative_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.relative_spread(values), 0.1)
        self.assertEqual(stats.relative_spread([2.0] * 6), 0.0)


class Verdicts(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_ties_count_for_neither_side(self):
        head = list(self.base)
        self.assertEqual(stats.head_wins(self.base, head, "lower"), 0)
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1), "same")
        head[0] = 9.0
        self.assertEqual(stats.head_wins(self.base, head, "lower"), 1)
        self.assertEqual(stats.head_wins(self.base, head, "higher"), 0)

    def test_clear_gain_is_better(self):
        head = [v * 0.8 for v in self.base]
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1),
                         "better")
        self.assertEqual(stats.verdict(head, self.base, "higher", 0.1),
                         "better")

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        head = [v * 0.9 for v in self.base]
        head[0] = head[1] = 11.0  # the head loses two pairs of ten
        self.assertEqual(stats.head_wins(self.base, head, "lower"), 8)
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1), "same")

    def test_gain_must_exceed_the_base_quartile_distance(self):
        head = [v - 0.05 for v in self.base]  # wins every pair, but narrowly
        self.assertEqual(stats.head_wins(self.base, head, "lower"), 10)
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1), "same")

    def test_loss_beyond_the_bound_is_worse(self):
        head = [v * 1.2 for v in self.base]
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(self.base, head, "higher", 0.1),
                         "better")

    def test_loss_within_the_bound_is_same(self):
        head = [v * 1.05 for v in self.base]
        self.assertEqual(stats.verdict(self.base, head, "lower", 0.1), "same")

    def test_spread_beyond_the_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertGreater(stats.relative_spread(noisy), 0.1)
        self.assertEqual(stats.verdict(self.base, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(stats.verdict(noisy, self.base, "lower", 0.1),
                         "unresolved")

    def test_noisy_but_every_head_run_better_is_better(self):
        base = [20.0, 30.0, 25.0, 22.0, 28.0]
        head = [10.0, 15.0, 12.0, 11.0, 14.0]
        self.assertGreater(stats.relative_spread(base), 0.1)
        self.assertEqual(stats.verdict(base, head, "lower", 0.1), "better")

    def test_exact_counters(self):
        self.assertEqual(stats.verdict([296] * 10, [296] * 10, "lower", 0.05),
                         "same")
        self.assertEqual(stats.verdict([296] * 10, [320] * 10, "lower", 0.05),
                         "worse")

    def test_unequal_sides_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.verdict([1.0], [1.0, 2.0], "lower", 0.1)


class TraceCheck(unittest.TestCase):
    def check(self, events):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.json"
            path.write_text(json.dumps({"traceEvents": events}))
            return check_trace(path)

    @staticmethod
    def ev(ph, name, ts, tid=0):
        return {"name": name, "cat": "x", "ph": ph, "ts": ts, "pid": 1,
                "tid": tid}

    def test_nested_spans_on_two_lanes_pass(self):
        ev = self.ev
        self.assertIsNone(self.check([
            ev("B", "solve", 0), ev("B", "iter", 1), ev("E", "iter", 2),
            ev("E", "solve", 3), ev("B", "job", 0, 7), ev("E", "job", 5, 7)]))

    def test_unclosed_crossed_and_backwards_spans_fail(self):
        ev = self.ev
        self.assertIn("never closed", self.check([ev("B", "solve", 0)]))
        self.assertIn("unmatched", self.check([
            ev("B", "a", 0), ev("B", "b", 1), ev("E", "a", 2),
            ev("E", "b", 3)]))
        self.assertIn("backwards", self.check([
            ev("B", "a", 5), ev("E", "a", 4)]))
        self.assertEqual(self.check([]), "no events")

    def test_written_trace_of_nested_spans_passes(self):
        path = HARNESS.write_trace([
            ("solve", 0.0, 3.0, 0), ("iter", 1.0, 2.0, 0),
            ("recovery", 1.2, 1.5, 0), ("iter", 2.0, 3.0, 0),
            ("job", 0.5, 4.0, 100), ("run", 1.0, 4.0, 100)])
        self.assertIsNone(check_trace(path))

    def test_written_trace_of_a_crossed_span_fails(self):
        # "recovery" outlives the iteration it started in.
        path = HARNESS.write_trace([
            ("iter", 1.0, 2.0, 0), ("recovery", 1.5, 2.5, 0),
            ("iter", 2.0, 3.0, 0)])
        self.assertIn("backwards", check_trace(path))


if __name__ == "__main__":
    unittest.main()
