#!/usr/bin/env python3
"""Unit tests for scripts/perf_pairs.py (run with
`python3 scripts/test_perf_pairs.py`; the CI `scripts-test` job does).

They pin the statistics (quartiles, pair wins, relative worsening) and
every verdict's boundary on synthetic run values, the parsing of a
benchmark run's output and of `nm` output, without building or running
the benchmark.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}


class Statistics(unittest.TestCase):
    def test_quartiles_interpolate(self):
        self.assertEqual(perf_pairs.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(perf_pairs.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        # Order-independent; even counts interpolate.
        self.assertEqual(perf_pairs.quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        with self.assertRaises(ValueError):
            perf_pairs.quartiles([])

    def test_wins_count_strictly_better_pairs(self):
        parent = [1.0, 1.0, 1.0, 1.0]
        change = [2.0, 1.0, 0.5, 3.0]
        self.assertEqual(perf_pairs.wins(parent, change, "higher"), 2)
        # Ties count for neither side.
        self.assertEqual(perf_pairs.wins(parent, change, "lower"), 1)
        with self.assertRaises(ValueError):
            perf_pairs.wins([1.0], [1.0, 2.0], "higher")

    def test_relative_worsening_sign_follows_direction(self):
        self.assertAlmostEqual(perf_pairs.relative_worsening(2.0, 1.5, "higher"), 0.25)
        self.assertAlmostEqual(perf_pairs.relative_worsening(2.0, 2.5, "higher"), -0.25)
        self.assertAlmostEqual(perf_pairs.relative_worsening(2.0, 2.5, "lower"), 0.25)
        self.assertEqual(perf_pairs.relative_worsening(0.0, 0.0, "lower"), 0.0)


class Verdicts(unittest.TestCase):
    def test_claim_needs_nine_tenths_of_pairs(self):
        parent = [1.0] * 10
        nine = [2.0] * 9 + [0.5]
        eight = [2.0] * 8 + [0.5, 0.5]
        self.assertEqual(perf_pairs.verdict(OPS, parent, nine, claim=True), "claim met")
        self.assertEqual(perf_pairs.verdict(OPS, parent, eight, claim=True), "claim not met")

    def test_claim_needs_gap_beyond_parent_iqr(self):
        # Parent IQR is 1.0 (q1 1.5, q3 2.5 over 1..3 in fives).
        parent = [1.0, 1.5, 2.0, 2.5, 3.0] * 2
        wide = [p + 0.9 for p in parent]  # wins every pair, gap 0.9 < IQR
        far = [p + 1.1 for p in parent]
        self.assertEqual(perf_pairs.verdict(OPS, parent, wide, claim=True), "claim not met")
        self.assertEqual(perf_pairs.verdict(OPS, parent, far, claim=True), "claim met")

    def test_claim_direction_for_lower_is_better(self):
        parent = [100.0] * 10
        self.assertEqual(perf_pairs.verdict(P50, parent, [50.0] * 10, claim=True), "claim met")
        self.assertEqual(perf_pairs.verdict(P50, parent, [150.0] * 10, claim=True), "claim not met")

    def test_bound_boundary(self):
        parent = [100.0] * 5
        self.assertEqual(perf_pairs.verdict(P50, parent, [125.0] * 5), "within bound")
        self.assertEqual(perf_pairs.verdict(P50, parent, [126.0] * 5), "worse than bound")
        self.assertEqual(perf_pairs.verdict(OPS, [4.0] * 5, [3.0] * 5), "within bound")
        self.assertEqual(perf_pairs.verdict(OPS, [4.0] * 5, [2.9] * 5), "worse than bound")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40% of the median
        same = [62.0, 78.0, 101.0, 119.0, 141.0]
        self.assertEqual(perf_pairs.verdict(P50, parent, same), "unresolved")
        # The change's own spread counts too.
        steady = [100.0] * 5
        self.assertEqual(perf_pairs.verdict(P50, steady, same), "unresolved")
        self.assertEqual(perf_pairs.verdict(P50, parent, [10.0, 30.0, 50.0]), "within bound")


class Parsing(unittest.TestCase):
    def test_parse_run_reads_calibration_and_last_line(self):
        out = (
            'host: nproc=2 rustc="rustc 1.0" calibration_ms=44.0 calibration_utf8_ms=58.224\n'
            "workload=batch-dense\n"
            '{"correct": true, "attempted": 4, "failed": 0, "metrics": '
            '{"ops_per_s": {"value": 1.5, "unit": "1/s"}}}\n'
        )
        cal, result = perf_pairs.parse_run(out)
        self.assertEqual(cal, 58.224)
        self.assertEqual(result["metrics"]["ops_per_s"]["value"], 1.5)
        self.assertTrue(result["correct"])
        with self.assertRaises(ValueError):
            perf_pairs.parse_run("\n")

    def test_report_has_one_verdict_per_metric(self):
        def result(ops, p50):
            return {"metrics": {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}}

        runs = [(result(1.0, 100.0), result(2.0, 50.0)) for _ in range(10)]
        lines = perf_pairs.format_report([OPS, P50], runs, claim="ops_per_s")
        verdicts = [l for l in lines if l.startswith("verdict")]
        self.assertEqual(
            verdicts,
            [
                "verdict ops_per_s: claim met (claimed, better higher)",
                "verdict op_p50_ms: within bound (bound 0.25)",
            ],
        )
        self.assertIn("change won 10/10", lines[0])


class Residues(unittest.TestCase):
    NM = (
        "00000000001d3560 T _RNvMNtCslNYArtu3iFV_5alloc6stringNtB2_6String15from_utf8_lossy\n"
        "                 U _RNvNtNtCsXYZ_4core3str8converts9from_utf8\n"
        "00000000001d9230 T _RNvNtNtCsgEmfK2I1SDS_4core3str8converts9from_utf8\n"
        "00000000001d9300 T _RNvNtNtCsgEmfK2I1SDS_4core3str8converts17from_utf8_mut\n"
    )

    def test_residue_of_the_defined_symbol(self):
        # 0x1d9230 = 64 * 30536 + 48; the lossy, mut and undefined
        # entries are skipped.
        self.assertEqual(perf_pairs.utf8_residue(self.NM), 48)
        self.assertIsNone(perf_pairs.utf8_residue(""))
        self.assertIsNone(perf_pairs.utf8_residue(self.NM.splitlines()[0]))

    def test_lines_warn_only_on_known_different_residues(self):
        self.assertEqual(
            perf_pairs.residue_lines(32, 32), ["from_utf8 address mod 64: parent 32, change 32"]
        )
        differ = perf_pairs.residue_lines(32, 0)
        self.assertEqual(differ[0], "from_utf8 address mod 64: parent 32, change 0")
        self.assertTrue(differ[1].startswith("warning: from_utf8 residues differ"))
        self.assertEqual(
            perf_pairs.residue_lines(None, 16),
            ["from_utf8 address mod 64: parent unknown, change 16"],
        )


if __name__ == "__main__":
    unittest.main()
