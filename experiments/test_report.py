#!/usr/bin/env python3
"""Tests for experiments/report.py.

    python3 experiments/test_report.py [PATH/TO/bulksc_batch]

The reducer tests run on a hand-written JSONL fixture. With a
bulksc_batch binary, the smoke test also runs every grid in
experiments/ at a tiny size and checks that each table is complete.
"""

import glob
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402

BATCH = None


def record(point, settings, **stats):
    return json.dumps({"point": point, "settings": settings,
                       "completed": True, "watchdog": "none",
                       "stats": stats})


# Two models on two SPLASH-2 apps and one commercial app.
FIXTURE = [
    record(0, {"app": "barnes", "model": "RC"}, exec_time=100),
    record(1, {"app": "barnes", "model": "BSCdypvt"}, exec_time=125),
    record(2, {"app": "fft", "model": "RC"}, exec_time=300),
    record(3, {"app": "fft", "model": "BSCdypvt"}, exec_time=200),
    record(4, {"app": "sjbb2k", "model": "RC"}, exec_time=100),
    record(5, {"app": "sjbb2k", "model": "BSCdypvt"}, exec_time=1000),
]

TABLE = {
    "rows": ["app"],
    "baseline": {"model": "RC"},
    "value": "base.exec_time / exec_time",
    "columns": [
        {"name": "RC", "select": {"model": "RC"}},
        {"name": "BSCdypvt", "select": {"model": "BSCdypvt"}},
    ],
    "summary": {"label": "SP2-G.M.", "op": "splash2-geomean"},
}


class Reducer(unittest.TestCase):
    def reduce(self, table=TABLE, lines=FIXTURE):
        return report.reduce_table(table, report.parse_records(lines))

    def test_normalizes_to_the_row_baseline(self):
        _, body, _ = self.reduce()
        self.assertEqual(body, [(("barnes",), [1.0, 0.8]),
                                (("fft",), [1.0, 1.5]),
                                (("sjbb2k",), [1.0, 0.1])])

    def test_geomean_covers_splash2_only(self):
        _, _, summary = self.reduce()
        (label, cells), = summary
        self.assertEqual(label, ("SP2-G.M.",))
        self.assertAlmostEqual(cells[1], math.sqrt(0.8 * 1.5))

    def test_division_by_zero_gives_zero(self):
        table = dict(TABLE, value="exec_time / (base.exec_time - 100)")
        _, body, _ = self.reduce(table)
        self.assertEqual(body[0][1], [0.0, 0.0])

    def test_missing_stat_names_key_and_point(self):
        table = dict(TABLE, value="bulk.commits")
        with self.assertRaises(report.ReportError) as e:
            self.reduce(table)
        self.assertIn("bulk.commits", str(e.exception))
        self.assertIn("app=barnes", str(e.exception))

    def test_missing_point_is_an_error_unless_optional(self):
        cols = TABLE["columns"] + [{"name": "SC",
                                    "select": {"model": "SC"}}]
        with self.assertRaises(report.ReportError) as e:
            self.reduce(dict(TABLE, columns=cols))
        self.assertIn("'SC'", str(e.exception))
        cols[-1]["optional"] = True
        _, body, _ = self.reduce(dict(TABLE, columns=cols))
        self.assertIsNone(body[0][1][2])

    def test_rejects_non_arithmetic_expressions(self):
        for bad in ("__import__('os').getcwd()", "exec_time ** 2",
                    "[exec_time]", "exec_time if 1 else 0", "'a'",
                    "exec_time[0]", "exec_time < 1", "True",
                    "-exec_time"):
            with self.assertRaises(report.ReportError, msg=bad):
                report.compile_expr(bad)

    def test_failed_point_is_reported(self):
        failed = json.dumps({"point": 0, "settings": {"app": "fft"},
                             "error": "boom"})
        with self.assertRaises(report.ReportError):
            report.parse_records([failed])

    def test_sweep_replaces_axis_or_extends_row_key(self):
        grid = {"base": {"instrs": 10, "rsig": False, "app": ["a", "b"]},
                "blocks": [{"model": ["RC"]}],
                "table": {"rows": ["app"]}}
        flags, blocks, rows = report.plan(
            grid, [("app", ["c"]), ("chunk", ["5", "6"])])
        self.assertEqual(flags, ["--instrs", "10", "--no-rsig"])
        self.assertEqual(blocks, [[("app", ["c"]), ("model", ["RC"]),
                                   ("chunk", ["5", "6"])]])
        self.assertEqual(rows, ["app", "chunk"])


class GridSmoke(unittest.TestCase):
    """Every grid at a tiny size: no empty or NaN cell except the
    blanks an optional column declares."""

    def test_every_grid_reduces(self):
        if not BATCH:
            self.skipTest("no bulksc_batch binary given")
        grids = sorted(glob.glob(os.path.join(HERE, "*.json")))
        self.assertEqual(len(grids), 12)
        for path in grids:
            with self.subTest(grid=os.path.basename(path)):
                _, cols, body, summary, text = report.report(
                    path, BATCH, 2, ["--instrs", "4000",
                                     "--sweep", "app=barnes"])
                self.assertTrue(body)
                for _, cells in body + summary:
                    for c, v in zip(cols, cells):
                        if v is None:
                            self.assertTrue(c["optional"], c["name"])
                        else:
                            self.assertFalse(math.isnan(v), c["name"])
                self.assertIn("barnes", text)

    def test_cli_exit_codes(self):
        if not BATCH:
            self.skipTest("no bulksc_batch binary given")
        cli = [sys.executable, os.path.join(HERE, "report.py"),
               os.path.join(HERE, "table4.json"), "--batch", BATCH,
               "--instrs", "2000"]
        ok = subprocess.run(cli + ["--sweep", "app=fft"],
                            stdout=subprocess.PIPE)
        self.assertEqual(ok.returncode, 0)
        self.assertIn(b"fft", ok.stdout)
        bad = subprocess.run(cli + ["--sweep", "app=nosuchapp"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
        self.assertEqual(bad.returncode, 1)
        self.assertIn(b"nosuchapp", bad.stderr)

    def test_grid_without_the_exact_mirror_fails_loudly(self):
        # Mirror-only stats are absent without --exact-stats, so the
        # reducer names the missing key instead of printing zeros.
        if not BATCH:
            self.skipTest("no bulksc_batch binary given")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "report.py"),
             os.path.join(HERE, "table3.json"), "--batch", BATCH,
             "--instrs", "2000", "--sweep", "app=fft",
             "--no-exact-stats"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertEqual(proc.returncode, 1)
        self.assertIn(b"bulk.avg_read_set", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        BATCH = sys.argv.pop(1)
    unittest.main()
