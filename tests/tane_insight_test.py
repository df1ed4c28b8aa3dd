#!/usr/bin/env python3
"""Tests for `tools/tane_insight.py diff` on hand-made run reports.

Timing leaves are banded relatively; `*seconds` leaves also agree within
an absolute 5 ms floor, so millisecond phases do not flag drift between
clean runs. Counters must match exactly.

Run directly (`python3 tests/tane_insight_test.py`) or via ctest
(`tane_insight_diff_test`).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "tane_insight.py")


def report(other_seconds, g3_scans=7, cycles=1000):
    return {
        "schema_version": 2,
        "metrics": {"counters": {"g3_scans": g3_scans}},
        "timing": {"other_seconds": other_seconds},
        "hw": {"cycles": cycles},
    }


class DiffTest(unittest.TestCase):
    def diff(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("a.json", a), ("b.json", b)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            proc = subprocess.run([sys.executable, TOOL, "diff"] + paths,
                                  stdout=subprocess.PIPE, text=True)
            return proc.returncode, proc.stdout

    def test_millisecond_seconds_leaf_inside_the_floor(self):
        # 0.0025 vs 0.0011 s: 56% apart, 1.4 ms apart.
        code, out = self.diff(report(0.0025), report(0.0011))
        self.assertEqual(code, 0, out)

    def test_seconds_leaf_outside_band_and_floor(self):
        # 0.0025 vs 0.0090 s: 72% and 6.5 ms apart.
        code, out = self.diff(report(0.0025), report(0.0090))
        self.assertEqual(code, 1, out)
        self.assertIn("timing.other_seconds", out)

    def test_large_seconds_leaf_is_still_banded(self):
        # 1.0 vs 2.1 s: far past the floor, so the relative band decides.
        code, out = self.diff(report(1.0), report(2.1))
        self.assertEqual(code, 1, out)

    def test_floor_applies_to_seconds_leaves_only(self):
        # cycles 1 vs 3: tiny in absolute terms, but not a seconds leaf.
        code, out = self.diff(report(0.001, cycles=1),
                              report(0.001, cycles=3))
        self.assertEqual(code, 1, out)
        self.assertIn("hw.cycles", out)

    def test_counters_stay_exact(self):
        code, out = self.diff(report(0.001, g3_scans=7),
                              report(0.001, g3_scans=8))
        self.assertEqual(code, 1, out)
        self.assertIn("deterministic field", out)


if __name__ == "__main__":
    unittest.main()
