#!/usr/bin/env python3
"""Fixture tests for tools/tane_analyzer.

Each `*_fail.cc` / `*_pass.cc` fixture in this directory is analyzed in
its own throwaway source tree, and the findings are compared against the
expectations the fixture declares in its header comments:

  // analyzer-path: src/core/tane.cc     where to place the fixture in the
                                         temp tree (default: src/fixture/
                                         <basename>) — the determinism and
                                         handle-discipline rules are scoped
                                         to specific directories/files
  // analyzer-expect: <rule>=<count>     exact finding count for a rule
  // analyzer-expect: clean              zero findings on every rule

Counts are exact in both directions: a missing finding is a regression in
the rule, an extra finding is a false positive in the frontend. Rules not
named by any expectation must report zero.

Run directly (`python3 run_fixture_tests.py`) or via ctest
(`analyzer_fixture_tests`).
"""

import os
import re
import shutil
import sys
import tempfile
import unittest

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(FIXTURE_DIR))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from tane_analyzer import driver  # noqa: E402  (path bootstrap above)

EXPECT_RE = re.compile(r"//\s*analyzer-expect:\s*([a-z-]+)(?:=(\d+))?")
PATH_RE = re.compile(r"//\s*analyzer-path:\s*(\S+)")

ALL_RULES = ("atomics-contract", "signal-safety", "determinism",
             "handle-discipline")


def parse_fixture(path):
    """Returns (dest_rel_path, {rule: count}) for one fixture file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    dest = None
    match = PATH_RE.search(text)
    if match:
        dest = match.group(1)
    expectations = {}
    for rule, count in EXPECT_RE.findall(text):
        if rule == "clean":
            continue  # "clean" == no expectations at all
        if rule not in ALL_RULES:
            raise AssertionError(
                f"{os.path.basename(path)}: unknown rule `{rule}` in "
                "analyzer-expect header")
        expectations[rule] = int(count or 1)
    return dest, expectations


class AnalyzerFixtureTests(unittest.TestCase):
    maxDiff = None

    def analyze_fixture(self, name):
        src = os.path.join(FIXTURE_DIR, name)
        dest_rel, expectations = parse_fixture(src)
        if dest_rel is None:
            dest_rel = f"src/fixture/{name}"
        tree = tempfile.mkdtemp(prefix="tane_analyzer_fixture_")
        try:
            dest = os.path.join(tree, dest_rel)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copyfile(src, dest)
            findings, _stats = driver.analyze_tree(tree)
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        counts = {rule: 0 for rule in ALL_RULES}
        for finding in findings:
            counts[finding.rule] += 1
        rendered = "\n".join(str(f) for f in findings)
        for rule in ALL_RULES:
            self.assertEqual(
                counts[rule], expectations.get(rule, 0),
                f"{name}: rule `{rule}` reported {counts[rule]} findings, "
                f"expected {expectations.get(rule, 0)}.\nAll findings:\n"
                f"{rendered or '  (none)'}")

    def test_fixture_inventory_is_paired(self):
        """Every rule family has at least one fail and one pass fixture,
        and every fail fixture has a pass twin."""
        names = sorted(n for n in os.listdir(FIXTURE_DIR)
                       if n.endswith(".cc"))
        fails = {n[:-len("_fail.cc")] for n in names
                 if n.endswith("_fail.cc")}
        passes = {n[:-len("_pass.cc")] for n in names
                  if n.endswith("_pass.cc")}
        self.assertEqual(fails, passes,
                         "fail/pass fixtures must come in pairs")
        self.assertTrue(fails, "no fixtures found")

    def test_fail_fixtures_expect_findings(self):
        """A `_fail.cc` fixture that expects zero findings is a typo."""
        for name in sorted(os.listdir(FIXTURE_DIR)):
            if not name.endswith("_fail.cc"):
                continue
            _dest, expectations = parse_fixture(
                os.path.join(FIXTURE_DIR, name))
            self.assertTrue(
                expectations,
                f"{name}: fail fixture declares no analyzer-expect counts")


def _add_fixture_cases():
    for name in sorted(os.listdir(FIXTURE_DIR)):
        if not name.endswith(".cc"):
            continue

        def case(self, name=name):
            self.analyze_fixture(name)

        setattr(AnalyzerFixtureTests,
                f"test_{name[:-3]}", case)


_add_fixture_cases()


if __name__ == "__main__":
    unittest.main(verbosity=2)
