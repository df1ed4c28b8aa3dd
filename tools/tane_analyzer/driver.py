"""tane-analyzer driver: rule runs, waivers, baseline, reporting.

Usage:
  tools/tane_analyzer [--root DIR] [--baseline FILE] [--update-baseline]
                      [--list]

Semantics mirror tools/tane_lint.py: findings are content-addressed
(`rule:path:normalized-line-text`), known ones live in
tools/analyzer_baseline.json, a `tane-analyzer: allow(<rule>)` comment on
the finding line or up to 3 lines above waives it, and the exit status is
non-zero only for findings absent from the baseline. Sources are lowered
by the built-in token-level reader (`micro_frontend`), which needs nothing
beyond Python, so the gate runs everywhere.
"""

import argparse
import json
import os
import re
import sys
import time

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)
import jsonio  # noqa: E402

from . import micro_frontend  # noqa: E402
from . import rule_atomics, rule_determinism, rule_handles, rule_signal  # noqa: E402

RULES = (rule_atomics, rule_signal, rule_determinism, rule_handles)
RULE_NAMES = ("atomics-contract", "signal-safety", "determinism",
              "handle-discipline")

WAIVER_RE = re.compile(r"tane-analyzer:\s*allow\(([a-z-]+)\)")
WAIVER_REACH = 3


class Finding:
    def __init__(self, rule, path, line_number, line_text, message):
        self.rule = rule
        self.path = path
        self.line_number = line_number
        self.message = message
        normalized = " ".join(line_text.split())
        self.identity = f"{rule}:{path}:{normalized}"

    def __str__(self):
        return (f"{self.path}:{self.line_number}: [{self.rule}] "
                f"{self.message}")


def _waived(rule, raw_lines, line_number):
    lo = max(0, line_number - 1 - WAIVER_REACH)
    for line in raw_lines[lo:line_number]:
        match = WAIVER_RE.search(line)
        if match and match.group(1) == rule:
            return True
    return False


def discover_files(root):
    files = []
    src = os.path.join(root, "src")
    for directory, _, names in sorted(os.walk(src)):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                files.append(
                    os.path.relpath(os.path.join(directory, name), root))
    return files


def analyze_tree(root):
    """Run all rules over `root`. Returns (findings, stats) where stats is
    {rule: count} plus {"files": N}. Waivers are already applied; baseline
    is the caller's business."""
    rel_paths = discover_files(root)
    program = micro_frontend.load_program(root, rel_paths)

    findings = []

    def emit(rule, source, line_number, message):
        raw_lines = source.raw_lines
        if line_number < 1 or line_number > len(raw_lines):
            line_text = ""
            line_number = max(1, min(line_number, len(raw_lines) or 1))
        else:
            line_text = raw_lines[line_number - 1]
        if _waived(rule, raw_lines, line_number):
            return
        findings.append(Finding(rule, source.rel_path, line_number,
                                line_text, message))

    for rule_module in RULES:
        rule_module.run(program, emit)

    stats = {name: 0 for name in RULE_NAMES}
    for finding in findings:
        stats[finding.rule] = stats.get(finding.rule, 0) + 1
    stats["files"] = len(rel_paths)
    return findings, stats


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: "
                             "tools/analyzer_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept the current findings as the baseline")
    parser.add_argument("--list", action="store_true",
                        help="print every finding, baselined or not")
    args = parser.parse_args(argv[1:])

    root = (os.path.abspath(args.root) if args.root
            else os.path.dirname(TOOLS_DIR))
    baseline_path = args.baseline or os.path.join(
        TOOLS_DIR, "analyzer_baseline.json")
    started = time.monotonic()
    findings, stats = analyze_tree(root)

    def fail(message):
        print(f"tane-analyzer: FAIL: {message}", file=sys.stderr)
        sys.exit(1)

    if args.update_baseline:
        document = {"comment":
                    "Accepted tane-analyzer findings; regenerate with "
                    "tools/tane_analyzer --update-baseline.",
                    "tool": "tane-analyzer",
                    "findings": sorted(f.identity for f in findings)}
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"tane-analyzer: baseline updated with {len(findings)} "
              "findings")
        return 0

    baseline = set()
    if os.path.exists(baseline_path):
        document = jsonio.load_json(baseline_path, fail)
        if not isinstance(document.get("findings"), list):
            fail(f"{baseline_path}: missing 'findings' array")
        baseline = set(document["findings"])

    new = [f for f in findings if f.identity not in baseline]
    stale = baseline - {f.identity for f in findings}
    shown = findings if args.list else new
    for finding in shown:
        print(finding, file=sys.stderr)

    elapsed = time.monotonic() - started
    for name in RULE_NAMES:
        print(f"tane-analyzer: {name:<17} {stats.get(name, 0)} findings")
    print(f"tane-analyzer: {stats['files']} files, {len(findings)} "
          f"findings ({len(findings) - len(new)} baselined, {len(new)} "
          f"new, {len(stale)} baseline entries now fixed) "
          f"in {elapsed:.2f}s")
    if stale:
        print("tane-analyzer: note: run --update-baseline to drop fixed "
              "entries", file=sys.stderr)
    if new:
        print("tane-analyzer: FAIL: new findings above; fix them, waive "
              "with `tane-analyzer: allow(<rule>)`, or --update-baseline",
              file=sys.stderr)
        return 1
    return 0
