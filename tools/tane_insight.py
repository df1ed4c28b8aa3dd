#!/usr/bin/env python3
"""Comparison tooling over TANE JSON artifacts.

Usage:
  tane_insight.py diff A.json B.json [--rel-tol=R]

`diff` compares two artifacts of the same kind — two run reports
(--report), two BENCH_micro_partition.json files, two
BENCH_parallel_scaling.json files, or two static-analysis baselines
(tools/lint_baseline.json / tools/analyzer_baseline.json, whose
content-addressed finding ids make the diff a findings changelog:
fixed on one side, new on the other) — and classifies every difference:

  * structural differences (a key present on one side only, or a type
    change) are always reported;
  * numeric leaves that describe *measurements* — timings, rates,
    hardware counters, overhead ratios — must agree within the relative
    tolerance band (default 0.5, i.e. 50%: wall-clock noise between two
    runs on a shared CI box is real); a `*seconds` leaf also agrees when
    the two values differ by at most 5 ms, since a relative band says
    nothing about a phase that takes a millisecond or two;
  * every other leaf — search counters, configuration, results, level
    tables — must match exactly: two runs of the same configuration are
    deterministic by design, and a drift in partition_products between
    them is a bug, not noise.

Exit status: 0 when the artifacts agree (within band), 1 when any
difference is found, 2 on usage errors. tools/check.sh runs this as a
soft gate over back-to-back obs-smoke reports; CI treats a nonzero exit
as a warning, not a failure, because the band on a loaded machine is a
judgement call, not a law.
"""

import re
import sys

import jsonio

# A numeric leaf is "noisy" (banded, not exact) when its dotted path
# matches any of these. Everything here is a measurement of *this
# process on this machine right now*; everything else in the artifacts
# is a deterministic function of (dataset, config).
NOISY_PATH = re.compile(
    r"seconds|_us\b|per_sec|ratio|speedup|overhead|ipc"
    r"|cycles|instructions|cache_references|cache_misses|branch_misses"
    r"|resident|wall|worker|elapsed|dropped_events|buffered_events")

# Absolute agreement floor for leaves whose name ends in `seconds`: a
# millisecond-scale phase (timing.other_seconds reads 1-3 ms) moves by more
# than the relative band between two clean runs.
SECONDS_FLOOR = 0.005

# Paths ignored outright: environment identity, not run behaviour.
IGNORED_PATH = re.compile(r"\bpath\b|hostname|timestamp")


def fail_usage(message):
    print(f"tane_insight: {message}", file=sys.stderr)
    print(__doc__.strip(), file=sys.stderr)
    sys.exit(2)


def load(path):
    def fail(message):
        print(f"tane_insight: FAIL: {message}", file=sys.stderr)
        sys.exit(2)
    return jsonio.load_json(path, fail)


def classify(path_text):
    if IGNORED_PATH.search(path_text):
        return "ignored"
    if NOISY_PATH.search(path_text):
        return "noisy"
    return "exact"


def within_band(a, b, rel_tol, abs_floor=0.0):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= max(rel_tol * scale, abs_floor)


def diff_docs(a, b, rel_tol, path="", problems=None):
    if problems is None:
        problems = []
    where = path or "<root>"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}" if path else str(key)
            if key not in a:
                problems.append(f"{child}: only in B")
            elif key not in b:
                problems.append(f"{child}: only in A")
            else:
                diff_docs(a[key], b[key], rel_tol, child, problems)
        return problems
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{where}: length {len(a)} vs {len(b)}")
            return problems
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            diff_docs(item_a, item_b, rel_tol, f"{path}[{index}]", problems)
        return problems
    # bool is an int in Python; compare it as an exact value, never banded.
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        kind = classify(where)
        if kind == "ignored":
            return problems
        if kind == "noisy":
            floor = SECONDS_FLOOR if where.endswith("seconds") else 0.0
            if not within_band(a, b, rel_tol, floor):
                beyond = f" and the {floor * 1000:g} ms floor" if floor else ""
                problems.append(f"{where}: {a} vs {b} outside the "
                                f"±{rel_tol:.0%} band{beyond}")
        elif a != b:
            problems.append(f"{where}: {a} != {b} (deterministic field)")
        return problems
    if type(a) is not type(b):
        problems.append(f"{where}: type {type(a).__name__} vs "
                        f"{type(b).__name__}")
        return problems
    if a != b and classify(where) != "ignored":
        problems.append(f"{where}: {a!r} != {b!r}")
    return problems


def artifact_kind(doc):
    if "schema_version" in doc and "metrics" in doc:
        return f"run report (schema {doc['schema_version']})"
    if doc.get("benchmark"):
        return f"benchmark {doc['benchmark']!r}"
    if isinstance(doc.get("findings"), list):
        return f"static-analysis baseline ({doc.get('tool', 'tane-lint')})"
    return "unknown artifact"


def diff_baselines(doc_a, doc_b, paths):
    """Set-diff two lint/analyzer baselines. Finding ids are content-
    addressed (`rule:path:normalized-line`), so this reads as a findings
    changelog: entries only in A were fixed, entries only in B are new."""
    set_a = set(doc_a["findings"])
    set_b = set(doc_b["findings"])
    fixed = sorted(set_a - set_b)
    new = sorted(set_b - set_a)
    by_rule = {}
    for identity in set_b:
        by_rule[identity.split(":", 1)[0]] = \
            by_rule.get(identity.split(":", 1)[0], 0) + 1
    if not fixed and not new:
        print(f"tane_insight: baseline diff OK — {paths[0]} and "
              f"{paths[1]} carry the same {len(set_a)} finding(s)")
        return 0
    print(f"tane_insight: baselines differ: {len(fixed)} fixed, "
          f"{len(new)} new ({paths[0]} -> {paths[1]})")
    for identity in fixed:
        print(f"  fixed: {identity}")
    for identity in new:
        print(f"  new:   {identity}")
    if by_rule:
        summary = ", ".join(f"{rule}={count}"
                            for rule, count in sorted(by_rule.items()))
        print(f"  remaining in {paths[1]}: {summary}")
    return 1


def run_diff(argv):
    rel_tol = 0.5
    paths = []
    for arg in argv:
        if arg.startswith("--rel-tol="):
            try:
                rel_tol = float(arg.split("=", 1)[1])
            except ValueError:
                fail_usage(f"bad --rel-tol value: {arg}")
            if rel_tol < 0:
                fail_usage("--rel-tol must be >= 0")
        elif arg.startswith("--"):
            fail_usage(f"unknown flag {arg}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        fail_usage("diff needs exactly two artifact paths")
    doc_a, doc_b = load(paths[0]), load(paths[1])
    kind_a, kind_b = artifact_kind(doc_a), artifact_kind(doc_b)
    if kind_a != kind_b:
        print(f"tane_insight: comparing different kinds: {kind_a} vs "
              f"{kind_b}", file=sys.stderr)
        return 1
    if kind_a.startswith("static-analysis baseline"):
        return diff_baselines(doc_a, doc_b, paths)
    problems = diff_docs(doc_a, doc_b, rel_tol)
    if problems:
        print(f"tane_insight: {len(problems)} difference(s) between "
              f"{paths[0]} and {paths[1]} ({kind_a}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"tane_insight: diff OK — {paths[0]} and {paths[1]} agree "
          f"({kind_a}, noisy fields within ±{rel_tol:.0%})")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "diff":
        return run_diff(argv[2:])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
