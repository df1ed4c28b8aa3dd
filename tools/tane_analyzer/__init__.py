"""tane-analyzer: semantic checks for the contracts tane-lint's regexes
cannot see — atomics memory-order discipline (with per-file lock-free
protocol contracts), async-signal-safety of the postmortem path, hash-order
determinism in output-affecting translation units, and partition-handle
pairing.

A token-level C++ reader (`micro_frontend`) lowers the sources to one IR
(`model.SourceFile`) with no dependencies beyond Python, so the gate runs
everywhere; the rules (`rule_*.py`) only see the IR. See DESIGN.md §16 for
the protocol invariants enforced here.
"""

__all__ = ["driver", "model"]
