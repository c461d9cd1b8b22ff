#!/usr/bin/env python3
"""Unit tests for scripts/lint.py (DESIGN.md §10.3).

Runs the linter over two fixture trees: `clean` must produce zero findings
(it exercises the passing form of every rule, including both waiver
spellings), `dirty` must produce exactly the expected finding per rule.
Finally the real repo must lint clean, so a regression in either the rules
or the tree fails here before it fails in CI.

Usage: lint_test.py [--root REPO_ROOT]
"""

import argparse
import os
import subprocess
import sys


def run_lint(lint, src, design):
    return subprocess.run(
        [sys.executable, lint, "--src", src, "--design", design],
        capture_output=True, text=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    args = parser.parse_args()
    lint = os.path.join(args.root, "scripts", "lint.py")
    fixtures = os.path.join(args.root, "tests", "lint", "fixtures")

    failures = []

    def check(name, ok, detail=""):
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append(name)
            if detail:
                print(detail)

    clean = run_lint(lint, os.path.join(fixtures, "clean", "src"),
                     os.path.join(fixtures, "clean", "DESIGN.md"))
    check("clean fixture exits 0", clean.returncode == 0,
          clean.stdout + clean.stderr)
    check("clean fixture reports OK", "lint.py: OK" in clean.stdout)

    dirty = run_lint(lint, os.path.join(fixtures, "dirty", "src"),
                     os.path.join(fixtures, "dirty", "DESIGN.md"))
    check("dirty fixture exits 1", dirty.returncode == 1,
          dirty.stdout + dirty.stderr)
    # One finding per violation: raw mutex + unannotated util::Mutex,
    # a declaration without [[nodiscard]], a naked new, an intrinsic
    # include outside src/train/simd/, the failpoint drift in both
    # directions (site missing from table, stale table row), three raw
    # std:: locking tokens outside src/util/ (the std::mutex member, an
    # unguarded-waived local, and its lock_guard site), and the lock-class
    # drift in all directions (classless mutex, class missing from the
    # table, constant mismatch, stale table row), and two orphan headers
    # (bad.h, which nothing includes, and lonely.h, included only by its
    # own .cc and a test).
    for tag, expected in [("[mutex]", 2), ("[nodiscard]", 1),
                          ("[naked-new]", 1), ("[simd-include]", 1),
                          ("[failpoint]", 2), ("[raw-mutex]", 3),
                          ("[lock-class]", 4), ("[orphan-module]", 2)]:
        count = dirty.stdout.count(f": {tag}")  # "[[nodiscard]]" in the
        # message body would double-count a bare substring search.
        check(f"dirty fixture yields {expected} {tag} finding(s)",
              count == expected, dirty.stdout)
    check("stale table row is named", "demo.stale" in dirty.stdout)
    check("undocumented site is named", "demo.undocumented" in dirty.stdout)
    check("undeclared lock class is named", "demo.rogue" in dirty.stdout)
    check("stale lock-class row is named", "demo.stale_lock" in dirty.stdout)
    check("rank-constant mismatch is named", "kMismatch" in dirty.stdout)
    check("test-only module is named", "`lonely.h`" in dirty.stdout)

    repo = subprocess.run([sys.executable, lint, "--root", args.root],
                          capture_output=True, text=True)
    check("the repo itself lints clean", repo.returncode == 0,
          repo.stdout + repo.stderr)

    if failures:
        print(f"lint_test.py: {len(failures)} check(s) failed",
              file=sys.stderr)
        return 1
    print("lint_test.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
