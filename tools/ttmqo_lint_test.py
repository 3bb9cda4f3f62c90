#!/usr/bin/env python3
"""Tests for tools/ttmqo_lint against the fixture tree in
tools/lint_fixtures/.  Stdlib only; wired into ctest under the `unit`
label.  Each rule must fire on its bad fixture, stay quiet on the clean
fixture, and honor both escape hatches (inline annotation, allowlist)."""

import os
import re
import subprocess
import sys
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
LINT = os.path.join(TOOLS_DIR, "ttmqo_lint")
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")
FIXTURE_ALLOW = os.path.join(FIXTURES, "allow")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def findings(stdout):
    """Parses `path:line: [rule] ...` lines into (path, line, rule)."""
    out = []
    for line in stdout.splitlines():
        m = re.match(r"(.+?):(\d+): \[([a-z-]+)\]", line)
        if m:
            out.append((m.group(1), int(m.group(2)), m.group(3)))
    return out


class FixtureTest(unittest.TestCase):
    def lint_fixture(self, *paths, allowlist=False):
        args = ["--root", FIXTURES]
        if allowlist:
            args += ["--allowlist-dir", FIXTURE_ALLOW]
        code, stdout, _ = run_lint(*args, *paths)
        return code, findings(stdout)

    def test_wall_clock_rule_fires(self):
        code, found = self.lint_fixture("src/core/wall_clock_bad.cc")
        self.assertEqual(code, 1)
        rules = {r for (_, _, r) in found}
        self.assertEqual(rules, {"wall-clock"})
        # system_clock, steady_clock, high_resolution_clock, time(NULL),
        # rand(), srand(), getenv() — one finding each; none from the
        # comment or the string literal.
        self.assertEqual(len(found), 7)

    def test_unordered_container_rule_fires(self):
        code, found = self.lint_fixture("src/query/unordered_bad.cc")
        self.assertEqual(code, 1)
        rules = {r for (_, _, r) in found}
        self.assertIn("unordered-container", rules)
        unordered = [f for f in found if f[2] == "unordered-container"]
        # The two member declarations (the #include lines carry no std::).
        self.assertEqual(len(unordered), 2)

    def test_raw_alloc_rule_fires_only_in_hot_path(self):
        code, found = self.lint_fixture("src/net/raw_alloc_bad.cc")
        self.assertEqual(code, 1)
        raw = [f for f in found if f[2] == "raw-alloc"]
        # new, malloc, calloc, free x2; placement new and #include exempt.
        self.assertEqual(len(raw), 5)
        # The same content outside a hot-path file must not fire: the
        # wall_clock fixture lives in src/core but is not a hot-path file.
        _, other = self.lint_fixture("src/core/wall_clock_bad.cc")
        self.assertFalse([f for f in other if f[2] == "raw-alloc"])

    def test_raw_alloc_rule_covers_tinydb(self):
        # TinyDB's per-message code is a hot-path glob like src/net.
        code, found = self.lint_fixture("src/tinydb/raw_alloc_bad.cc")
        self.assertEqual(code, 1)
        raw = [f for f in found if f[2] == "raw-alloc"]
        # new, malloc, free; placement new and #include exempt.
        self.assertEqual(len(raw), 3)

    def test_throwing_dtor_rule_fires(self):
        code, found = self.lint_fixture("src/core/throwing_dtor_bad.cc")
        self.assertEqual(code, 1)
        dtor = [f for f in found if f[2] == "throwing-dtor"]
        # One throw-in-body, one noexcept(false) declaration.
        self.assertEqual(len(dtor), 2)

    def test_orphan_header_rule_fires(self):
        # Only orphan.h: its own .cc, a test and the umbrella include it.
        # used.h has a bench includer; the umbrella src/ttmqo.h is exempt.
        code, found = self.lint_fixture("src/util", "src/ttmqo.h")
        self.assertEqual(code, 1)
        self.assertEqual(found, [("src/util/orphan.h", 1, "orphan-header")])

    def test_clean_fixture_is_clean(self):
        code, found = self.lint_fixture("src/core/clean.cc")
        self.assertEqual(code, 0)
        self.assertEqual(found, [])

    def test_inline_annotation_suppresses(self):
        code, found = self.lint_fixture("src/core/allow_inline.cc")
        self.assertEqual(code, 0, f"unexpected findings: {found}")

    def test_allowlist_suppresses(self):
        # Without the allowlist the violation fires ...
        code, found = self.lint_fixture("src/sweep/allowlisted.cc")
        self.assertEqual(code, 1)
        self.assertEqual({r for (_, _, r) in found}, {"wall-clock"})
        # ... with it the file is exempt.
        code, found = self.lint_fixture(
            "src/sweep/allowlisted.cc", allowlist=True)
        self.assertEqual(code, 0, f"unexpected findings: {found}")

    def test_whole_fixture_tree_scan(self):
        """Directory walk + allowlist: exactly the un-suppressed findings."""
        code, found = self.lint_fixture(allowlist=True)
        self.assertEqual(code, 1)
        by_rule = {}
        for _, _, rule in found:
            by_rule[rule] = by_rule.get(rule, 0) + 1
        self.assertEqual(by_rule, {
            "wall-clock": 7,
            "unordered-container": 2,
            "raw-alloc": 8,
            "throwing-dtor": 2,
            "orphan-header": 1,
        })

    def test_list_rules(self):
        code, stdout, _ = run_lint("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("wall-clock", "unordered-container", "raw-alloc",
                     "throwing-dtor", "orphan-header"):
            self.assertIn(rule, stdout)


class RealTreeTest(unittest.TestCase):
    def test_repository_is_lint_clean(self):
        """The gating property: the actual tree has zero findings."""
        code, stdout, stderr = run_lint("--root", REPO_ROOT)
        self.assertEqual(code, 0, f"tree not lint-clean:\n{stdout}{stderr}")


if __name__ == "__main__":
    unittest.main()
