#!/usr/bin/env python3
"""Golden-fixture tests for tools/lint_invariants.py.

Each rule has at least one fixture that must fire and one that must pass
(allow-tagged or structurally clean), so a linter regression — a rule that
stops firing, or one that starts flagging sanctioned exceptions — fails
this suite. The suite also asserts that the real source tree lints clean,
which is the same contract CI enforces.

Run directly (python3 tests/lint_test.py) or through ctest (lint_test).
"""

import os
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO_ROOT, "tools", "lint_invariants.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

ALL_RULES = [
    "wall-clock",
    "serving-sleep",
    "serving-clock-events",
    "ambient-random",
    "hotpath-alloc",
    "locale-dependent",
    "guarded-mutex",
    "raw-mutex",
    "atomic-shared-ptr",
    "atomic-order",
]


def run_linter(*args):
    proc = subprocess.run(
        [sys.executable, LINTER, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


class ListRulesTest(unittest.TestCase):
    def test_lists_every_rule(self):
        code, out, _ = run_linter("--list-rules")
        self.assertEqual(code, 0)
        for rule in ALL_RULES:
            self.assertIn(f"{rule}:", out)


class FiringFixtureTest(unittest.TestCase):
    """One violating fixture per rule: the rule must fire on it."""

    def assert_fires(self, path, rule, expected_lines):
        code, out, _ = run_linter(path)
        self.assertEqual(code, 1, f"expected a violation in {path}:\n{out}")
        self.assertIn(f"[{rule}]", out)
        for line in expected_lines:
            self.assertIn(f"{path}:{line}:", out)

    def test_wall_clock_in_core(self):
        self.assert_fires(fixture("sim", "bad_wallclock.cc"), "wall-clock",
                          [8, 14])

    def test_wall_clock_tag_not_honored_in_core(self):
        code, out, _ = run_linter(fixture("sim", "bad_wallclock.cc"))
        self.assertEqual(code, 1)
        self.assertIn("not honored inside the deterministic core", out)

    def test_wall_clock_untagged_outside_core(self):
        self.assert_fires(fixture("serving", "bad_wallclock.cc"),
                          "wall-clock", [6])

    def test_sleep_on_serving_path_even_when_tagged(self):
        path = fixture("serving", "bad_sleep.cc")
        self.assert_fires(path, "serving-sleep", [8, 13])
        code, out, _ = run_linter(path)
        self.assertIn("no allow tag admits it", out)
        # The tags are honored for the wall-clock rule itself; only the
        # sleep rule ignores them.
        self.assertNotIn("[wall-clock]", out)

    def test_clock_event_on_serving_path_even_when_tagged(self):
        path = fixture("serving", "bad_clock_event.cc")
        self.assert_fires(path, "serving-clock-events", [13, 20])
        code, out, _ = run_linter(path)
        self.assertIn("a hint carries its ready time", out)
        # A read of virtual time is what the serving layer may do.
        self.assertNotIn(f"{path}:8:", out)

    def test_ambient_random_in_core(self):
        self.assert_fires(fixture("sim", "bad_random.cc"), "ambient-random",
                          [5])

    def test_hotpath_alloc(self):
        self.assert_fires(fixture("common", "bad_hotpath.cc"),
                          "hotpath-alloc", [8, 9])

    def test_locale_dependent(self):
        self.assert_fires(fixture("common", "bad_locale.cc"),
                          "locale-dependent", [5, 9])

    def test_guarded_mutex(self):
        self.assert_fires(fixture("common", "bad_guarded.cc"),
                          "guarded-mutex", [16])

    def test_raw_mutex(self):
        self.assert_fires(fixture("common", "bad_rawmutex.cc"), "raw-mutex",
                          [9, 14])

    def test_atomic_shared_ptr(self):
        path = fixture("common", "bad_atomic_shared_ptr.cc")
        self.assert_fires(path, "atomic-shared-ptr", [13, 17, 18, 23])
        # Member calls on std::atomic objects and comment mentions stay
        # quiet: exactly the four free calls fire.
        _, out, _ = run_linter(path)
        self.assertEqual(out.count("[atomic-shared-ptr]"), 4, out)

    def test_atomic_order_untagged(self):
        self.assert_fires(fixture("common", "bad_atomic.cc"),
                          "atomic-order", [10, 15])

    def test_atomic_order_bare_tag(self):
        code, out, _ = run_linter(fixture("common", "bad_atomic_bare.cc"))
        self.assertEqual(code, 1)
        self.assertIn("[atomic-order]", out)
        self.assertIn("tag has no reason", out)
        for line in (10, 15):
            self.assertIn(
                f"{fixture('common', 'bad_atomic_bare.cc')}:{line}:", out)

    def test_malformed_tags(self):
        code, out, _ = run_linter(fixture("common", "bad_tag.cc"))
        self.assertEqual(code, 1)
        self.assertIn("needs a reason", out)
        self.assertIn("unknown rule 'no-such-rule'", out)


class PassingFixtureTest(unittest.TestCase):
    """One sanctioned fixture per rule: the linter must stay quiet."""

    def assert_clean(self, path):
        code, out, err = run_linter(path)
        self.assertEqual(code, 0, f"unexpected violations in {path}:\n{out}")
        self.assertEqual(out, "")

    def test_tagged_wall_clock_outside_core(self):
        self.assert_clean(fixture("serving", "tagged_wallclock.cc"))

    def test_tagged_ambient_random_outside_core(self):
        self.assert_clean(fixture("serving", "tagged_random.cc"))

    def test_clean_hotpath_body(self):
        self.assert_clean(fixture("common", "good_hotpath.cc"))

    def test_tagged_locale_and_comment_string_stripping(self):
        self.assert_clean(fixture("common", "tagged_locale.cc"))

    def test_guarded_and_tagged_mutexes(self):
        self.assert_clean(fixture("common", "good_guarded.cc"))

    def test_tagged_raw_mutex(self):
        self.assert_clean(fixture("common", "tagged_rawmutex.cc"))

    def test_tagged_atomic_placements(self):
        # Same-line, block-above, wrapped-call, and block-covers-run tag
        # placements all pass.
        self.assert_clean(fixture("common", "tagged_atomic.cc"))


class SourceTreeTest(unittest.TestCase):
    def test_src_lints_clean(self):
        code, out, _ = run_linter(os.path.join(REPO_ROOT, "src"))
        self.assertEqual(code, 0, f"src/ must lint clean:\n{out}")

    def test_annotated_files_really_use_wrappers(self):
        # The conversion away from raw std::mutex must not quietly regress:
        # outside common/mutex.h, no src file may even mention the raw
        # primitives in code (comment mentions are fine — the linter strips
        # them — this asserts the linter's view, not a grep).
        code, out, _ = run_linter(os.path.join(REPO_ROOT, "src"))
        self.assertNotIn("[raw-mutex]", out)


if __name__ == "__main__":
    unittest.main()
