"""Shared pytest hooks.

The acceptance tests record one status line per criterion; echo them in a
summary section so the full run always ends with the eleven lines, even
though passing tests' stdout is captured.

The hypothesis properties run derandomized: each draws the same examples
on every run, so a property failure shows on every run or on none.
"""

import sys

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
