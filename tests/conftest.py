"""Tier-1 fixtures: a hang watchdog around every test.

A test still running after :data:`HANG_TIMEOUT_S` seconds dumps every
thread's stack, its own frame on top, to the terminal and ends the run
with a non-zero exit, so a stall names its test instead of holding CI
until its timeout.  No tier-1 test takes more than a few seconds.  The
watchdog is scoped to ``tests/``: the benchmark regenerations under
``benchmarks/`` run for minutes.
"""

import faulthandler
import os
import sys

import pytest

HANG_TIMEOUT_S = 120

#: A copy of the terminal's stderr: a dump written into a capture buffer
#: would be lost when the run exits.
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def hang_watchdog(request):
    faulthandler.dump_traceback_later(
        HANG_TIMEOUT_S, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
