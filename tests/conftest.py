import faulthandler
import os
import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# A test that runs past this limit, its fixtures' setup and teardown
# included, dumps every thread's traceback and ends the run, so a loop that
# never exits cannot stall the suite.  The limit sits far above the slowest
# test, the first acceptance test, which sets up the 15 s battery.
TEST_TIME_LIMIT_S = 300
TERMINAL_STDERR = pytest.StashKey()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output capture is off,
    # so the traceback is seen rather than captured with the test's output
    config.stash[TERMINAL_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[TERMINAL_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # a hook, not an autouse fixture: that would be armed only after the
    # module and session fixtures it shares a setup with
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=item.config.stash[TERMINAL_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
