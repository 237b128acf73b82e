"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process unreaped")


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test that leaves a file descriptor open."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    left = set(os.listdir("/proc/self/fd")) - before
    if left:
        pytest.fail(f"the test left file descriptors open: {sorted(left)}")
