import os

import pytest

import yfrieze as yf

# Width-3 classification (the ten first diagonals), used as golden data in
# several suites.
W3_GOLDEN = (
    (1, 1, 2), (1, 2, 3), (1, 4, 5), (2, 1, 1), (2, 3, 2),
    (2, 9, 5), (3, 2, 1), (3, 8, 3), (5, 4, 1), (5, 9, 2),
)

# Coordinatewise maxima of the images' first diagonals: results within a
# box, since no proven box exists past width 4.
IMAGE_BOXES = {
    5: (11, 48, 64, 48, 11),
    6: (15, 80, 168, 168, 80, 15),
    7: (19, 125, 341, 441, 341, 125, 19),
}


def assert_same_text(actual, expected):
    """assert actual == expected for two whole texts, str or bytes.  On a
    mismatch it names their lengths and first differing line, where
    pytest's diff of two megabyte catalogs takes minutes."""
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    n = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    raise AssertionError(f"texts of lengths {len(actual)} and {len(expected)} differ first "
                         f"at line {n + 1}: {got[n:n + 1]!r} is not {want[n:n + 1]!r}")


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail("the test left a child process " + (f"{pid} unreaped" if pid else "running"))


@pytest.fixture(scope="session")
def w3_solutions():
    return yf.enumerate_w3()


@pytest.fixture(scope="session")
def w4_solutions():
    return yf.enumerate_w4()


@pytest.fixture(scope="session")
def y3_patterns(w3_solutions):
    return list(w3_solutions)


@pytest.fixture(scope="session")
def y4_patterns(w4_solutions):
    return list(w4_solutions)


@pytest.fixture(scope="session")
def frieze3():
    return yf.enumerate_frieze(3)


@pytest.fixture(scope="session")
def frieze4():
    return yf.enumerate_frieze(4)
