import random

import pytest

from fdkg import groups
from fdkg.groups import TEST_GROUP


@pytest.fixture
def group():
    return TEST_GROUP


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the curve kernel's point operations while the test runs, by
    kind: doublings, mixed additions (Jacobian plus affine) and Jacobian
    additions.  They do not depend on the host."""
    counts = {"double": 0, "add": 0, "jac_add": 0}
    for name, key in (("_jac_double", "double"), ("_jac_add_affine", "add"),
                      ("_jac_add", "jac_add")):
        def counted(*args, inner=getattr(groups, name), key=key):
            counts[key] += 1
            return inner(*args)
        monkeypatch.setattr(groups, name, counted)
    return counts


_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        _acceptance_results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        label = name.removeprefix("test_").replace("_", "-")
        status = "PASS" if _acceptance_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}: {status}")
