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
    """The curve kernel's point operations while the test runs, by kind:
    doublings (`_jac_double` calls: one per row of the Straus loop, plus
    comb tables); mixed additions, one per point of a `_straus` call;
    Jacobian additions (`_jac_add`, comb tables); and table operations, one
    per value `_inverses` inverts (an affine addition or doubling of an
    odd-multiple table, or a comb table point made affine).  They do not
    depend on the host."""
    counts = {"double": 0, "add": 0, "jac_add": 0, "table": 0}

    def wrap(name, count):
        def counted(*args, inner=getattr(groups, name)):
            count(*args)
            return inner(*args)
        monkeypatch.setattr(groups, name, counted)

    wrap("_straus", lambda rows, *_: counts.update(add=counts["add"] + sum(map(len, rows))))
    wrap("_inverses", lambda values, p: counts.update(table=counts["table"] + len(values)))
    for name, key in (("_jac_double", "double"), ("_jac_add", "jac_add")):
        wrap(name, lambda *_, key=key: counts.update({key: counts[key] + 1}))
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
