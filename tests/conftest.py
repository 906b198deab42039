import random
import sys

import pytest

from fdkg import groups
from fdkg.groups import TEST_GROUP


@pytest.fixture
def group():
    return TEST_GROUP


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# the `counts` key of the affine additions that each caller of
# `groups._affine_sums` asks for
AFFINE_SUM_KEYS = {"_odd_multiples": "table", "multi_exps": "row", "_comb_tables": "comb",
                   "mul": "mul", "muls": "mul"}


@pytest.fixture
def counts(monkeypatch):
    """The curve kernel's work while the test runs, by kind: doublings
    (`_jac_double` calls: one per row of the Straus loop, plus comb tables'
    teeth); mixed additions, one per point of a `_straus` call; affine
    additions or doublings, one per pair passed to `_affine_sums`, under
    the key of the function that asks for them: `table` for odd-multiple
    tables, `row` for the row sums of `multi_exps`, `comb` for comb tables
    and `mul` for `mul` and `muls`; and `inversion`, the field inversions, one per
    `_inverses` call (Montgomery's trick, which every inversion of the
    kernel goes through).  They do not depend on the host."""
    counts = dict.fromkeys(("double", "add", *AFFINE_SUM_KEYS.values(), "inversion"), 0)

    def wrap(name, count):
        def counted(*args, inner=getattr(groups, name)):
            count(sys._getframe(1).f_code.co_name, *args)
            return inner(*args)
        monkeypatch.setattr(groups, name, counted)

    def add(key, n):
        counts[key] += n

    wrap("_straus", lambda _, rows, *__: add("add", sum(map(len, rows))))
    wrap("_affine_sums", lambda caller, pairs, *_: add(AFFINE_SUM_KEYS[caller], len(pairs)))
    wrap("_jac_double", lambda *_: add("double", 1))
    wrap("_inverses", lambda *_: add("inversion", 1))
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
