import pytest

from cplogic import corpus
from cplogic.core import Atom


def interp(names: str) -> frozenset:
    """The atoms named in a space-separated string."""
    return frozenset(Atom(n) for n in names.split()) if names else frozenset()


@pytest.fixture
def suzy():
    return corpus.theory("suzy_billy")


@pytest.fixture
def bogus():
    return corpus.theory("bogus_prevention")


# Collected pass/fail per acceptance criterion, printed as a summary so
# a plain `pytest` run shows one line per criterion.
_RESULTS: dict = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, title = marker.args
    entry = _RESULTS.setdefault(number, (title, []))
    entry[1].append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_RESULTS):
        title, passed = _RESULTS[number]
        status = "PASS" if passed and all(passed) else "FAIL"
        terminalreporter.write_line(f"criterion {number:>2}: {status}  {title}")
