import pytest

from cfgprint import similarity

_acceptance_outcomes: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance.py" in item.nodeid:
        _acceptance_outcomes[item.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        terminalreporter.write_line(
            f"{name}: {_acceptance_outcomes[name].upper()}"
        )


@pytest.fixture
def built_matrices(monkeypatch):
    """Wrap `similarity.distance_matrix` for the test and return the
    list each call appends its (left id, right id) to."""
    built = []
    plain = similarity.distance_matrix

    def distance_matrix(a, b):
        built.append((a.program_id, b.program_id))
        return plain(a, b)

    monkeypatch.setattr(similarity, "distance_matrix", distance_matrix)
    return built
