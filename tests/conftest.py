import numpy as np
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


@pytest.fixture
def row_reductions(monkeypatch):
    """Wrap `similarity.distance_matrix` for the test so each matrix it
    returns counts its row reductions (`min(axis=1)`), and return the
    counts: matrices built and row reductions taken."""
    counts = {"matrices": 0, "row_reductions": 0}
    plain = similarity.distance_matrix

    class CountingMatrix(np.ndarray):
        def min(self, axis=None, *args, **kwargs):
            if axis == 1:
                counts["row_reductions"] += 1
            return super().min(axis, *args, **kwargs)

    def distance_matrix(a, b):
        counts["matrices"] += 1
        return plain(a, b).view(CountingMatrix)

    monkeypatch.setattr(similarity, "distance_matrix", distance_matrix)
    return counts
