import pytest

import ringline as rl

ACCEPTANCE_RESULTS = []


def record_acceptance(num, title, ok, detail=""):
    """Collect one pass/fail line per acceptance criterion; printed in the
    terminal summary so the verdicts survive output capturing."""
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{mark}] {title}" + (f" ({detail})" if detail
                                                      else "")
    ACCEPTANCE_RESULTS.append((num, line))
    return ok


def counterparts(pmap, p):
    """The Jacobson counterparts of p: the other points of its fibre under
    an induced point map."""
    return {q for q, image in pmap.items() if image == pmap[p] and q != p}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def r_club():
    return rl.build_ring("gf(2)[x]/(x^3-x)")


@pytest.fixture(scope="session")
def r_tilde():
    return rl.build_ring("gf(2)[x]/(x^2-x)")


@pytest.fixture(scope="session")
def r_tilde_prod():
    return rl.build_ring("gf(2)xgf(2)")


@pytest.fixture(scope="session")
def gf4():
    return rl.build_ring("gf(4)")


@pytest.fixture(scope="session")
def club_catalog(r_club):
    return rl.enumerate_points(r_club)


@pytest.fixture(scope="session")
def tilde_catalog(r_tilde):
    return rl.enumerate_points(r_tilde)


@pytest.fixture(scope="session")
def pentagram_search():
    """Full exhaustive pentagram search; shared because it is the one
    genuinely expensive computation in the suite."""
    return rl.search_pentagrams()
