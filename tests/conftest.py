import warnings
from pathlib import Path

import pytest
from hypothesis import strategies as st
from hypothesis.errors import NonInteractiveExampleWarning

from constella import fixtures
from constella.enumerate import (
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)

PROJECT_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = PROJECT_ROOT / "fixtures"


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    """Build hypothesis's unicode tables before the first test runs, once
    hypothesis's own plugin has finished its set-up.

    The first st.text() draw builds them (the category map and the set of
    utf-8 encodable characters, cached under .hypothesis/unicode_data),
    which takes seconds on a fresh checkout and would fail the too_slow
    health check of whichever test draws first.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonInteractiveExampleWarning)
        st.text(min_size=1).example()


@pytest.fixture(scope="session")
def all_fixtures():
    return fixtures.all_fixtures()


@pytest.fixture(scope="session")
def lr_fixtures():
    return fixtures.lr_fixtures()


@pytest.fixture(scope="session")
def census_lrs_2():
    return list(enumerate_lr_semigroupoids(1)) + list(enumerate_lr_semigroupoids(2))


@pytest.fixture(scope="session")
def census_lic_2():
    return list(enumerate_li_constellations(1)) + list(enumerate_li_constellations(2))


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR
