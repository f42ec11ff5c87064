import pytest

import flowdistill as fd


@pytest.fixture(scope="session")
def sched():
    """The schedule every run uses."""
    return fd.SCHEDULE


@pytest.fixture(scope="session")
def dims():
    """The widths every run uses."""
    return fd.NetDims()
