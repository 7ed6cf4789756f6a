import pytest

from riccati2d import DomainSpec, Point, constant_field


@pytest.fixture
def unit_square():
    return DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41, Point(0.0, 0.0))


@pytest.fixture
def centered_square():
    return DomainSpec(-1.2, 1.2, -1.2, 1.2, 41, 41, Point(0.0, 0.0))


def make_problem(domain, nu_value=1.0):
    """The constant potential nu_value on ``domain``: all that fixes an equation."""
    return constant_field(nu_value, domain)
