import faulthandler
import os
import sys

import pytest

from isotypic import (
    JacobianDecomposer,
    compute_character_table,
    galois_orbits,
)
from isotypic.fixtures import corpus, order24_group, order80_group
from worked_examples import order80_field, order80_rep


HANG_SECONDS = 60
"""A test still running after this long dumps every thread's traceback and
ends the run, so a hang fails the suite instead of stalling it; the slowest
test takes a few seconds."""

_stderr = []  # a copy of the real stderr: output capture redirects fd 2 during a test


def pytest_configure(config):
    _stderr.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    os.close(_stderr.pop())


@pytest.fixture(autouse=True)
def _hang_guard():
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=_stderr[0])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def g80():
    return order80_group()


@pytest.fixture(scope="session")
def t80(g80):
    return compute_character_table(g80)


@pytest.fixture(scope="session")
def orbits80(t80):
    return galois_orbits(t80)


@pytest.fixture(scope="session")
def quad80(orbits80):
    """The quadratic-field orbit of the two degree-4 irrationals."""
    (orbit,) = [o for o in orbits80 if o.degree == 4 and len(o.char_indices) == 2]
    return orbit


@pytest.fixture(scope="session")
def field80():
    return order80_field()


@pytest.fixture(scope="session")
def rep80(g80, t80, field80):
    return order80_rep(g80, t80, field80)


@pytest.fixture(scope="session")
def dec80(t80, orbits80, quad80):
    key = tuple(i + 1 for i in quad80.char_indices)
    return JacobianDecomposer(t80, orbits=orbits80, schur_assertions={key: 2})


@pytest.fixture(scope="session")
def g24():
    return order24_group()


@pytest.fixture(scope="session")
def t24(g24):
    return compute_character_table(g24)


@pytest.fixture(scope="session")
def dec24(t24):
    return JacobianDecomposer(t24)


@pytest.fixture(scope="session")
def small_groups():
    return corpus()


@pytest.fixture(scope="session")
def small_tables(small_groups):
    return {name: compute_character_table(g) for name, g in small_groups.items()}


@pytest.fixture(scope="session")
def small_orbits(small_tables):
    return {name: galois_orbits(t) for name, t in small_tables.items()}
