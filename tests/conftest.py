"""Shared fixtures; the heavier code constructions are session-scoped."""

from __future__ import annotations

import pytest
from hypothesis import settings

from grclib.fields import field_create
from grclib.grc import distance_profile
from grclib import presets

# every run draws the same examples, and none replays from a local database
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def gf2():
    return field_create(2)


@pytest.fixture(scope="session")
def gf3():
    return field_create(3)


@pytest.fixture(scope="session")
def gf11():
    return field_create(11)


@pytest.fixture(scope="session")
def golay(gf2):
    return presets.binary_golay()


@pytest.fixture(scope="session")
def ternary_golay(gf3):
    return presets.ternary_golay()


@pytest.fixture(scope="session")
def simplex(gf2):
    return presets.simplex_15_4()


@pytest.fixture(scope="session")
def golay_shift4():
    return presets.golay_type1_shift(4)


@pytest.fixture(scope="session")
def golay_mixed():
    return presets.golay_type2_mixed()


@pytest.fixture(scope="session")
def golay_shift4_profile(golay_shift4):
    return distance_profile(golay_shift4)


@pytest.fixture(scope="session")
def golay_mixed_profile(golay_mixed):
    return distance_profile(golay_mixed)
