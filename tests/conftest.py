import time

import pytest

from delpezzo.search import brute_force_enumerate, structured_enumerate


@pytest.fixture(scope="session")
def enumeration_150():
    """Full-scale oracle run, with its wall time."""
    t0 = time.monotonic()
    records = brute_force_enumerate(1, 10, 150)
    elapsed = time.monotonic() - t0
    return records, elapsed


@pytest.fixture(scope="session")
def structured_150():
    out = {}
    for index in range(1, 11):
        out[index] = structured_enumerate(index, 150)
    return out


@pytest.fixture(scope="session")
def enumeration_60_both():
    brute = {i: brute_force_enumerate(i, i, 60) for i in range(1, 11)}
    structured = {i: structured_enumerate(i, 60) for i in range(1, 11)}
    return brute, structured
