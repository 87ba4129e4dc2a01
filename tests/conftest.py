import signal

import pytest

from helpers import named_family_corpus, random_connected_corpus


# Seconds a test may run; the slowest takes a few.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TIME_LIMIT_S`` under its own name, where
    SIGALRM exists, rather than stall the whole run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def family_corpus():
    return named_family_corpus(max_n=12)


@pytest.fixture(scope="session")
def random_corpus():
    return random_connected_corpus(count=200, n_range=(3, 12))


@pytest.fixture(scope="session")
def nullity_of():
    """Memoized oracle nullity, shared so corpus-wide criteria pay for it once."""
    from stabdim.oracle import local_algebra_nullity

    cache = {}

    def compute(g):
        key = (g.n, g.adj)
        if key not in cache:
            cache[key] = local_algebra_nullity(g)
        return cache[key]

    return compute
