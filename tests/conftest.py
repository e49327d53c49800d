import logging
import signal

import pytest
import ray

# the longest a test may run before it fails: pytest-timeout is not a
# dependency, so each test arms SIGALRM (tests run in the main thread)
TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _bounded_test():
    """Fail a test that runs longer than ``TEST_TIMEOUT_S`` instead of
    letting it hang the suite."""
    def expire(signum, frame):
        pytest.fail(f"the test ran longer than {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


class _CountingDict(dict):
    """A dict that counts its clears."""

    clears = 0

    def clear(self) -> None:
        self.clears += 1
        super().clear()


@pytest.fixture
def counting_caches():
    """``counting_caches(kernel)`` swaps the kernel's sentence memo, token
    memo and surface memo for dicts that count their clears and returns
    them."""
    def swap(k):
        k._memo, k._tokens, k._surfaces = (_CountingDict() for _ in range(3))
        return k._memo, k._tokens, k._surfaces
    return swap
