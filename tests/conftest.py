import logging

import pytest
import ray


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
    """``counting_caches(kernel)`` swaps the kernel's sentence memo, id map,
    token memo and surface memo for dicts that count their clears and
    returns them."""
    def swap(k):
        k._memo, k._ids, k._tokens, k._surfaces = (_CountingDict() for _ in range(4))
        return k._memo, k._ids, k._tokens, k._surfaces
    return swap
