import os

import pytest

from k3bn import parallel
from k3bn.errors import InputError


def _square(x: int) -> int:
    return x * x


def _set_usable_cores(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_ordered_imap_sequential_small_jobs():
    out = list(parallel.ordered_imap(_square, range(10), workers=4, big_enough=10))
    assert out == [x * x for x in range(10)]


def test_ordered_imap_pool_preserves_order():
    out = list(
        parallel.ordered_imap(_square, range(50), workers=2, big_enough=10**9)
    )
    assert out == [x * x for x in range(50)]


def test_resolve_workers_priority(monkeypatch):
    _set_usable_cores(monkeypatch, 8)
    assert parallel.resolve_workers(3) == 3
    monkeypatch.setenv(parallel.WORKERS_ENV, "5")
    assert parallel.resolve_workers() == 5
    assert parallel.resolve_workers(2) == 2
    monkeypatch.delenv(parallel.WORKERS_ENV)
    assert parallel.resolve_workers() == 8
    assert parallel.resolve_workers(0) == 1


def test_resolve_workers_clamps_to_usable_cores(monkeypatch):
    # only the resolved count is checked; no pool is started
    _set_usable_cores(monkeypatch, 2)
    assert parallel.resolve_workers(10**6) == 2
    monkeypatch.setenv(parallel.WORKERS_ENV, " 4096 ")
    assert parallel.resolve_workers() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel.resolve_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.resolve_workers() == 1


@pytest.mark.parametrize("value", ["abc", "2.5", "1e3"])
def test_resolve_workers_rejects_non_integer_env(monkeypatch, value):
    monkeypatch.setenv(parallel.WORKERS_ENV, value)
    with pytest.raises(InputError, match=parallel.WORKERS_ENV):
        parallel.resolve_workers()
