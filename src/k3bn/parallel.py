"""Deterministic fan-out over disjoint work slices.

Long enumerations split into independent slices whose results merge in slice
order, so the output never depends on the worker count.  The worker count
comes from an explicit argument, the K3BN_WORKERS environment variable, or
the number of cores this process may run on, in that order, and never
exceeds that core count.  Small jobs stay sequential: the split is a
throughput knob, not a semantic one.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import InputError

T = TypeVar("T")
R = TypeVar("R")

WORKERS_ENV = "K3BN_WORKERS"

# Below this many elementary steps, process pools cost more than they save.
_PARALLEL_THRESHOLD = 200_000


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def resolve_workers(explicit: int | None = None) -> int:
    cores = _usable_cores()
    if explicit is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return cores
        try:
            explicit = int(env)
        except ValueError:
            raise InputError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return max(1, min(int(explicit), cores))


def _context():
    # imported here: most runs never start a pool, and the import is a large
    # share of the package's import time
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        return multiprocessing.get_context()


def ordered_imap(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int,
    *,
    big_enough: int = 0,
) -> Iterator[R]:
    """Yield fn(item) in item order, possibly computed by a process pool."""
    mats = list(items)
    if workers <= 1 or len(mats) < 2 or big_enough < _PARALLEL_THRESHOLD:
        for it in mats:
            yield fn(it)
        return
    with _context().Pool(min(workers, len(mats))) as pool:
        yield from pool.imap(fn, mats)
