# ordered_imap is kept as the in-order stub that perfbench/tracing.py wraps;
# these pin the call that the tracer makes.
from k3bn import parallel


def _square(x: int) -> int:
    return x * x


def test_ordered_imap_sequential_small_jobs():
    out = list(parallel.ordered_imap(_square, range(10), workers=4, big_enough=10))
    assert out == [x * x for x in range(10)]


def test_ordered_imap_pool_preserves_order():
    out = list(
        parallel.ordered_imap(_square, range(50), workers=2, big_enough=10**9)
    )
    assert out == [x * x for x in range(50)]
