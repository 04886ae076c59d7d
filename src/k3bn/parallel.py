"""Kept only for perfbench/tracing.py, which imports this module and wraps
ordered_imap by name; nothing in k3bn calls it."""


def ordered_imap(fn, items, workers, *, big_enough=0):
    return map(fn, items)
