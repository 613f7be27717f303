"""Differential tests of learning: the package's ``learn`` against the
reference in ``reference.py``, which copies each difference out before it
sorts it and rebuilds contents from parent chains when it discriminates.
Both sides learn the same patterns, which share prefixes and extend each
other, and must give the same event at every learn."""

from hypothesis import given, settings

from chunknet.snapshot import dump_memory
from test_reference import assert_same, learn_sequences, learned


def same_bytes(live, ref):
    assert dump_memory(live) == ref.dump()


@settings(deadline=None, database=None)
@given(learn_sequences())
def test_learning_matches_the_copied_difference_reference(case):
    # At the end: the same bytes, contents and sizes, and the same walks of
    # the last patterns learned.
    _, order = case
    live, ref = learned(order)
    assert_same(live, ref, order[-3:])


@settings(deadline=None, database=None)
@given(learn_sequences())
def test_learning_matches_the_reentering_discrimination(case):
    # The same snapshot bytes after every learn.
    _, order = case
    learned(order, same_bytes)
