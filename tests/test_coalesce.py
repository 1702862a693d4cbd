"""The shared front-door coalescer: per-model waves between barriers.

:func:`repro.serve.server.coalesce` is the one grouping rule both
``Server`` and ``Fleet`` apply to a drained queue.  The properties
pinned here, over random mixes of models, barriers and ``max_batch``:

* the steps partition the input (every item exactly once);
* each model keeps FIFO order;
* no wave exceeds ``max_batch``, and a model's waves between two
  barriers are all full but the last (coalescing is maximal);
* no query crosses a barrier, and barriers keep their order;
* on a queries-only drain the waves equal the server's historical
  whole-queue per-model grouping, so in-process serving forms exactly
  the waves it always did.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import coalesce

MODELS = ["a", "b", "c", "d"]


@dataclass(eq=False)
class _Entry:
    model: Optional[str]             # None: a barrier
    pos: int                         # index in the drained queue


def _drain(labels):
    return [_Entry(m, i) for i, m in enumerate(labels)]


def _flat(steps):
    return [it for _, items in steps for it in items]


def _server_grouping(drained, max_batch):
    """The whole-queue grouping ``Server._loop`` applied before the
    shared coalescer existed: per model in first-appearance order,
    each group split at ``max_batch``."""
    groups = OrderedDict()
    for it in drained:
        groups.setdefault(it.model, []).append(it)
    return [(model, items[lo:lo + max_batch])
            for model, items in groups.items()
            for lo in range(0, len(items), max_batch)]


_labels = st.lists(st.sampled_from(MODELS + [None]), max_size=40)
_queries_only = st.lists(st.sampled_from(MODELS), max_size=40)
_max_batch = st.integers(1, 6)


@settings(max_examples=300, deadline=None)
@given(_labels, _max_batch)
def test_steps_partition_the_drain(labels, max_batch):
    drained = _drain(labels)
    flat = _flat(coalesce(drained, max_batch))
    assert sorted(it.pos for it in flat) == list(range(len(drained)))
    assert len({id(it) for it in flat}) == len(drained)


@settings(max_examples=300, deadline=None)
@given(_labels, _max_batch)
def test_each_model_keeps_fifo_order(labels, max_batch):
    flat = _flat(coalesce(_drain(labels), max_batch))
    for model in MODELS:
        seen = [it.pos for it in flat if it.model == model]
        assert seen == sorted(seen)


@settings(max_examples=300, deadline=None)
@given(_labels, _max_batch)
def test_waves_are_same_model_bounded_and_maximal(labels, max_batch):
    steps = coalesce(_drain(labels), max_batch)
    segment_waves = {}
    for model, items in steps:
        if model is None:
            assert len(items) == 1 and items[0].model is None
            segment_waves = {}
            continue
        assert 1 <= len(items) <= max_batch
        assert all(it.model == model for it in items)
        # A second wave of one model in one segment only follows a
        # full one: nothing that could have coalesced was split off.
        prev = segment_waves.get(model)
        assert prev is None or len(prev) == max_batch
        segment_waves[model] = items


@settings(max_examples=300, deadline=None)
@given(_labels, _max_batch)
def test_no_query_crosses_a_barrier(labels, max_batch):
    drained = _drain(labels)
    flat = _flat(coalesce(drained, max_batch))
    out_pos = {it.pos: k for k, it in enumerate(flat)}
    barriers = [it.pos for it in drained if it.model is None]
    assert [it.pos for it in flat if it.model is None] == barriers
    for b in barriers:
        for it in drained:
            if it.model is not None:
                assert (it.pos < b) == (out_pos[it.pos] < out_pos[b])


@settings(max_examples=300, deadline=None)
@given(_queries_only, _max_batch)
def test_queries_only_matches_server_grouping(labels, max_batch):
    drained = _drain(labels)
    got = [(m, [it.pos for it in items])
           for m, items in coalesce(drained, max_batch)]
    want = [(m, [it.pos for it in items])
            for m, items in _server_grouping(drained, max_batch)]
    assert got == want

