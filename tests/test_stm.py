"""Short-term memory queues and cross-modality co-occupancy."""

import random

import pytest

from chunknet.network import DiscriminationNet
from chunknet.patterns import Pattern
from chunknet.stm import StmError, StmQueue, co_occupancy


def test_fifo_eviction():
    q = StmQueue(capacity=2)
    q.push(1)
    q.push(2)
    assert q.slots == [2, 1]
    q.push(3)
    assert q.slots == [3, 2]


def test_root_push_is_dropped():
    q = StmQueue(capacity=3)
    q.push(0)
    assert q.slots == []


def test_capacity_five_sixth_push_evicts_first():
    q = StmQueue(capacity=5)
    for i in range(1, 6):
        q.push(i)
    assert q.slots == [5, 4, 3, 2, 1]
    q.push(6)
    assert q.slots == [6, 5, 4, 3, 2]


def test_capacity_bounds_validated():
    with pytest.raises(StmError):
        StmQueue(capacity=1)
    with pytest.raises(StmError):
        StmQueue(capacity=10)


def test_capacity_bound_property_10000_random_pushes():
    rng = random.Random(3)
    for _ in range(200):
        cap = rng.randint(2, 9)
        q = StmQueue(cap)
        pushed = []
        for _ in range(50):
            node_id = rng.randint(0, 40)
            q.push(node_id)
            if node_id != 0:
                pushed.append(node_id)
            # the newest ``cap`` non-root pushes, newest first: eviction
            # order equals insertion order
            assert q.slots == pushed[::-1][:cap]


def _learn_to_fixed_point(net, pattern):
    for _ in range(50):
        if net.learn(pattern).kind == "no_change":
            break


def _nets_with_chunks():
    visual = DiscriminationNet("visual")
    verbal = DiscriminationNet("verbal")
    _learn_to_fixed_point(visual, Pattern("visual", ("1", "0")))
    _learn_to_fixed_point(verbal, Pattern("verbal", ("T",)))
    vis_node = visual.recognise(Pattern("visual", ("1", "0")))
    verb_node = verbal.recognise(Pattern("verbal", ("T",)))
    return visual, verbal, vis_node, verb_node


def test_co_occupancy_pairs_fully_learned_heads():
    visual, verbal, vis_node, verb_node = _nets_with_chunks()
    assert vis_node.image_complete and verb_node.image_complete
    vq, bq = StmQueue(5), StmQueue(5)
    vq.push(vis_node.node_id)
    bq.push(verb_node.node_id)
    assert co_occupancy(vq, bq, visual, verbal) == (vis_node.node_id,
                                                    verb_node.node_id)


def test_co_occupancy_none_when_a_queue_is_empty():
    visual, verbal, vis_node, _ = _nets_with_chunks()
    vq, bq = StmQueue(5), StmQueue(5)
    vq.push(vis_node.node_id)
    assert co_occupancy(vq, bq, visual, verbal) is None


def test_co_occupancy_gated_on_fully_learned():
    # a half-trained chunk (empty image) at the head blocks the pair
    visual = DiscriminationNet("visual")
    verbal = DiscriminationNet("verbal")
    visual.learn(Pattern("visual", ("1", "0")))   # node exists, image empty
    for _ in range(2):
        verbal.learn(Pattern("verbal", ("T",)))
    vis_node = visual.recognise(Pattern("visual", ("1",)))
    assert not vis_node.image_complete
    verb_node = verbal.recognise(Pattern("verbal", ("T",)))
    vq, bq = StmQueue(5), StmQueue(5)
    vq.push(vis_node.node_id)
    bq.push(verb_node.node_id)
    assert co_occupancy(vq, bq, visual, verbal) is None


def test_position_pairing_scans_matching_slots():
    visual, verbal, vis_node, verb_node = _nets_with_chunks()
    # bury the learned pair one slot down behind half-learned heads
    visual.learn(Pattern("visual", ("9",)))
    blocker_v = visual.recognise(Pattern("visual", ("9",)))
    verbal.learn(Pattern("verbal", ("Z",)))
    blocker_b = verbal.recognise(Pattern("verbal", ("Z",)))
    vq, bq = StmQueue(5), StmQueue(5)
    vq.push(vis_node.node_id)
    bq.push(verb_node.node_id)
    vq.push(blocker_v.node_id)
    bq.push(blocker_b.node_id)
    assert co_occupancy(vq, bq, visual, verbal, pairing="head") is None
    assert co_occupancy(vq, bq, visual, verbal, pairing="position") == \
        (vis_node.node_id, verb_node.node_id)
    with pytest.raises(StmError):
        co_occupancy(vq, bq, visual, verbal, pairing="bogus")

