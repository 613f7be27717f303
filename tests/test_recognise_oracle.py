"""Differential tests: the indexed ``recognise`` against a linear scan of
every child, on random nets, before and after a snapshot round trip."""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.network import DiscriminationNet, MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import load_memory, save_memory


def linear_recognise(net: DiscriminationNet, p: Pattern):
    """Reference recogniser: at each node, try every child in insertion
    order and follow the first whose test link prefixes the remaining
    input."""
    node = net.root
    remaining = p.tokens
    while True:
        for cid in node.children:
            child = net.node(cid)
            if remaining[: len(child.test)] == child.test:
                node = child
                remaining = remaining[len(child.test):]
                break
        else:
            return node


def assert_matches_oracle(net: DiscriminationNet, probes) -> None:
    for node in net.nodes():
        assert node.contents_length == len(net.contents(node.node_id))
    for probe in probes:
        assert net.recognise(probe) is linear_recognise(net, probe)


def token_lists(alphabet, min_size):
    return st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=6)


@st.composite
def nets_and_probes(draw):
    # Two or three tokens and many epochs give multi-token test links and
    # siblings that share a first token.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    patterns = draw(st.lists(token_lists(alphabet, 1), min_size=1,
                             max_size=10))
    epochs = draw(st.integers(1, 12))
    probes = draw(st.lists(token_lists(alphabet + ["z"], 0), max_size=20))
    memory = MultiModalMemory()
    net = memory.net("visual")
    for _ in range(epochs):
        for tokens in patterns:
            net.learn(Pattern("visual", tuple(tokens)))
    return memory, [Pattern("visual", tuple(t))
                    for t in [[], *patterns, *probes]]


@settings(deadline=None, database=None)
@given(nets_and_probes())
def test_indexed_recognise_matches_linear_scan(case):
    memory, probes = case
    assert_matches_oracle(memory.net("visual"), probes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_memory(path, memory)
        restored, _ = load_memory(path)
    assert_matches_oracle(restored.net("visual"), probes)


def test_siblings_sharing_a_first_token_keep_insertion_order():
    net = DiscriminationNet("visual")
    ab = net._new_node(net.root, ("a", "b"), ("a", "b"), True)
    a = net._new_node(net.root, ("a",), ("a",), True)
    net._new_node(a, ("c", "a"), ("a", "c", "a"), True)
    net._new_node(net.root, ("a", "c"), ("a", "c"), True)
    assert net.root.index == {"a": (ab.node_id, a.node_id, 4)}
    probes = [Pattern("visual", tokens)
              for n in range(5)
              for tokens in itertools.product("abc", repeat=n)]
    assert_matches_oracle(net, probes)
    assert net.recognise(Pattern("visual", ("a", "c", "a"))).node_id == 3
