"""Differential tests: ``familiarise``, which walks the difference as an
index range of the presented pattern, against a reference that copies the
difference out with ``patterns.difference`` on every call; and discrimination,
which takes its contents from the walk, against one that rebuilt them from
parent chains and familiarised an empty image's remainder again."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE, ROOT_ID,
                              DiscriminationNet, LearnEvent,
                              MultiModalMemory, NetworkError)
from chunknet.patterns import Pattern, difference
from chunknet.snapshot import dump_memory


class ReferenceNet(DiscriminationNet):
    """The net with the familiarise that sorted a copied difference."""

    def familiarise(self, node, p):
        if not p or node.image_complete and node.image != p.tokens:
            raise NetworkError(f"cannot familiarise node {node.node_id}: the "
                               f"pattern is empty or its image complete")
        d = difference(p, Pattern.derived(self.modality, node.image))
        if not d:
            if node.image == p.tokens and not node.image_complete:
                node.image_complete = True
            return LearnEvent(NO_CHANGE, node.node_id)
        ret = self.recognise(d)
        if ret.node_id == ROOT_ID:
            new = self._new_node(self.root, (d.tokens[0],), (), False)
            return LearnEvent(CREATED_NODE, new.node_id)
        if not ret.image or ret.image_complete or len(ret.image) > len(d):
            if node.node_id == ROOT_ID:
                raise NetworkError("cannot familiarise the root: its image "
                                   "stays empty")
            self._append_to_image(node, d.tokens[0], p.tokens)
            return LearnEvent(FAMILIARISED, node.node_id)
        self._append_to_image(ret, d.tokens[0],
                              p.tokens if ret.node_id == node.node_id
                              else None)
        return LearnEvent(FAMILIARISED, ret.node_id)


class ReenteringNet(DiscriminationNet):
    """The net whose discrimination read contents from parent chains and
    familiarised the remainder into a retrieved node with an empty image,
    walking the remainder again."""

    def _discriminate(self, node, p):
        start = node.contents_length
        if start >= len(p):
            # Pattern already fully encoded by this node's path; its image
            # has simply grown past the pattern. Nothing new to store.
            return LearnEvent(NO_CHANGE, node.node_id)
        ret = self.recognise(p, start)
        if ret.node_id == ROOT_ID:
            new = self._new_node(self.root, (p.tokens[start],), (), False)
            return LearnEvent(CREATED_NODE, new.node_id)
        if not ret.image:
            return self.familiarise(
                ret, Pattern.derived(p.modality, p.tokens[start:]))
        test = ret.image
        if p.tokens[start:start + len(test)] != test:
            # Retrieved image is not a prefix of the remainder (it grew past
            # the recognised contents); the contents are, always.
            test = self.contents(ret.node_id).tokens
        image = self.contents(node.node_id).tokens + test
        new = self._new_node(node, test, image, image == p.tokens)
        return LearnEvent(CREATED_NODE, new.node_id)


def memory_of(net):
    memory = MultiModalMemory()
    memory.nets[net.modality] = net
    return memory


def outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def tokens(alphabet, min_size=0, max_size=4):
    return st.lists(st.sampled_from(alphabet), min_size=min_size,
                    max_size=max_size).map(tuple)


@st.composite
def learn_sequences(draw):
    # Each pattern cuts an earlier one (or a seed) and extends it, so the
    # patterns share prefixes and extend each other; a small alphabet makes
    # differences run into nodes whose images are as long as they are.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    patterns = draw(st.lists(tokens(alphabet, 1), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 8))):
        stem = draw(st.sampled_from(patterns))
        cut = draw(st.integers(0, len(stem)))
        extended = stem[:cut] + draw(tokens(alphabet))
        if extended:
            patterns.append(extended)
    order = draw(st.lists(st.sampled_from(patterns), min_size=1,
                          max_size=80))
    return alphabet, [Pattern("visual", p) for p in order]


@settings(deadline=None, database=None)
@given(learn_sequences())
def test_learning_matches_the_copied_difference_reference(case):
    _, order = case
    net, ref = DiscriminationNet("visual"), ReferenceNet("visual")
    for p in order:
        assert net.learn(p) == ref.learn(p)
    assert dump_memory(memory_of(net)) == dump_memory(memory_of(ref))


@settings(deadline=None, database=None)
@given(learn_sequences())
def test_learning_matches_the_reentering_discrimination(case):
    _, order = case
    net, old = DiscriminationNet("visual"), ReenteringNet("visual")
    for p in order:
        assert net.learn(p) == old.learn(p)
        assert dump_memory(memory_of(net)) == dump_memory(memory_of(old))


@st.composite
def direct_calls(draw):
    alphabet, order = draw(learn_sequences())
    net, ref = DiscriminationNet("visual"), ReferenceNet("visual")
    for p in order:
        net.learn(p)
        ref.learn(p)
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        node_id = draw(st.sampled_from(sorted(n.node_id
                                              for n in net.nodes())))
        image = net.node(node_id).image
        pattern = draw(st.one_of(
            # anything, mostly not prefixed by the image
            tokens(alphabet + ["z"], 0, 6),
            # a proper prefix of the image
            st.integers(0, max(len(image) - 1, 0)).map(lambda j: image[:j]),
            # the image cut short, then extended at random
            st.integers(0, max(len(image) - 1, 0)).flatmap(
                lambda j: tokens(alphabet + ["z"], 1, 4).map(
                    lambda rest: image[:j] + rest))))
        calls.append((node_id, Pattern("visual", pattern)))
    return net, ref, calls


@settings(deadline=None, database=None)
@given(direct_calls())
def test_direct_calls_match_the_copied_difference_reference(case):
    net, ref, calls = case
    for node_id, p in calls:
        assert outcome(lambda: net.familiarise(net.node(node_id), p)) == \
            outcome(lambda: ref.familiarise(ref.node(node_id), p))
        assert dump_memory(memory_of(net)) == dump_memory(memory_of(ref))


def test_a_pattern_shorter_than_the_image_is_no_change():
    net, ref = DiscriminationNet("visual"), ReferenceNet("visual")
    for n in (net, ref):
        node = n._new_node(n.root, ("a",), ("a", "b", "c"), False)
        assert n.familiarise(node, Pattern("visual", ("a", "b"))) == \
            LearnEvent(NO_CHANGE, node.node_id)
    assert dump_memory(memory_of(net)) == dump_memory(memory_of(ref))


def test_a_difference_after_a_shorter_common_prefix_is_walked_there():
    # The image "a b c" shares only "a" with "a c": the difference is "c",
    # not the empty rest after the image's length.
    events = []
    for n in (DiscriminationNet("visual"), ReferenceNet("visual")):
        node = n._new_node(n.root, ("a",), ("a", "b", "c"), False)
        c = n._new_node(n.root, ("c",), ("c",), True)
        events.append(n.familiarise(node, Pattern("visual", ("a", "c"))))
        assert node.image == ("a", "b", "c", "c")
        assert c.image == ("c",)
    assert events[0] == events[1] == LearnEvent(FAMILIARISED, 1)


def test_a_difference_as_long_as_the_retrieved_image_grows_that_image():
    # The difference "b c" reaches node "b" whose incomplete image "b c" is
    # exactly as long: the retrieved node's image grows by the difference's
    # first token, not the original's.
    for n in (DiscriminationNet("visual"), ReferenceNet("visual")):
        a = n._new_node(n.root, ("a",), ("a",), False)
        b = n._new_node(n.root, ("b",), ("b", "c"), False)
        event = n.familiarise(a, Pattern("visual", ("a", "b", "c")))
        assert event == LearnEvent(FAMILIARISED, b.node_id)
        assert (a.image, b.image) == (("a",), ("b", "c", "b"))
