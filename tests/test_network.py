"""Discrimination-network behaviour: retrieval, the four learning traces,
convergence, and structural invariants."""

import random

import pytest

from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE,
                              DiscriminationNet, MultiModalMemory,
                              NetworkError, Node, ROOT_ID)
from chunknet.patterns import Pattern


def P(*tokens):
    return Pattern("visual", tuple(tokens))


def trained(*patterns, repeats=1):
    net = DiscriminationNet("visual")
    for _ in range(repeats):
        for p in patterns:
            net.learn(p)
    return net


def converge(net, *patterns, limit=200):
    for _ in range(limit):
        events = [net.learn(p) for p in patterns]
        if all(e.kind == NO_CHANGE for e in events):
            return True
    return False


def example_net():
    """Hand-built tree: a node for A carrying a grown image, a deeper chunk
    reached by test B, and a separate root primitive for B."""
    net = DiscriminationNet("visual")
    root = net.root
    n1 = net._new_node(root, ("A",), ("A", "B", "C"), False)
    net._new_node(n1, ("B",), ("A", "B"), False)
    net._new_node(root, ("B",), ("B",), True)
    return net


class TestRecognise:
    def test_unknown_pattern_returns_root(self):
        net = example_net()
        assert net.recognise(P("D")).node_id == ROOT_ID

    def test_exact_and_extended_inputs_reach_the_same_chunk(self):
        net = example_net()
        assert net.recognise(P("A", "B")).image == ("A", "B")
        assert net.recognise(P("A", "B", "C")).image == ("A", "B")

    def test_empty_pattern_returns_root(self):
        net = example_net()
        assert net.recognise(P()).node_id == ROOT_ID

    def test_read_only_and_idempotent(self):
        net = example_net()
        before = net.node_count
        first = net.recognise(P("A", "B", "C"))
        second = net.recognise(P("A", "B", "C"))
        assert first.node_id == second.node_id
        assert net.node_count == before


class TestLearningTraces:
    def test_new_primitive_gets_test_link_and_empty_image(self):
        # one known chunk [A]; a novel primitive [B] grows a bare node
        net = trained(P("A"), repeats=2)
        event = net.learn(P("B"))
        node = net.node(event.node_id)
        assert event.kind == CREATED_NODE
        assert node.test == ("B",) and node.image == ()
        assert net.node(node.parent).node_id == ROOT_ID

    def test_single_shot_creation_under_known_primitives(self):
        # both primitives fully learned: one step builds the composite chunk
        # with a filled image
        net = trained(P("A"), P("B"), repeats=2)
        before = net.node_count
        event = net.learn(P("A", "B"))
        node = net.node(event.node_id)
        assert event.kind == CREATED_NODE
        assert node.test == ("B",)
        assert node.image == ("A", "B") and node.image_complete
        assert net.contents(node.node_id).tokens == ("A", "B")
        assert net.node_count == before + 1

    def test_empty_image_fills_with_first_primitive(self):
        net = DiscriminationNet("visual")
        net.learn(P("A"))  # node with test [A], image []
        event = net.learn(P("A", "X"))
        assert event.kind == FAMILIARISED
        node = net.recognise(P("A"))
        assert node.image == ("A",) and not node.image_complete

    def test_image_extends_by_one_known_primitive(self):
        net = DiscriminationNet("visual")
        net.learn(P("A"))
        net.learn(P("A", "X"))          # image [A], incomplete
        net.learn(P("B"))
        net.learn(P("B"))               # B fully learned
        event = net.learn(P("A", "B"))
        assert event.kind == FAMILIARISED
        assert net.recognise(P("A")).image == ("A", "B")

    def test_familiarise_zero_difference_is_no_change(self):
        net = DiscriminationNet("visual")
        node = net._new_node(net.root, ("A",), ("A", "B"), False)
        event = net.familiarise(node, P("A", "B"))
        assert event.kind == NO_CHANGE

    def test_familiarise_unknown_primitive_delegates_to_creation(self):
        # image [A], pattern [A,Q] with Q unknown: the difference sorts to
        # the root, so a primitive node for Q appears
        net = DiscriminationNet("visual")
        net.learn(P("A"))
        net.learn(P("A", "X"))
        event = net.learn(P("A", "Q"))
        assert event.kind == CREATED_NODE
        assert net.node(event.node_id).test == ("Q",)
        assert net.node(event.node_id).parent == ROOT_ID

    def test_learn_chain_of_two_primitives(self):
        net = DiscriminationNet("visual")
        net.learn(P("A"))
        net.learn(P("B"))
        kids = [net.node(c) for c in net.root.children]
        assert [k.test for k in kids] == [("A",), ("B",)]

    def test_learn_empty_pattern_is_usage_error(self):
        net = DiscriminationNet("visual")
        with pytest.raises(NetworkError):
            net.learn(P())


class TestConvergence:
    def test_single_pattern_reaches_fixed_point(self):
        rng = random.Random(11)
        for _ in range(50):
            p = P(*(rng.choice("abc") for _ in range(rng.randrange(1, 6))))
            net = DiscriminationNet("visual")
            assert converge(net, p)
            node = net.recognise(p)
            assert p.tokens[:len(node.image)] == node.image

    def test_pattern_set_reaches_fixed_point_and_prefix_images(self):
        rng = random.Random(12)
        for _ in range(30):
            pats = [P(*(rng.choice("abcd")
                        for _ in range(rng.randrange(1, 6))))
                    for _ in range(rng.randrange(1, 6))]
            net = DiscriminationNet("visual")
            assert converge(net, *pats)

    def test_learn_monotonicity(self):
        # node count never decreases; existing images only gain a suffix,
        # at most one appended primitive per call
        rng = random.Random(13)
        net = DiscriminationNet("visual")
        pats = [P(*(rng.choice("ab") for _ in range(rng.randrange(1, 5))))
                for _ in range(8)]
        for _ in range(60):
            before_nodes = net.node_count
            before_images = {n.node_id: n.image for n in net.nodes()}
            net.learn(rng.choice(pats))
            assert net.node_count >= before_nodes
            grown = 0
            for node_id, image in before_images.items():
                now = net.node(node_id).image
                assert now[: len(image)] == image
                assert len(now) - len(image) <= 1
                grown += len(now) - len(image)
            assert grown <= 1


class TestStructure:
    def test_contents_concatenates_path_tests(self):
        net = example_net()
        deep = net.recognise(P("A", "B"))
        assert net.contents(deep.node_id).tokens == ("A", "B")

    def test_chunk_size(self):
        net = example_net()
        assert net.chunk_size(ROOT_ID) == 0
        deep = net.recognise(P("A", "B"))
        assert net.chunk_size(deep.node_id) == 2
        # image outgrows contents: size follows the image
        grown = net.recognise(P("A"))
        assert grown.image == ("A", "B", "C")
        assert net.chunk_size(grown.node_id) == 3

    def test_chunk_size_empty_image_falls_back_to_contents(self):
        net = DiscriminationNet("visual")
        net.learn(P("Q"))
        node = net.recognise(P("Q"))
        assert node.image == ()
        assert net.chunk_size(node.node_id) == 1

    def test_no_duplicate_sibling_tests_after_random_training(self):
        rng = random.Random(14)
        for _ in range(20):
            net = DiscriminationNet("visual")
            pats = [P(*(rng.choice("abc")
                        for _ in range(rng.randrange(1, 5))))
                    for _ in range(6)]
            converge(net, *pats)
            for node in net.nodes():
                tests = [net.node(c).test for c in node.children]
                assert len(tests) == len(set(tests))

    def test_simulated_clock_charges_creation_and_update(self):
        net = DiscriminationNet("visual")
        e1 = net.learn(P("A"))
        assert e1.simulated_cost_seconds == 10.0
        assert net.clock_seconds == 10.0
        e2 = net.learn(P("A"))
        assert e2.simulated_cost_seconds == 2.0
        assert net.clock_seconds == 12.0
        e3 = net.learn(P("A"))
        assert e3.simulated_cost_seconds == 0.0
        assert net.clock_seconds == 12.0


class TestNamingLinks:
    def test_counter_initialises_and_accumulates(self):
        net = trained(P("A"), repeats=2)
        node = net.recognise(P("A"))
        net.add_naming_link(node.node_id, 17)
        assert node.naming_links == {17: 1}
        for _ in range(2):
            net.add_naming_link(node.node_id, 17)
        assert node.naming_links == {17: 3}

    def test_root_never_links(self):
        net = trained(P("A"), repeats=2)
        with pytest.raises(NetworkError):
            net.add_naming_link(ROOT_ID, 1)
        node = net.recognise(P("A"))
        with pytest.raises(NetworkError):
            net.add_naming_link(node.node_id, ROOT_ID)

    def test_memory_validates_label_node(self):
        memory = MultiModalMemory()
        vis = memory.net("visual")
        vis.learn(P("A"))
        vis.learn(P("A"))
        label_net = memory.label_net
        label_net.learn(Pattern("verbal", ("T",)))
        visual_node = vis.recognise(P("A"))
        label_node = label_net.recognise(Pattern("verbal", ("T",)))
        memory.add_naming_link("visual", visual_node.node_id,
                               label_node.node_id)
        assert visual_node.naming_links == {label_node.node_id: 1}
        with pytest.raises(NetworkError):
            memory.add_naming_link("visual", visual_node.node_id, 999)


def test_node_ids_are_positions_and_unknown_ids_are_refused():
    net = trained(P("A", "B"), repeats=3)
    assert [n.node_id for n in net.nodes()] == list(range(net.node_count))
    assert net.node(net.node_count - 1) is net.nodes()[-1]
    for bad in (-1, -net.node_count, net.node_count, 999, "1", None):
        with pytest.raises(NetworkError, match="unknown node id"):
            net.node(bad)


def test_node_dataclass_defaults():
    node = Node(node_id=5, test=("A",), image=())
    assert node.children == [] and node.naming_links == {}
