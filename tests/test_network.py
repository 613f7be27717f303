"""Discrimination-network behaviour: retrieval, the four learning traces,
convergence, and structural invariants."""

import random

import pytest

from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE,
                              DiscriminationNet, LearnEvent,
                              MultiModalMemory, NetworkError, Node, ROOT_ID)
from chunknet.patterns import Pattern, PatternError
from chunknet.snapshot import dump_memory
from test_reference import learned, load_rows, round_trip


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
    memory, _ = load_rows({"visual": [[0, "A", "A B C", False, {}],
                                      [1, "B", "A B", False, {}],
                                      [0, "B", "B", True, {}]]})
    return memory.nets["visual"]


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
        memory, _ = load_rows({"visual": [[0, "A", "A B", False, {}]]})
        net = memory.nets["visual"]
        assert net.learn(P("A", "B")) == LearnEvent(NO_CHANGE, 1)
        assert net.node(1).image == ("A", "B")

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
        assert net.root.size == 0
        deep = net.recognise(P("A", "B"))
        assert deep.size == 2
        # image outgrows contents: size follows the image
        grown = net.recognise(P("A"))
        assert grown.image == ("A", "B", "C")
        assert grown.size == 3

    def test_chunk_size_empty_image_falls_back_to_contents(self):
        net = DiscriminationNet("visual")
        net.learn(P("Q"))
        node = net.recognise(P("Q"))
        assert node.image == ()
        assert node.size == 1

    @pytest.mark.parametrize("test, message", [
        ((), "node 4 has an empty test link"),
        (("A",), "sibling nodes 1 and 4 have the same test link"),
    ])
    def test_a_refused_node_leaves_the_net_unchanged(self, test, message):
        net = example_net()
        before = (net.node_count, dict(net.root.index), net.clock_seconds)
        with pytest.raises(NetworkError, match=message):
            net.attach([Node(4, test, test, parent=ROOT_ID)])
        assert (net.node_count, net.root.index, net.clock_seconds) == before

    def test_attach_joins_the_nodes_before_a_refused_one(self):
        net = example_net()
        nodes = [Node(4, ("C",), (), parent=ROOT_ID),
                 Node(5, ("D",), (), parent=4),
                 Node(6, ("C",), (), parent=ROOT_ID),
                 Node(7, ("E",), (), parent=ROOT_ID)]
        with pytest.raises(NetworkError,
                           match="sibling nodes 4 and 6 have the same"):
            net.attach(nodes)
        assert net.nodes()[4:] == nodes[:2]
        assert net.root.index["C"] == (4,) and "E" not in net.root.index
        assert (nodes[0].contents_length, nodes[1].contents_length) == (1, 2)

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
        for kind, cost in ((CREATED_NODE, 10.0), (FAMILIARISED, 2.0),
                           (NO_CHANGE, 0.0)):
            before = net.clock_seconds
            assert net.learn(P("A")).kind == kind
            assert net.clock_seconds - before == cost
        assert net.clock_seconds == 12.0


def settled_ab():
    """A net where learning ``A B`` changes nothing: node 1 tests ``A``
    and holds the complete image ``A B``, and node 2 tests ``B``."""
    net = DiscriminationNet("visual")
    assert converge(net, P("A", "B"))
    assert net.recognise(P("A", "B")).node_id == 1
    return net


class TestSettledLearns:
    def test_a_matching_child_under_the_end_node_ends_the_settled_learn(
            self):
        nets = settled_ab(), settled_ab()
        for net in nets:
            net.learn(P("A", "B"))
            net.learn(P("A", "B", "C"))
            assert net.learn(P("A", "B", "C")) == LearnEvent(CREATED_NODE,
                                                             3)
            assert (net.node(3).parent, net.node(3).test) == (1, ("B",))
        live, fresh = nets
        fresh._walks.clear()
        event = live.learn(P("A", "B"))
        assert event == fresh.learn(P("A", "B")) == LearnEvent(NO_CHANGE, 3)
        assert live.node(3).image_complete

    def test_children_the_walk_cannot_take_leave_the_settled_learn(self):
        net = settled_ab()
        event = net.learn(P("A", "B"))
        assert net.learn(P("A", "B")) is event
        # A child of the end node under another token: node 1 gets the
        # child C, after C becomes a root primitive with a filled image.
        for _ in range(3):
            net.learn(P("A", "C"))
        assert net.node(1).index == {"C": (4,)}
        assert net.learn(P("A", "B")) is event
        # A sibling on the path that would match, listed after node 1.
        net._new_node(net.root, ("A", "B"), ("A", "B"), True)
        assert net.learn(P("A", "B")) is event
        net._walks.clear()
        assert net.learn(P("A", "B")) == event

    def test_the_first_no_change_completes_the_image(self):
        net = DiscriminationNet("visual")
        node = net._new_node(net.root, ("A",), ("A", "B"), False)
        event = net.learn(P("A", "B"))
        assert event == LearnEvent(NO_CHANGE, node.node_id)
        assert node.image_complete
        assert net.learn(P("A", "B")) is event

    def test_no_learn_grows_a_complete_image(self):
        # Once, a direct familiarise grew node 1's complete image "A B"
        # into "A B C", and the next learn of "A B" returned its kept
        # NO_CHANGE on node 1 where a walk familiarised node 2.
        live, fresh = (trained(P("A", "B"), repeats=6) for _ in range(2))
        node = live.node(1)
        assert (node.image, node.image_complete) == (("A", "B"), True)
        for net in (live, fresh):
            for _ in range(3):
                net.learn(P("C"))
            for p in (P("A", "B", "C"), P("A"), P("A", "B", "C")):
                net.learn(p)
        assert (node.image, node.image_complete) == (("A", "B"), True)
        fresh._walks.clear()
        assert live.learn(P("A", "B")) == fresh.learn(P("A", "B"))


class TestRememberedWalks:
    def test_a_child_the_learn_attaches_under_its_own_end_node_is_walked(
            self):
        # The entry is read before the step: read after it, the kept entry
        # would be the new tuple that holds node 3, the next learn would
        # start at node 1 and discriminate "B C" there a second time, and
        # attach would refuse a second child testing "B".
        live, fresh = DiscriminationNet("visual"), DiscriminationNet("visual")
        for net in (live, fresh):
            net._new_node(net.root, ("A",), ("A", "B"), True)
            net._new_node(net.root, ("B",), ("B",), False)
            assert net.learn(P("A", "B", "C")) == LearnEvent(CREATED_NODE, 3)
            assert (net.node(3).parent, net.node(3).test) == (1, ("B",))
        fresh._walks.clear()
        event = live.learn(P("A", "B", "C"))
        assert event == fresh.learn(P("A", "B", "C"))
        # The walk went on to node 3, and "C" became a root primitive.
        assert event == LearnEvent(CREATED_NODE, 4)
        assert (live.node(4).parent, live.node(4).test) == (ROOT_ID, ("C",))

    def test_a_repeated_changing_learn_starts_where_its_walk_ended(
            self, monkeypatch):
        live, fresh = DiscriminationNet("visual"), DiscriminationNet("visual")
        p = P("A", "B", "C")
        for net in (live, fresh):
            # Node 1 tests "A", and then holds the image "A".
            assert [net.learn(p).kind for _ in range(2)] == \
                [CREATED_NODE, FAMILIARISED]
        starts = []
        recognise = live.recognise

        def counted(p, start=0, end=None):
            starts.append(start)
            return recognise(p, start, end)
        monkeypatch.setattr(live, "recognise", counted)
        events = [live.learn(p) for _ in range(4)]
        # Each learn changed the net, and none walked the whole pattern
        # from the root: each sorted only the rest after node 1's image.
        assert [e.kind for e in events] == [CREATED_NODE, FAMILIARISED] * 2
        assert starts == [1, 1, 2, 2]
        for event in events:
            fresh._walks.clear()
            assert fresh.learn(p) == event
        assert live.node(1).image_complete
        assert live.learn(p) == LearnEvent(NO_CHANGE, 1)
        assert starts == [1, 1, 2, 2]

    def test_familiarise_never_grows_the_root_image(self):
        # Once, a second familiarise of the root with "A" appended "A" to
        # the root's image and completed it, and recognising an unknown
        # token then returned a root whose image was "A". A learn
        # familiarises the root only when its walk ends there, and then the
        # rest's walk ends there too and makes a primitive.
        net = DiscriminationNet("visual")
        events = [net.learn(p) for p in (P("A"), P("A"), P("A"), P("B", "A"),
                                         P("A", "B"), P("B", "A"))]
        assert [e.kind for e in events] == [CREATED_NODE, FAMILIARISED,
                                            NO_CHANGE, CREATED_NODE,
                                            FAMILIARISED, CREATED_NODE]
        assert net.root.image == () and not net.root.image_complete
        assert net.recognise(P("Z")).image == ()


def linked_memory():
    """A memory whose visual net holds node 1 for ``A`` and whose label
    net holds node 1 for ``T``."""
    memory = MultiModalMemory()
    memory.nets["visual"] = trained(P("A"), repeats=2)
    memory.net("verbal").learn(Pattern("verbal", ("T",)))
    return memory


def dumped(net):
    """``dump_memory`` of a memory holding only ``net``."""
    memory = MultiModalMemory()
    memory.nets[net.modality] = net
    return dump_memory(memory)


def recognise_starts(monkeypatch, net):
    """The start of every ``recognise`` call made on ``net`` from now on."""
    starts = []
    recognise = net.recognise

    def counted(p, start=0, end=None):
        starts.append(start)
        return recognise(p, start, end)
    monkeypatch.setattr(net, "recognise", counted)
    return starts


class TestTheRepeatCheck:
    def test_a_child_under_another_token_keeps_the_settled_learn(
            self, monkeypatch):
        net = settled_ab()
        event = net.learn(P("A", "B"))
        net._new_node(net.node(1), ("C",), ("A", "C"), False)
        starts = recognise_starts(monkeypatch, net)
        assert net.learn(P("A", "B")) is event
        assert starts == []

    def test_a_child_under_the_next_token_that_cannot_match_walks_once(
            self, monkeypatch):
        live, fresh = settled_ab(), settled_ab()
        for net in (live, fresh):
            net.learn(P("A", "B"))
            # Node 1 tests "A"; its new child tests "B X", past the pattern.
            net._new_node(net.node(1), ("B", "X"), ("A", "B", "X"), False)
        starts = recognise_starts(monkeypatch, live)
        event = live.learn(P("A", "B"))
        assert starts == [0]
        fresh._walks.clear()
        assert event == fresh.learn(P("A", "B")) == LearnEvent(NO_CHANGE, 1)
        assert dumped(live) == dumped(fresh)


def test_a_pattern_of_another_modality_is_refused_and_changes_nothing():
    net = trained(P("A", "B"), P("C"), repeats=3)
    verbal = Pattern("verbal", ("A", "B"))
    for call in (net.recognise, net.learn):
        before = (dumped(net), net.clock_seconds)
        with pytest.raises(PatternError, match="pattern modality 'verbal' "
                                               "does not match network "
                                               "modality 'visual'"):
            call(verbal)
        assert (dumped(net), net.clock_seconds) == before
    # Learning goes on as in a net that saw none of the refused calls.
    twin = trained(P("A", "B"), P("C"), repeats=3)
    for p in (P("A", "B"), P("A", "B", "C"), P("A", "B")):
        assert net.learn(p) == twin.learn(p)


class TestNamingLinks:
    def test_counter_initialises_and_accumulates(self):
        memory = linked_memory()
        node = memory.nets["visual"].node(1)
        memory.add_naming_link("visual", 1, 1)
        assert node.naming_links == {1: 1}
        for _ in range(2):
            memory.add_naming_link("visual", 1, 1)
        assert node.naming_links == {1: 3}

    def test_root_never_links(self):
        memory = linked_memory()
        for node_id, label_node_id in ((ROOT_ID, 1), (1, ROOT_ID)):
            with pytest.raises(NetworkError, match="never involve a root"):
                memory.add_naming_link("visual", node_id, label_node_id)
        assert memory.nets["visual"].node(1).naming_links == {}

    @pytest.mark.parametrize("modality, node_id, label_node_id, message", [
        ("visual", ROOT_ID, 999, "unknown node id 999"),
        ("auditory", ROOT_ID, 1, "no 'auditory' net"),
        ("visual", 99, ROOT_ID, "never involve a root"),
    ])
    def test_the_first_of_two_faults_is_reported(self, modality, node_id,
                                                  label_node_id, message):
        # The label node, then the net, then the root rule, then the
        # linked chunk.
        with pytest.raises(NetworkError, match=message):
            linked_memory().add_naming_link(modality, node_id,
                                            label_node_id)

    def test_memory_validates_label_node(self):
        memory = MultiModalMemory()
        vis = memory.net("visual")
        vis.learn(P("A"))
        vis.learn(P("A"))
        label_net = memory.net("verbal")
        label_net.learn(Pattern("verbal", ("T",)))
        visual_node = vis.recognise(P("A"))
        label_node = label_net.recognise(Pattern("verbal", ("T",)))
        memory.add_naming_link("visual", visual_node.node_id,
                               label_node.node_id)
        assert visual_node.naming_links == {label_node.node_id: 1}
        with pytest.raises(NetworkError):
            memory.add_naming_link("visual", visual_node.node_id, 999)

    @pytest.mark.parametrize("modalities", [[], ["visual"]],
                             ids=["no_nets", "visual_net"])
    def test_label_lookups_do_not_make_the_label_net(self, modalities):
        memory = MultiModalMemory()
        for modality in modalities:
            memory.net(modality)
        with pytest.raises(NetworkError, match="no 'verbal' label net"):
            memory.add_naming_link("visual", 1, 1)
        assert sorted(memory.nets) == modalities
        with pytest.raises(NetworkError, match="no 'verbal' label net"):
            memory.label_name(1)
        assert sorted(memory.nets) == modalities

    def test_a_link_from_a_missing_net_does_not_make_it(self):
        memory = MultiModalMemory()
        memory.net("verbal").learn(Pattern("verbal", ("T",)))
        with pytest.raises(NetworkError, match="no 'visual' net"):
            memory.add_naming_link("visual", 1, 1)
        assert sorted(memory.nets) == ["verbal"]


def test_node_ids_are_positions_and_unknown_ids_are_refused():
    net = trained(P("A", "B"), repeats=3)
    assert [n.node_id for n in net.nodes()] == list(range(net.node_count))
    assert net.node(net.node_count - 1) is net.nodes()[-1]
    for bad in (-1, -net.node_count, net.node_count, 999, "1", None):
        with pytest.raises(NetworkError, match="unknown node id"):
            net.node(bad)


def test_children_are_listed_in_creation_order():
    # Siblings under one first token and under different ones, in a learned
    # net and in a loaded one, against the reference's child lists.
    rng = random.Random(8)
    order = [P(*(rng.choice("pq") for _ in range(rng.randint(1, 5))))
             for _ in range(300)]
    live, ref = learned(order)
    built = load_rows({"visual": [[0, "a b", "a b", True, {}],
                                  [0, "c", "c", True, {}],
                                  [0, "a", "a", True, {}],
                                  [3, "c a", "a c a", True, {}],
                                  [0, "a c", "a c", True, {}]]})
    assert built[0].nets["visual"].root.children == [1, 2, 3, 5]
    for memory, twin in ((live, ref), round_trip(live, ref), built):
        net, rnet = memory.nets["visual"], twin.nets["visual"]
        shared = 0
        for node in net.nodes():
            assert node.children == rnet.nodes[node.node_id].children
            firsts = [net.node(c).test[0] for c in node.children]
            shared += len(firsts) - len(set(firsts))
        assert shared >= 2


def test_node_dataclass_defaults():
    node = Node(node_id=5, test=("A",), image=())
    assert node.children == [] and node.naming_links == {}
