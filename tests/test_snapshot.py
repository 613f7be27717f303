"""Snapshot round trips: byte-exact files, behaviour-preserving models,
schema version rejection."""

import gc
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.attention import AttentionConfig, categorise
from chunknet.config import RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import CREATED_NODE, DiscriminationNet, \
    MultiModalMemory
from chunknet.patterns import Pattern
from chunknet import snapshot
from chunknet.snapshot import (SnapshotError, dump_memory, load_memory,
                               save_memory)


def random_trained_memory(seed):
    rng = random.Random(seed)
    labels = ["A", "B", "C"][: rng.randint(2, 3)]
    samples = []
    for _ in range(rng.randint(2, 6)):
        tokens = tuple(rng.choice("pqrs")
                       for _ in range(rng.randint(1, 4)))
        samples.append(Sample(visual=Pattern("visual", tokens),
                              label=Pattern("verbal",
                                            (rng.choice(labels),))))
    trainer = Trainer(MultiModalMemory(), RunConfig())
    trainer.train(samples, seed=seed)
    return trainer.memory, samples


def test_round_trip_is_byte_exact(tmp_path):
    memory, _ = random_trained_memory(1)
    path = tmp_path / "model.json"
    save_memory(path, memory, {"note": "x"})
    loaded, meta = load_memory(path)
    assert meta == {"note": "x"}
    path2 = tmp_path / "model2.json"
    save_memory(path2, loaded, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_preserves_behaviour_many_cases(tmp_path):
    # >= 10,000 generated probe cases across restored models
    rng = random.Random(99)
    cfg = AttentionConfig(span=6)
    cases = 0
    for seed in range(60):
        memory, _ = random_trained_memory(seed)
        path = tmp_path / f"m{seed}.json"
        save_memory(path, memory)
        restored, _ = load_memory(path)
        net, rnet = memory.net("visual"), restored.net("visual")
        assert net.node_count == rnet.node_count
        for _ in range(170):
            probe = Pattern("visual", tuple(
                rng.choice("pqrsz")
                for _ in range(rng.randint(0, 6))))
            a, b = net.recognise(probe), rnet.recognise(probe)
            assert (a.node_id, a.image) == (b.node_id, b.image)
            if probe:
                c1 = categorise(memory, probe, cfg)
                c2 = categorise(restored, probe, cfg)
                assert c1 == c2
            cases += 1
    assert cases >= 10_000


def test_training_can_continue_after_restore(tmp_path):
    memory, samples = random_trained_memory(3)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    restored, _ = load_memory(path)
    trainer = Trainer(restored, RunConfig())
    extra = Sample(visual=Pattern("visual", ("new", "stuff")),
                   label=Pattern("verbal", ("A",)))
    run = trainer.train(samples + [extra], seed=5)
    assert run.converged
    node = restored.net("visual").recognise(Pattern("visual",
                                                    ("new", "stuff")))
    assert node.image == ("new", "stuff")


def test_other_schema_versions_rejected(tmp_path):
    memory, _ = random_trained_memory(4)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError, match="schema_version"):
        load_memory(path)


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(SnapshotError, match="not found"):
        load_memory(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SnapshotError, match="JSON"):
        load_memory(bad)


def test_dump_is_canonical():
    memory, _ = random_trained_memory(6)
    assert dump_memory(memory) == dump_memory(memory)


def _nodes(doc):
    return {nd["id"]: nd for nd in doc["networks"]["visual"]["nodes"]}


def _drop_root(doc):
    doc["networks"]["visual"]["nodes"] = [
        nd for nd in doc["networks"]["visual"]["nodes"] if nd["id"] != 0]


def _drop_field(doc):
    del _nodes(doc)[1]["children"]


def _dangling_child(doc):
    _nodes(doc)[0]["children"].append(999)


def _wrong_parent(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["parent"] = nodes[0]["children"][1]


def _child_listed_twice(doc):
    nodes = _nodes(doc)
    nodes[0]["children"].append(nodes[0]["children"][0])


def _unreachable_node(doc):
    nodes = _nodes(doc)
    nodes[0]["children"].pop()


def _empty_test(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["test"] = []


def _empty_test_token(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["test"] = [""]


def _whitespace_image_token(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["image"] = ["p q"]


def _non_string_token(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["image"] = [7]


def _children_not_a_list(doc):
    _nodes(doc)[0]["children"] = 5


def _test_is_a_string(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["test"] = "ab"


def _complete_not_a_bool(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["complete"] = "yes"


def _link_to_unknown_label(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["links"]["999"] = 1


def _link_to_label_root(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["links"]["0"] = 1


def _link_key_not_an_id(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["links"]["x"] = 1


def _link_count_zero(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["links"]["1"] = 0


def _link_count_text(doc):
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["links"]["1"] = "a"


def _networks_a_list(doc):
    doc["networks"] = []


def _node_not_an_object(doc):
    doc["networks"]["visual"]["nodes"].append(5)


def _siblings_share_a_test(doc):
    nodes = _nodes(doc)
    first, second = nodes[0]["children"][:2]
    nodes[second]["test"] = nodes[first]["test"]


def _children_out_of_order(doc):
    _nodes(doc)[0]["children"].reverse()


def _parent_false(doc):
    # false == 0, so only the type check tells it from the root's id
    nodes = _nodes(doc)
    nodes[nodes[0]["children"][0]]["parent"] = False


def _schema_version_true(doc):
    doc["schema_version"] = True


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_drop_root, "no root node", id="drop_root"),
    pytest.param(_drop_field, "missing field 'children'", id="drop_field"),
    pytest.param(_dangling_child, "child 999, which has no node",
                 id="dangling_child"),
    pytest.param(_wrong_parent, "names parent", id="wrong_parent"),
    pytest.param(_child_listed_twice, "listed twice",
                 id="child_listed_twice"),
    pytest.param(_unreachable_node, "cannot be reached",
                 id="unreachable_node"),
    pytest.param(_empty_test, "empty test link", id="empty_test"),
    pytest.param(_empty_test_token, "non-empty", id="empty_test_token"),
    pytest.param(_whitespace_image_token, "whitespace",
                 id="whitespace_image_token"),
    pytest.param(_non_string_token, "strings", id="non_string_token"),
    pytest.param(_children_not_a_list, "field 'children' holds 5",
                 id="children_not_a_list"),
    pytest.param(_test_is_a_string, "field 'test' holds 'ab'",
                 id="test_is_a_string"),
    pytest.param(_complete_not_a_bool, "field 'complete' holds 'yes'",
                 id="complete_not_a_bool"),
    pytest.param(_link_to_unknown_label, r"label node\(s\) \[999\]",
                 id="link_to_unknown_label"),
    pytest.param(_link_to_label_root, r"label node\(s\) \[0\]",
                 id="link_to_label_root"),
    pytest.param(_link_key_not_an_id, "naming link 'x': 1; a link needs",
                 id="link_key_not_an_id"),
    pytest.param(_link_count_zero, "naming link '1': 0; a link needs",
                 id="link_count_zero"),
    pytest.param(_link_count_text, "naming link '1': 'a'; a link needs",
                 id="link_count_text"),
    pytest.param(_networks_a_list, r"field 'networks' holds \[\]",
                 id="networks_a_list"),
    pytest.param(_node_not_an_object, "of the node table is not a JSON "
                 "object: 5", id="node_not_an_object"),
    pytest.param(_siblings_share_a_test, "have the same test link",
                 id="siblings_share_a_test"),
    pytest.param(_children_out_of_order, "not in ascending id order",
                 id="children_out_of_order"),
    pytest.param(_parent_false, "field 'parent' holds False",
                 id="parent_false"),
    pytest.param(_schema_version_true, "schema_version True",
                 id="schema_version_true"),
])
def test_malformed_nets_rejected(tmp_path, corrupt, message):
    memory, _ = random_trained_memory(2)
    assert len(memory.net("visual").root.children) >= 2
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError, match=message):
        load_memory(path)


def test_load_rebuilds_lengths_and_index(tmp_path):
    memory, _ = random_trained_memory(5)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    restored, _ = load_memory(path)
    for net in memory.nets.values():
        rnet = restored.net(net.modality)
        for node in net.nodes():
            rnode = rnet.node(node.node_id)
            assert rnode.contents_length == node.contents_length
            assert rnode.index == node.index


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("corrupt", [None, _dangling_child],
                         ids=["valid", "malformed"])
def test_load_leaves_the_collector_as_it_was(tmp_path, enabled, corrupt):
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    if corrupt:
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if corrupt:
            with pytest.raises(SnapshotError):
                load_memory(path)
        else:
            load_memory(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_no_collection_runs_while_a_snapshot_is_parsed_and_built(tmp_path):
    rng = random.Random(3)
    memory = MultiModalMemory()
    net = memory.net("visual")
    for _ in range(1500):
        net.learn(Pattern("visual", tuple(
            rng.choice("pqrstu") for _ in range(rng.randint(1, 6)))))
    # thousands of containers, far past the young generation's threshold
    assert net.node_count > 500
    path = tmp_path / "model.json"
    save_memory(path, memory)
    building = snapshot._load_doc.__code__
    during = []

    def probe(phase, info):
        frame = sys._getframe(1)
        while frame is not None and phase == "start":
            if frame.f_code is building:
                during.append(info["generation"])
                break
            frame = frame.f_back

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(probe)
    try:
        load_memory(path)
    finally:
        gc.callbacks.remove(probe)
        (gc.enable if was_enabled else gc.disable)()
    assert during == []


def test_loaded_memory_holds_no_reference_cycles(tmp_path):
    # What makes pausing the collector during a load safe: everything the
    # load builds is freed by reference counting alone.
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory, {"note": "x"})
    gc.collect()
    loaded = load_memory(path)
    assert loaded[0].net("visual").node_count > 1
    del loaded
    assert gc.collect() == 0


def test_children_follow_creation_order(tmp_path):
    rng = random.Random(8)
    net = DiscriminationNet("visual")
    created = []
    for _ in range(300):
        tokens = tuple(rng.choice("pqrs") for _ in range(rng.randint(1, 5)))
        event = net.learn(Pattern("visual", tokens))
        if event.kind == CREATED_NODE:
            created.append(event.node_id)
    assert len(created) > 20

    def expected(node):
        return [cid for cid in created
                if net.node(cid).parent == node.node_id]

    for node in net.nodes():
        assert node.children == expected(node)
    memory = MultiModalMemory()
    memory.nets["visual"] = net
    path = tmp_path / "model.json"
    save_memory(path, memory)
    restored = load_memory(path)[0].net("visual")
    for node in net.nodes():
        assert restored.node(node.node_id).children == expected(node)


# -- every mutation of a valid snapshot is rejected --------------------------

def _json_kind(value) -> str:
    """JSON's own value kinds: int and float are both numbers."""
    if type(value) in (int, float):
        return "number"
    return type(value).__name__


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _mutation_sites(doc):
    """(container, key, can_drop) for every value a mutation may replace or
    drop; ``meta`` is free-form and is only replaced as a whole."""
    sites = [(doc, key, key != "meta") for key in doc]
    for net in doc["networks"].values():
        sites.append((doc["networks"], net["modality"], False))
        sites += [(net, key, True) for key in net]
        for i, nd in enumerate(net["nodes"]):
            sites.append((net["nodes"], i, True))
            sites += [(nd, key, True) for key in nd]
            sites += [(nd["links"], key, False) for key in nd["links"]]
            sites += [(nd["children"], j, True)
                      for j in range(len(nd["children"]))]
            sites += [(nd[field], j, False) for field in ("test", "image")
                      for j in range(len(nd[field]))]
    return sites


_FUZZ_TEXT = dump_memory(random_trained_memory(2)[0], {"note": "x"})


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_snapshots_raise_snapshot_error(tmp_path_factory, data):
    doc = json.loads(_FUZZ_TEXT)
    action = data.draw(st.sampled_from(["drop", "swap", "reorder"]))
    if action == "reorder":
        lists = [nd["children"] for net in doc["networks"].values()
                 for nd in net["nodes"] if len(nd["children"]) >= 2]
        children = data.draw(st.sampled_from(lists))
        order = data.draw(st.permutations(children)
                          .filter(lambda p: p != children))
        children[:] = order
    else:
        sites = [site for site in _mutation_sites(doc)
                 if action == "swap" or site[2]]
        container, key, _ = data.draw(st.sampled_from(sites))
        if action == "drop":
            del container[key]
        else:
            kind = _json_kind(container[key])
            container[key] = data.draw(_JSON_VALUES.filter(
                lambda v: _json_kind(v) != kind))
    path = tmp_path_factory.getbasetemp() / "fuzzed-model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SnapshotError):
        load_memory(path)
