"""Snapshot round trips: byte-exact files, behaviour-preserving models,
schema version rejection."""

import gc
import json
import random
import re
import reprlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.attention import AttentionConfig, categorise
from chunknet.config import ConfigError, RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import CREATED_NODE, DiscriminationNet, \
    MultiModalMemory
from chunknet.patterns import Pattern
from chunknet import snapshot
from chunknet.snapshot import (SnapshotError, dump_memory, load_memory,
                               save_memory)
from test_reference import load_rows


# A schema v1 document: nodes as objects that also list their children.
V1_SNAPSHOT = {
    "schema_version": 1, "label_modality": "verbal",
    "seconds_per_new_chunk": 10.0, "seconds_per_update": 2.0, "meta": {},
    "networks": {"visual": {"modality": "visual", "clock_seconds": 0.0,
                            "nodes": [{"id": 0, "test": [], "image": [],
                                       "complete": False, "parent": None,
                                       "children": [], "links": {},
                                       "created_at": 0.0,
                                       "updated_at": 0.0}]}}}

# A schema v2 document: each net repeats its modality, and row 0 is the root,
# with the two node times that end every row.
V2_SNAPSHOT = {
    "schema_version": 2, "label_modality": "verbal",
    "seconds_per_new_chunk": 10.0, "seconds_per_update": 2.0, "meta": {},
    "networks": {"visual": {"modality": "visual", "clock_seconds": 0.0,
                            "nodes": [[None, "", "", False, {}, 0.0, 0.0]]}}}


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


def test_a_loaded_net_has_nothing_settled(tmp_path):
    memory, _ = random_trained_memory(2)
    assert all(net._walks for net in memory.nets.values())
    path = tmp_path / "model.json"
    save_memory(path, memory)
    loaded, _ = load_memory(path)
    assert not any(net._walks for net in loaded.nets.values())
    dumped = dump_memory(memory)
    for net in memory.nets.values():
        net._walks.clear()
    assert dump_memory(memory) == dumped == dump_memory(loaded)


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
        assert dump_memory(restored) == dump_memory(memory)
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


@pytest.mark.parametrize("doc", [V1_SNAPSHOT, V2_SNAPSHOT],
                         ids=["v1", "v2"])
def test_old_snapshot_asks_for_retraining(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SnapshotError, match=f"schema_version "
                       f"{doc['schema_version']} is not supported .*retrain "
                       f"the model with 'chunknet train'"):
        load_memory(path)


def test_a_net_with_only_its_root(tmp_path):
    # The root is never written: an empty node list is a net of one node.
    memory = MultiModalMemory()
    memory.net("visual")
    path = tmp_path / "model.json"
    save_memory(path, memory)
    assert json.loads(path.read_text())["networks"] == {
        "visual": {"clock_seconds": 0.0, "nodes": []}}
    restored, _ = load_memory(path)
    assert restored.net("visual").node_count == 1
    assert dump_memory(restored) == path.read_text()


def test_a_saved_file_has_no_root_row_and_no_net_modality(tmp_path):
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 3
    for modality, net_doc in doc["networks"].items():
        assert sorted(net_doc) == ["clock_seconds", "nodes"]
        net = memory.net(modality)
        assert len(net_doc["nodes"]) == net.node_count - 1
        assert [row[0] for row in net_doc["nodes"]] == \
            [node.parent for node in net.nodes()[1:]]


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


def _nan_update_cost():
    memory, _ = random_trained_memory(7)
    memory.seconds_per_update = float("nan")
    return memory, "nan"


def _infinite_clock():
    memory, _ = random_trained_memory(7)
    memory.net("visual").clock_seconds = float("inf")
    return memory, "inf"


@pytest.mark.parametrize("refused", [_nan_update_cost, _infinite_clock],
                         ids=["seconds_per_update_nan", "clock_seconds_inf"])
def test_a_value_json_refuses_is_named_and_nothing_is_written(tmp_path,
                                                              refused):
    # The fast encoder's error may not name the value; the pure-Python
    # encoder's does, on every supported Python.
    memory, value = refused()
    path = tmp_path / "model.json"
    with pytest.raises(ConfigError) as err:
        save_memory(path, memory)
    assert str(err.value) == (f"cannot write output file {path}: Out of "
                              f"range float values are not JSON compliant: "
                              f"{value}")
    assert list(tmp_path.iterdir()) == []


def _rows(doc):
    return doc["networks"]["visual"]["nodes"]


def _root_children(doc):
    """Row indices of the root's children: the rows whose parent is 0."""
    return [i for i, row in enumerate(_rows(doc)) if row[0] == 0]


def _first_child(doc):
    return _rows(doc)[_root_children(doc)[0]]


def _root_row(doc):
    # a would-be root row in front of node 1: only the code makes the root
    _rows(doc).insert(0, [None, "", "", False, {}])


def _drop_field(doc):
    _rows(doc)[0].pop()


def _dangling_child(doc):
    # a child whose parent row does not exist
    _rows(doc)[0][0] = 999


def _wrong_parent(doc):
    # a node cannot be its own parent
    _rows(doc)[0][0] = 1


def _negative_parent(doc):
    _rows(doc)[0][0] = -1


def _unreachable_node(doc):
    # two nodes naming each other as parent form a cycle off the tree
    rows = _rows(doc)
    rows[0][0], rows[1][0] = 2, 1


def _empty_test(doc):
    _first_child(doc)[1] = ""


def _whitespace_test(doc):
    _first_child(doc)[1] = " \t "


def _non_string_token(doc):
    _first_child(doc)[2] = [7]


def _test_is_a_list(doc):
    _first_child(doc)[1] = ["a", "b"]


def _complete_not_a_bool(doc):
    _first_child(doc)[3] = "yes"


def _link_to_unknown_label(doc):
    _first_child(doc)[4]["999"] = 1


def _link_to_label_root(doc):
    _first_child(doc)[4]["0"] = 1


def _link_key_not_an_id(doc):
    _first_child(doc)[4]["x"] = 1


def _link_count_zero(doc):
    _first_child(doc)[4]["1"] = 0


def _link_count_text(doc):
    _first_child(doc)[4]["1"] = "a"


def _networks_a_list(doc):
    doc["networks"] = []


def _node_not_a_list(doc):
    _rows(doc).append(5)


def _siblings_share_a_test(doc):
    first, second = _root_children(doc)[:2]
    _rows(doc)[second][1] = _rows(doc)[first][1]


def _parent_false(doc):
    # false == 0, so only the type check tells it from the root's id
    _rows(doc)[_root_children(doc)[0]][0] = False


def _schema_version_true(doc):
    doc["schema_version"] = True


def _negative_clock(doc):
    doc["networks"]["visual"]["clock_seconds"] = -5


def _negative_seconds_per_new_chunk(doc):
    doc["seconds_per_new_chunk"] = -10


def _infinite_seconds_per_update(doc):
    # written as 1e400, which JSON parses to an infinity
    doc["seconds_per_update"] = float("inf")


def _clock_past_the_largest_float(doc):
    # an integer that a float clock cannot hold
    doc["networks"]["visual"]["clock_seconds"] = 10 ** 400


def _linked_rows(doc):
    """The rows that carry naming links, in order; both link to label 1."""
    return [row for row in _rows(doc) if row[4]]


def _link_key_01_after_1(doc):
    # "01" is not how label 1 is written, even once "1" has been checked
    _linked_rows(doc)[-1][4] = {"01": 1}


def _link_count_under_checked_key(count):
    def corrupt(doc):
        _linked_rows(doc)[-1][4]["1"] = count
    return corrupt


def _link_to_unknown_label_late(doc):
    _rows(doc)[-1][4] = {"9": 1}


def _bad_row_after_unknown_label(doc):
    _rows(doc)[1][4] = {"9": 1}
    _rows(doc)[-1][0] = 999


def _label_net_last(doc):
    """The networks in the file with the label net listed after the visual
    net."""
    networks = doc["networks"]
    doc["networks"] = {"visual": networks["visual"],
                       "verbal": networks["verbal"]}


def _link_past_the_label_net_listed_last(doc):
    # the label net has one row, so label 2 does not exist
    _label_net_last(doc)
    _rows(doc)[-1][4] = {"2": 1}


def _label_modality_missing(doc):
    doc["label_modality"] = "auditory"


def _label_nodes_not_a_list_listed_last(doc):
    _label_net_last(doc)
    doc["networks"]["verbal"]["nodes"] = 5


def _full(message):
    return f"^{re.escape(message)}$"


def _link_message(node_id, key, count):
    return _full(f"'visual' net: node {node_id} has the naming link "
                 f"{key!r}: {count!r}; a link needs a label node id and a "
                 f"positive count")


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(_root_row, "node 1 field 'parent' holds None",
                 id="root_row"),
    pytest.param(_drop_field, "node 1 is missing field 'links'",
                 id="drop_field"),
    pytest.param(_dangling_child, "node 1 names parent 999",
                 id="dangling_child"),
    pytest.param(_wrong_parent, "node 1 names parent 1", id="wrong_parent"),
    pytest.param(_negative_parent, "node 1 names parent -1",
                 id="negative_parent"),
    pytest.param(_unreachable_node, "node 1 names parent 2",
                 id="unreachable_node"),
    pytest.param(_empty_test, "empty test link", id="empty_test"),
    pytest.param(_whitespace_test, "empty test link", id="whitespace_test"),
    pytest.param(_non_string_token, r"field 'image' holds \[7\]",
                 id="non_string_token"),
    pytest.param(_test_is_a_list, r"field 'test' holds \['a', 'b'\]",
                 id="test_is_a_list"),
    pytest.param(_complete_not_a_bool, "field 'complete' holds 'yes'",
                 id="complete_not_a_bool"),
    pytest.param(_link_to_unknown_label, _link_message(1, "999", 1),
                 id="link_to_unknown_label"),
    pytest.param(_link_to_label_root, _link_message(1, "0", 1),
                 id="link_to_label_root"),
    pytest.param(_link_key_not_an_id, "naming link 'x': 1; a link needs",
                 id="link_key_not_an_id"),
    pytest.param(_link_count_zero, "naming link '1': 0; a link needs",
                 id="link_count_zero"),
    pytest.param(_link_count_text, "naming link '1': 'a'; a link needs",
                 id="link_count_text"),
    pytest.param(_networks_a_list, r"field 'networks' holds \[\]",
                 id="networks_a_list"),
    pytest.param(_node_not_a_list, "is not a list of 5 fields: 5",
                 id="node_not_a_list"),
    pytest.param(_siblings_share_a_test, "have the same test link",
                 id="siblings_share_a_test"),
    pytest.param(_parent_false, "field 'parent' holds False",
                 id="parent_false"),
    pytest.param(_schema_version_true, "schema_version True",
                 id="schema_version_true"),
    pytest.param(_negative_clock, _full(
        "'visual' net field 'clock_seconds' must be a finite number >= 0, "
        "got -5"), id="negative_clock"),
    pytest.param(_negative_seconds_per_new_chunk, _full(
        "snapshot field 'seconds_per_new_chunk' must be a finite number "
        ">= 0, got -10"), id="negative_seconds_per_new_chunk"),
    pytest.param(_infinite_seconds_per_update, _full(
        "snapshot field 'seconds_per_update' must be a finite number >= 0, "
        "got inf"), id="infinite_seconds_per_update"),
    pytest.param(_clock_past_the_largest_float, _full(
        "'visual' net field 'clock_seconds' must be a finite number >= 0, "
        f"got {reprlib.repr(10 ** 400)}"),
        id="clock_past_the_largest_float"),
    pytest.param(_link_key_01_after_1, _link_message(3, "01", 1),
                 id="link_key_01_after_1"),
    *(pytest.param(_link_count_under_checked_key(count),
                   _link_message(3, "1", count),
                   id=f"link_count_{count!r}_under_checked_key")
      for count in (True, 0, 1.0)),
    pytest.param(_link_to_unknown_label_late, _link_message(4, "9", 1),
                 id="link_to_unknown_label_late"),
    # the first bad row in file order is reported
    pytest.param(_bad_row_after_unknown_label, _link_message(2, "9", 1),
                 id="bad_row_after_unknown_label"),
    pytest.param(_link_past_the_label_net_listed_last,
                 _link_message(4, "2", 1),
                 id="link_past_the_label_net_listed_last"),
    # no label net, so no link names a label node
    pytest.param(_label_modality_missing, _link_message(1, "1", 7),
                 id="label_modality_missing"),
    # the label net's fault lies after the first link in the file, which
    # then names no label node
    pytest.param(_label_nodes_not_a_list_listed_last,
                 _link_message(1, "1", 7),
                 id="label_nodes_not_a_list_listed_last"),
])
def test_malformed_nets_rejected(tmp_path, corrupt, message):
    memory, _ = random_trained_memory(2)
    assert len(memory.net("visual").root.children) >= 2
    assert memory.net("visual").node_count >= 3
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    assert [row[4] for row in _rows(doc)] == [{"1": 7}, {}, {"1": 2}, {}]
    corrupt(doc)
    # JSON has no infinity, but a number too large for a float parses to one
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    with pytest.raises(SnapshotError, match=message):
        load_memory(path)


def test_links_load_from_a_label_net_listed_last(tmp_path):
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    text = path.read_text()
    doc = json.loads(text)
    _label_net_last(doc)
    assert list(doc["networks"]) == ["visual", "verbal"]
    path.write_text(json.dumps(doc))
    assert dump_memory(load_memory(path)[0]) == text


def test_a_label_row_may_link_to_a_later_label_node(tmp_path):
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    labels = doc["networks"]["verbal"]["nodes"]
    labels.append([0, "B", "B", True, {}])
    labels[0][4] = {"2": 1}
    path.write_text(json.dumps(doc))
    restored, _ = load_memory(path)
    assert restored.label_net.node(1).naming_links == {2: 1}
    assert json.loads(dump_memory(restored)) == doc


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
    # the whole load: reading and parsing the file, then building the nets
    building = snapshot.load_memory.__code__
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


def test_load_promotes_what_it_built_past_the_young_generation(tmp_path):
    rng = random.Random(5)
    memory = MultiModalMemory()
    net = memory.net("visual")
    for _ in range(1500):
        net.learn(Pattern("visual", tuple(
            rng.choice("pqrstu") for _ in range(rng.randint(1, 6)))))
    path = tmp_path / "model.json"
    save_memory(path, memory)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        loaded, _ = load_memory(path)
        # pause before anything allocates, so that no collection runs
        # between the load and the look at what it left in generation 0
        gc.disable()
        young_count = gc.get_count()[0]
        young = {id(obj) for obj in gc.get_objects(generation=0)}
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert young_count < gc.get_threshold()[0]
    built = loaded.net("visual").nodes()
    assert len(built) > 500
    assert not any(id(node) in young or id(node.index) in young
                   for node in built)


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
    drop; ``meta`` is free-form and is only replaced as a whole. Whole rows
    are not dropped: the rows after a dropped one may still form a tree."""
    sites = [(doc, key, key != "meta") for key in doc]
    for modality, net in doc["networks"].items():
        sites.append((doc["networks"], modality, False))
        sites += [(net, key, True) for key in net]
        for i, row in enumerate(net["nodes"]):
            sites.append((net["nodes"], i, False))
            sites += [(row, j, True) for j in range(len(row))]
            sites += [(row[4], key, False) for key in row[4]]
    return sites


_FUZZ_TEXT = dump_memory(random_trained_memory(2)[0], {"note": "x"})


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_snapshots_raise_snapshot_error(tmp_path_factory, data):
    doc = json.loads(_FUZZ_TEXT)
    action = data.draw(st.sampled_from(["drop", "swap", "parent"]))
    if action == "parent":
        # a parent that is the node itself or a later one: row i holds
        # node i + 1
        rows = data.draw(st.sampled_from(
            [net["nodes"] for net in doc["networks"].values()]))
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][0] = data.draw(st.integers(row + 1, len(rows) + 2))
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


# -- a loaded image stays text until it is read ------------------------------

# Texts of one image: canonical (tokens joined by single spaces, drawn most
# often), or split to the same tokens but not canonical. The loader keeps
# either as text until the first read of ``image`` or ``size`` splits it.
# U+200B is not whitespace, so it stays inside its token.
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\u3000"])
_ENDS = st.sampled_from(["", "", "", " ", "  ", "\t"])
_EXTRA_TOKENS = st.lists(st.sampled_from(["a", "b", "ab", "a\u200bb"]),
                         max_size=3)


@st.composite
def _image_texts(draw, count):
    """``count`` image texts; the image of node ``i`` is empty or starts
    with its test link ``t{i} u{i}``, so that learning the image reaches
    it."""
    texts = []
    for node_id in range(1, count + 1):
        tokens = []
        if draw(st.integers(0, 4)):
            tokens = [f"t{node_id}", f"u{node_id}", *draw(_EXTRA_TOKENS)]
        text = ""
        for token in tokens:
            text += (draw(_SEPARATORS) if text else "") + token
        texts.append(draw(_ENDS) + text + draw(_ENDS))
    return texts


def _loaded_images(texts):
    """The package's memory and the reference, loaded from one net whose
    node ``i`` is a root child with test link ``t{i} u{i}`` and image text
    ``texts[i - 1]``. With two-token test links, an empty image's size
    (its contents length, 2) differs from the 1 a miscounted ``""`` gives."""
    rows = [[0, f"t{node_id} u{node_id}", text, False, {}]
            for node_id, text in enumerate(texts, 1)]
    return load_rows({"visual": rows})


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(_image_texts))
def test_a_loaded_image_is_exactly_its_split_text(texts):
    live, ref = _loaded_images(texts)
    net, rnet = live.net("visual"), ref.net("visual")
    nodes = [net.node(node_id) for node_id in range(1, len(texts) + 1)]
    # before any read of an image, then after the first (the dump reads
    # them all), then after a second
    for _ in range(3):
        assert [node.size for node in nodes] == \
            [rnet.size(node.node_id) for node in nodes]
        assert dump_memory(live) == ref.dump()
    for node, text in zip(nodes, texts):
        assert node.image == tuple(text.split())
        assert node.size == (len(node.image) or node.contents_length)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(_image_texts), st.data())
def test_a_learn_that_grows_a_loaded_image_updates_its_size(texts, data):
    live, ref = _loaded_images(texts)
    net, rnet = live.net("visual"), ref.net("visual")
    node_id = data.draw(st.integers(1, len(texts)))
    node = net.node(node_id)
    before = len(tuple(texts[node_id - 1].split()))
    # The first learn may make "z" a root primitive; the next grows the
    # image, or gives it its first token.
    tokens = (tuple(texts[node_id - 1].split()) or
              (f"t{node_id}", f"u{node_id}")) + ("z",)
    for _ in range(2):
        assert net.learn(Pattern("visual", tokens)).kind == \
            rnet.learn(tokens)[0]
    assert len(node.image) == before + 1
    assert node.image == rnet.nodes[node_id].image
    assert node.size == len(node.image) == rnet.size(node_id)
    assert [n.size for n in net.nodes()] == \
        [rnet.size(i) for i in range(net.node_count)]
    assert dump_memory(live) == ref.dump()

