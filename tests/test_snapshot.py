"""Snapshot round trips: byte-exact files, behaviour-preserving models,
schema version rejection."""

import contextlib
import gc
import io
import json
import random
import re
import reprlib
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunknet.attention import AttentionConfig, categorise
from chunknet.config import ConfigError, RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import CREATED_NODE, DiscriminationNet, \
    MultiModalMemory
from chunknet.patterns import Pattern
from chunknet import cli, snapshot
from chunknet.snapshot import (SnapshotError, dump_memory, load_memory,
                               save_memory)
from reference import layout
from test_reference import built_models_and_stimuli, load_rows, \
    models_and_stimuli


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

# A schema v3 document: each net's rows in one list, row ``i`` node ``i + 1``
# as ``[parent, test, image, complete, links]``.
V3_SNAPSHOT = {
    "schema_version": 3, "label_modality": "verbal",
    "seconds_per_new_chunk": 10.0, "seconds_per_update": 2.0, "meta": {},
    "networks": {"verbal": {"clock_seconds": 10.0,
                            "nodes": [[0, "T", "T", True, {}]]},
                 "visual": {"clock_seconds": 10.0,
                            "nodes": [[0, "1", "1 0", True, {"1": 1}]]}}}


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


@pytest.mark.parametrize("doc", [V1_SNAPSHOT, V2_SNAPSHOT, V3_SNAPSHOT],
                         ids=["v1", "v2", "v3"])
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
        "visual": {"clock_seconds": 0.0, "segments": {}}}
    restored, _ = load_memory(path)
    assert restored.net("visual").node_count == 1
    assert dump_memory(restored) == path.read_text()


def test_a_saved_file_has_no_root_row_and_no_net_modality(tmp_path):
    # Each row goes under the first test token of its root child, and a
    # segment lists its rows by id.
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 4
    for modality, net_doc in doc["networks"].items():
        assert sorted(net_doc) == ["clock_seconds", "segments"]
        net = memory.net(modality)
        rows = [row for rows in net_doc["segments"].values() for row in rows]
        assert sorted(row[:2] for row in rows) == \
            [[node.node_id, node.parent] for node in net.nodes()[1:]]
        for key, rows in net_doc["segments"].items():
            assert [row[0] for row in rows] == sorted(row[0] for row in rows)
            for node_id, *_ in rows:
                assert net.contents(node_id).tokens[0] == key
    assert list(_segments(doc)) == ["p", "q", "r"]


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


def _segments(doc, modality="visual"):
    return doc["networks"][modality]["segments"]


def _node(doc, node_id):
    """The visual row of node ``node_id``: ``[id, parent, test, image,
    complete, links]``."""
    return next(row for rows in _segments(doc).values() for row in rows
                if row[0] == node_id)


# The visual net of ``random_trained_memory(2)``: node 1 "r" and its child
# node 3 "q" in segment "r", node 2 "q" in segment "q", node 4 "p" in
# segment "p". Each corruption returns the segments a query must reach to
# meet its fault, or None when every load meets it.
VISUAL_KEYS = ["p", "q", "r"]


def _root_row(doc):
    # a would-be root row in front of node 1: only the code makes the root
    _segments(doc)["r"].insert(0, [0, None, "", "", False, {}])
    return ["r"]


def _drop_field(doc):
    _node(doc, 1).pop()
    return ["r"]


def _set_parent(node_id, parent):
    def corrupt(doc):
        _node(doc, node_id)[1] = parent
        return ["r"]
    return corrupt


# a child whose parent row does not exist
_dangling_child = _set_parent(1, 999)
# a node cannot be its own parent
_wrong_parent = _set_parent(1, 1)
_negative_parent = _set_parent(1, -1)
# false == 0, so only the type check tells it from the root's id
_parent_false = _set_parent(1, False)


def _unreachable_node(doc):
    # two nodes naming each other as parent form a cycle off the tree
    _node(doc, 1)[1], _node(doc, 3)[1] = 3, 1
    return ["r"]


def _set_field(field, value, node_id=1):
    def corrupt(doc):
        _node(doc, node_id)[field] = value
        return ["r"]
    return corrupt


_empty_test = _set_field(2, "")
_whitespace_test = _set_field(2, " \t ")
_non_string_token = _set_field(3, [7])
_test_is_a_list = _set_field(2, ["a", "b"])
_complete_not_a_bool = _set_field(4, "yes")


def _add_link(key, count, node_id=1):
    def corrupt(doc):
        _node(doc, node_id)[5][key] = count
        return ["r"]
    return corrupt


_link_to_unknown_label = _add_link("999", 1)
_link_to_label_root = _add_link("0", 1)
_link_key_not_an_id = _add_link("x", 1)
_link_count_zero = _add_link("1", 0)
_link_count_text = _add_link("1", "a")


def _networks_a_list(doc):
    doc["networks"] = []


def _node_not_a_list(doc):
    _segments(doc)["r"].append(5)
    return ["r"]


def _siblings_share_a_test(doc):
    # node 2 tests "r" beside node 1, in node 1's segment
    row = _segments(doc).pop("q")[0]
    row[2] = "r"
    _segments(doc)["r"].insert(1, row)
    return ["r"]


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


def _link_key_01_after_1(doc):
    # "01" is not how label 1 is written, even once "1" has been checked
    _node(doc, 3)[5] = {"01": 1}
    return ["r"]


def _link_count_under_checked_key(count):
    return _set_field(5, {"1": count}, node_id=3)


def _link_to_unknown_label_late(doc):
    _node(doc, 4)[5] = {"9": 1}
    return ["p"]


def _bad_row_after_unknown_label(doc):
    _node(doc, 2)[5] = {"9": 1}
    _node(doc, 3)[1] = 999
    return ["q"]


def _label_net_last(doc):
    """The networks in the file with the label net listed after the visual
    net."""
    networks = doc["networks"]
    doc["networks"] = {"visual": networks["visual"],
                       "verbal": networks["verbal"]}


def _link_past_the_label_net_listed_last(doc):
    # the label net has one row, so label 2 does not exist
    _label_net_last(doc)
    _node(doc, 4)[5] = {"2": 1}
    return ["p"]


def _label_modality_missing(doc):
    doc["label_modality"] = "auditory"
    return ["r"]


def _label_nodes_not_a_list_listed_last(doc):
    _label_net_last(doc)
    doc["networks"]["verbal"]["segments"] = 5


def _segment_not_a_list(doc):
    # a file-level fact, checked before any row, whatever a query reaches
    _segments(doc)["p"] = 5


def _duplicate_id_across_segments(doc):
    _node(doc, 4)[0] = 2
    return ["p", "q"]


def _row_given_twice(doc):
    _segments(doc)["r"].insert(1, list(_node(doc, 1)))
    return ["r"]


def _gap_in_the_ids(doc):
    _node(doc, 4)[0] = 5
    return ["p"]


def _root_child_under_the_wrong_key(doc):
    # node 2, testing "q", moved in front of node 4 in segment "p"
    _segments(doc)["p"].insert(0, _segments(doc).pop("q")[0])
    return ["p"]


def _rows_out_of_order(doc):
    # node 2, now a root child testing "r s", after node 3 in segment "r"
    row = _segments(doc).pop("q")[0]
    row[2] = "r s"
    _segments(doc)["r"].append(row)
    return ["r"]


def _parent_outside_its_segment(doc):
    # node 3, in segment "r", under node 2 of segment "q"
    _node(doc, 3)[1] = 2
    return ["r"]


def _copy_of_node_1_with_id(node_id):
    # JSON 1.0 and true compare equal to 1, so only the position tells the
    # copy from node 1, the row in front of it
    def corrupt(doc):
        _segments(doc)["r"].insert(1, [node_id, *_node(doc, 1)[1:]])
        return ["r"]
    return corrupt


def _six_letter_row(doc):
    # unpacks into six fields, each a one-letter string
    _segments(doc)["r"].insert(1, "abcdef")
    return ["r"]


def _laid_out_with(old, new):
    """A laid-out file with ``old`` replaced by ``new``, so the file is laid
    out whatever the writer; a query that reaches segment 'p', node 4's,
    meets its fault."""
    def corrupt(doc):
        return ["p"]

    def edit(text):
        assert old in text
        return text.replace(old, new)
    corrupt.edit = edit
    return corrupt


# Rows that break two rules, each reported by the rule checked first:
# shape, the field types in field order (or a missing field), id range,
# duplicate id, ascending ids, naming links, root-child key, parent.

def _long_row_with_a_text_id(doc):
    _segments(doc)["r"][0] = ["1", *_node(doc, 1)[1:], "extra"]
    return ["r"]


def _short_row_with_a_bad_test(doc):
    del _node(doc, 1)[3:]
    _node(doc, 1)[2] = 5
    return ["r"]


def _bad_parent_and_complete(doc):
    _node(doc, 1)[1], _node(doc, 1)[4] = "0", "yes"
    return ["r"]


def _id_past_the_table_and_links_not_an_object(doc):
    _node(doc, 3)[5], _node(doc, 3)[0] = "x", 9
    return ["r"]


def _id_past_the_table_and_parent_outside_its_segment(doc):
    # node 3, in segment "r", renumbered 9 and put under node 2 of "q"
    _node(doc, 3)[1], _node(doc, 3)[0] = 2, 9
    return ["r"]


def _the_root_id_given_again(doc):
    # id 0 is outside the rows' ids before it repeats the root's
    _node(doc, 1)[0] = 0
    return ["r"]


def _rows_out_of_order_with_a_bad_link(doc):
    _rows_out_of_order(doc)
    _node(doc, 2)[5] = {"9": 1}
    return ["r"]


def _root_child_under_the_wrong_key_with_a_bad_link(doc):
    _root_child_under_the_wrong_key(doc)
    _node(doc, 2)[5] = {"9": 1}
    return ["p"]


def _parent_outside_its_segment_with_a_bad_link(doc):
    _parent_outside_its_segment(doc)
    _node(doc, 3)[5] = {"0": 1}
    return ["r"]


def _full(message):
    return f"^{re.escape(message)}$"


def _link_message(node_id, key, count):
    return _full(f"'visual' net: node {node_id} has the naming link "
                 f"{key!r}: {count!r}; a link needs a label node id and a "
                 f"positive count")


MALFORMED = [
    pytest.param(_root_row, "node 0 field 'parent' holds None",
                 id="root_row"),
    pytest.param(_drop_field, "node 1 is missing field 'links'",
                 id="drop_field"),
    pytest.param(_dangling_child, "node 1 names parent 999",
                 id="dangling_child"),
    pytest.param(_wrong_parent, "node 1 names parent 1", id="wrong_parent"),
    pytest.param(_negative_parent, "node 1 names parent -1",
                 id="negative_parent"),
    pytest.param(_unreachable_node, "node 1 names parent 3",
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
    pytest.param(_node_not_a_list, _full(
        "'visual' net: row 2 of segment 'r' is not a list of 6 fields: 5"),
        id="node_not_a_list"),
    pytest.param(_siblings_share_a_test, "have the same test link",
                 id="siblings_share_a_test"),
    pytest.param(_parent_false, "node 1 field 'parent' holds False",
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
    # every net's fields are checked before any row, so the label net's
    # fault is reported though a link comes before it in the file
    pytest.param(_label_nodes_not_a_list_listed_last, _full(
        "'verbal' net field 'segments' holds 5"),
        id="label_nodes_not_a_list_listed_last"),
    pytest.param(_segment_not_a_list, _full(
        "'visual' net segment 'p' holds 5; a segment is a list of rows"),
        id="segment_not_a_list"),
    pytest.param(_duplicate_id_across_segments,
                 _full("'visual' net: node 2 appears twice"),
                 id="duplicate_id_across_segments"),
    pytest.param(_row_given_twice, _full("'visual' net: node 1 appears twice"),
                 id="row_given_twice"),
    pytest.param(_gap_in_the_ids, _full(
        "'visual' net: node 5 is outside 1 to 4: a net's 4 rows hold the ids "
        "1 to 4, each once"), id="gap_in_the_ids"),
    pytest.param(_root_child_under_the_wrong_key, _full(
        "'visual' net: node 2 is a root child testing 'q' in segment 'p'; a "
        "root child's first test token is its segment's key"),
        id="root_child_under_the_wrong_key"),
    pytest.param(_rows_out_of_order, _full(
        "'visual' net: node 2 comes after node 3 in its segment; a "
        "segment's rows ascend by id"), id="rows_out_of_order"),
    pytest.param(_parent_outside_its_segment, _full(
        "'visual' net: node 3 names parent 2; a parent must be the root or "
        "an earlier node of its segment"), id="parent_outside_its_segment"),
    pytest.param(_copy_of_node_1_with_id(1.0), _full(
        "'visual' net: row 1 of segment 'r' field 'id' holds 1.0"),
        id="copy_of_node_1_with_id_1.0"),
    pytest.param(_copy_of_node_1_with_id(True), _full(
        "'visual' net: row 1 of segment 'r' field 'id' holds True"),
        id="copy_of_node_1_with_id_true"),
    pytest.param(_long_row_with_a_text_id, _full(
        "'visual' net: row 0 of segment 'r' is not a list of 6 fields: "
        + reprlib.repr(["1", 0, "r", "r", True, {"1": 7}, "extra"])),
        id="long_row_with_a_text_id"),
    pytest.param(_six_letter_row, _full(
        "'visual' net: row 1 of segment 'r' is not a list of 6 fields: "
        "'abcdef'"), id="six_letter_row"),
    pytest.param(_short_row_with_a_bad_test,
                 _full("'visual' net: node 1 field 'test' holds 5"),
                 id="short_row_with_a_bad_test"),
    pytest.param(_bad_parent_and_complete,
                 _full("'visual' net: node 1 field 'parent' holds '0'"),
                 id="bad_parent_and_complete"),
    pytest.param(_id_past_the_table_and_links_not_an_object,
                 _full("'visual' net: node 9 field 'links' holds 'x'"),
                 id="id_past_the_table_and_links_not_an_object"),
    pytest.param(_id_past_the_table_and_parent_outside_its_segment, _full(
        "'visual' net: node 9 is outside 1 to 4: a net's 4 rows hold the ids "
        "1 to 4, each once"),
        id="id_past_the_table_and_parent_outside_its_segment"),
    pytest.param(_the_root_id_given_again, _full(
        "'visual' net: node 0 is outside 1 to 4: a net's 4 rows hold the ids "
        "1 to 4, each once"), id="the_root_id_given_again"),
    pytest.param(_rows_out_of_order_with_a_bad_link, _full(
        "'visual' net: node 2 comes after node 3 in its segment; a "
        "segment's rows ascend by id"),
        id="rows_out_of_order_with_a_bad_link"),
    pytest.param(_root_child_under_the_wrong_key_with_a_bad_link,
                 _link_message(2, "9", 1),
                 id="root_child_under_the_wrong_key_with_a_bad_link"),
    pytest.param(_parent_outside_its_segment_with_a_bad_link,
                 _link_message(3, "0", 1),
                 id="parent_outside_its_segment_with_a_bad_link"),
    *(pytest.param(_laid_out_with(old, new), _full(
        "'visual' net segment 'p' is not one line with a tab before each "
        "row"), id=name) for name, old, new in [
            ("segment_line_with_a_tab_dropped", '"p":[\t[4,', '"p":[[4,'),
            ("segment_line_with_a_tab_added", '"p":[\t[4,', '"p":[\t\t[4,'),
            # segment 'q' after 'p' on its line, without its tab
            ("two_segments_on_one_line", ',\n"q":[\t[2,', ',"q":[[2,')]),
    # A query that reaches only 'p' sizes the table from the tabs of the
    # lines it does not decode, 3, so node 4 is past it; the query then
    # refuses the file as a full load does, which names 'r'.
    pytest.param(_laid_out_with('"r":[\t[1,', '"r":[[1,'), _full(
        "'visual' net segment 'r' is not one line with a tab before each "
        "row"), id="unreached_segment_line_with_a_tab_dropped"),
]


def _corrupted(tmp_path, corrupt, write=json.dumps):
    """A snapshot of ``random_trained_memory(2)`` that ``corrupt`` edits,
    written by ``write``, and the segments a query must reach to meet its
    fault."""
    memory, _ = random_trained_memory(2)
    assert len(memory.net("visual").root.children) >= 2
    assert memory.net("visual").node_count >= 3
    path = tmp_path / "model.json"
    save_memory(path, memory)
    doc = json.loads(path.read_text())
    assert [_node(doc, node_id)[5] for node_id in range(1, 5)] == \
        [{"1": 7}, {}, {"1": 2}, {}]
    keys = corrupt(doc) or VISUAL_KEYS
    edit = getattr(corrupt, "edit", None)
    text = write(doc) if edit is None else edit(layout(doc))
    # JSON has no infinity, but a number too large for a float parses to one
    path.write_text(text.replace("Infinity", "1e400"))
    return path, keys


def _query(tmp_path, path, command, tokens):
    """Exit code, stdout and stderr of ``command`` on ``path``, with
    ``tokens`` as the stimulus of a categorise or retrieve."""
    argv = [command, "--model", str(path)]
    if command != "inspect":
        stimulus = tmp_path / "stimulus.txt"
        stimulus.write_text(" ".join(tokens), encoding="utf-8")
        argv += ["--input", str(stimulus)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# A snapshot written on one line, and laid out as ``dump_memory`` writes it.
WRITERS = (json.dumps, layout)


@pytest.mark.parametrize("corrupt, message", MALFORMED)
def test_malformed_nets_rejected(tmp_path, corrupt, message):
    # A full load and inspect refuse every case, and so does a query whose
    # stimulus reaches the bad segment, with the same message, whether the
    # file is written on one line or laid out.
    for write in WRITERS:
        path, keys = _corrupted(tmp_path, corrupt, write)
        with pytest.raises(SnapshotError, match=message) as refused:
            load_memory(path)
        line = f"error: {refused.value}\n"
        assert _query(tmp_path, path, "inspect", ()) == (2, "", line)
        for reached in (keys, VISUAL_KEYS):
            with pytest.raises(SnapshotError) as reach_refused:
                load_memory(path,
                            lambda meta: Pattern("visual", tuple(reached)))
            assert str(reach_refused.value) == str(refused.value)
            for command in ("categorise", "retrieve"):
                assert _query(tmp_path, path, command, reached) == \
                    (2, "", line)


@pytest.mark.parametrize("corrupt, tokens", [
    pytest.param(_dangling_child, "p q", id="dangling_child"),
    pytest.param(_parent_outside_its_segment, "q p q",
                 id="parent_outside_its_segment"),
    pytest.param(_duplicate_id_across_segments, "q r",
                 id="duplicate_id_across_segments"),
    pytest.param(_gap_in_the_ids, "r q r q", id="gap_in_the_ids"),
    pytest.param(_link_to_unknown_label_late, "r q r",
                 id="link_to_unknown_label_late"),
])
def test_a_query_builds_only_the_segments_its_stimulus_reaches(
        tmp_path, corrupt, tokens):
    # A bad row in a segment the stimulus does not reach is never built, so
    # the query answers as on the sound file; inspect still refuses it.
    memory, _ = random_trained_memory(2)
    sound = tmp_path / "sound" / "model.json"
    sound.parent.mkdir()
    save_memory(sound, memory)
    for write in WRITERS:
        path, _ = _corrupted(tmp_path, corrupt, write)
        assert _query(tmp_path, path, "inspect", ())[0] == 2
        for command in ("categorise", "retrieve"):
            answer = _query(tmp_path, path, command, tokens.split())
            assert answer[0] in (0, 4)
            assert answer == _query(tmp_path, sound, command, tokens.split())


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
    labels = _segments(doc, "verbal")
    labels["B"] = [[2, 0, "B", "B", True, {}]]
    labels["A"][0][5] = {"2": 1}
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


def _linked_from_the_table(net):
    """The first test token of the root child above each node in ``net``'s
    table that holds a naming link; a query's load leaves None for a row
    not built."""
    tokens = set()
    for node in net.nodes():
        if node is not None and node.naming_links:
            while node.parent:
                node = net.node(node.parent)
            tokens.add(node.test[0])
    return tokens


def _assert_linked_tokens(memory):
    for net in memory.nets.values():
        assert net.linked_tokens == _linked_from_the_table(net)


_TOKENS = st.lists(st.sampled_from("abcpqrsz"), min_size=1,
                   max_size=6).map(tuple)


@settings(deadline=None, database=None)
@given(st.data())
def test_linked_tokens_follow_the_node_table(tmp_path_factory, data):
    # Each net's ``linked_tokens`` equals the set derived from its node
    # table: after training, after a full load and after a query's load,
    # and after more presentations on a loaded memory add links.
    memory, stimuli = data.draw(st.one_of(
        st.integers(0, 10**4).map(
            lambda seed: (random_trained_memory(seed)[0], [])),
        models_and_stimuli().map(lambda case: (case[0], case[3])),
        built_models_and_stimuli().map(lambda case: (case[0], case[3]))))
    _assert_linked_tokens(memory)
    path = tmp_path_factory.getbasetemp() / "linked-model.json"
    save_memory(path, memory)
    loaded, _ = load_memory(path)
    _assert_linked_tokens(loaded)
    stimuli = [p.tokens for p in stimuli] + data.draw(
        st.lists(_TOKENS, min_size=1, max_size=3))
    for tokens in stimuli:
        _assert_linked_tokens(load_memory(
            path, lambda meta: Pattern("visual", tokens))[0])
    samples = [Sample(Pattern("visual", body), Pattern("verbal", (label,)))
               for body, label in data.draw(st.lists(st.tuples(
                   _TOKENS, st.sampled_from("ABTF")), min_size=1,
                   max_size=4))]
    trainer = Trainer(loaded, RunConfig())
    for _ in range(data.draw(st.integers(1, 8))):
        for sample in samples:
            trainer.present(sample)
    _assert_linked_tokens(loaded)


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


def _learned_memory(seed):
    """A visual net of 1,500 learns over six tokens: thousands of
    containers, far past the young generation's threshold."""
    rng = random.Random(seed)
    memory = MultiModalMemory()
    net = memory.net("visual")
    for _ in range(1500):
        net.learn(Pattern("visual", tuple(
            rng.choice("pqrstu") for _ in range(rng.randint(1, 6)))))
    assert net.node_count > 500
    return memory


# A full load, and a query's load, which builds the segments of three of
# the six tokens.
_REACHES = [None, lambda meta: Pattern("visual", ("p", "q", "r"))]


def test_no_collection_runs_while_a_snapshot_is_parsed_and_built(tmp_path):
    path = tmp_path / "model.json"
    save_memory(path, _learned_memory(3))
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
        for reach in _REACHES:
            load_memory(path, reach)
    finally:
        gc.callbacks.remove(probe)
        (gc.enable if was_enabled else gc.disable)()
    assert during == []


def test_loaded_memory_holds_no_reference_cycles(tmp_path):
    """What makes pausing the collector during a load safe: everything the
    load builds is freed by reference counting alone.

    A load allocates tens of thousands of containers that all survive,
    which would otherwise set off dozens of young collections per load and
    a full one every few loads. So ``load_memory`` pauses the collector
    from reading the file until the last node is built: the file is read
    and parsed inside the paused window, and a document that is not a JSON
    object is refused there. That is safe because the loaded memory holds
    no reference cycles: parents, children and link targets are integer
    ids, the parsed document is freed by reference counting, and so is the
    memory when the caller drops it. A query's load, which leaves None for
    the rows it does not build, holds none either. What a load that
    succeeds promotes: see the next test."""
    memory, _ = random_trained_memory(2)
    path = tmp_path / "model.json"
    save_memory(path, memory, {"note": "x"})
    for reach in _REACHES:
        gc.collect()
        loaded = load_memory(path, reach)
        assert loaded[0].net("visual").node_count > 1
        del loaded
        assert gc.collect() == 0


def test_load_promotes_what_it_built_past_the_young_generation(tmp_path):
    """A load that succeeds promotes, while the collector is still paused,
    every tracked object into the oldest generation (``gc.freeze()`` then
    ``gc.unfreeze()``, two list splices), and so resets the young count: no
    young collection traverses the loaded nodes and index dicts afterwards.

    Promotion also moves the caller's young objects to the oldest
    generation; any reference cycle among them then waits for a full
    collection, so a caller that loads in a loop should leave no cyclic
    garbage (``chunknet`` builds its argument parser once per process for
    this), and objects a caller froze with ``gc.freeze()`` are unfrozen. A
    failed load promotes nothing, since the frames its traceback holds may
    form cycles."""
    path = tmp_path / "model.json"
    save_memory(path, _learned_memory(5))
    for reach, least in zip(_REACHES, (500, 250)):
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            loaded, _ = load_memory(path, reach)
            # pause before anything allocates, so that no collection runs
            # between the load and the look at what it left in generation 0
            gc.disable()
            young_count = gc.get_count()[0]
            young = {id(obj) for obj in gc.get_objects(generation=0)}
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert young_count < gc.get_threshold()[0]
        built = [node for node in loaded.net("visual").nodes()
                 if node is not None]
        assert len(built) > least
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
    and segments are not dropped: the rows left may still form a tree."""
    sites = [(doc, key, key != "meta") for key in doc]
    for modality, net in doc["networks"].items():
        sites.append((doc["networks"], modality, False))
        sites += [(net, key, True) for key in net]
        for key, rows in net["segments"].items():
            sites.append((net["segments"], key, False))
            for i, row in enumerate(rows):
                sites.append((rows, i, False))
                sites += [(row, j, True) for j in range(len(row))]
                sites += [(row[5], link, False) for link in row[5]]
    return sites


_FUZZ_TEXT = dump_memory(random_trained_memory(2)[0], {"note": "x"})


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_snapshots_raise_snapshot_error(tmp_path_factory, data):
    doc = json.loads(_FUZZ_TEXT)
    action = data.draw(st.sampled_from(["drop", "swap", "parent"]))
    if action == "parent":
        # a parent that is the node itself or a later one
        row = data.draw(st.sampled_from(
            [row for net in doc["networks"].values()
             for rows in net["segments"].values() for row in rows]))
        row[1] = data.draw(st.integers(row[0], row[0] + 4))
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


# -- the layout: any text JSON reads loads; a broken one gets JSON's error ---

# A JSON string, a run of other non-space characters (a number, true, false,
# null), or one punctuation character.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s"{}\[\],:]+|[{}\[\],:]')
_GAPS = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\n\t", "\t\n", "\n\n"])


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_a_text_json_reads_is_never_refused_as_not_json(tmp_path_factory,
                                                        data):
    # The dumped text with the whitespace between some of its tokens
    # changed: JSON reads the same document, so a full load either gives
    # the dumped memory or refuses a line that looks like a segment line
    # and does not fill its line or count its rows by tabs. A query's load
    # may meet other faults of such a line, but never JSON's.
    tokens = _JSON_TOKEN.findall(_FUZZ_TEXT)
    gaps = re.split(_JSON_TOKEN, _FUZZ_TEXT)
    assert "".join(gap + token for gap, token in zip(gaps, tokens + [""])) \
        == _FUZZ_TEXT
    for at, gap in data.draw(st.lists(
            st.tuples(st.integers(0, len(tokens)), _GAPS), max_size=12)):
        gaps[at] = gap
    text = "".join(gap + token for gap, token in zip(gaps, tokens + [""]))
    assert json.loads(text) == json.loads(_FUZZ_TEXT)
    path = tmp_path_factory.getbasetemp() / "laid-out-model.json"
    path.write_text(text, encoding="utf-8")
    try:
        memory, meta = load_memory(path)
    except SnapshotError as exc:
        assert re.fullmatch(r"'(visual|verbal)' net segment '\w' is not one "
                            r"line with a tab before each row", str(exc))
        memory = None
    else:
        assert dump_memory(memory, meta) == _FUZZ_TEXT
    stimulus = Pattern("visual", tuple(data.draw(st.lists(
        st.sampled_from(VISUAL_KEYS), min_size=1, max_size=4))))
    try:
        reached, _ = load_memory(path, lambda meta: stimulus)
    except SnapshotError as exc:
        assert memory is None and "JSON" not in str(exc)
    else:
        if memory is not None:
            cfg = AttentionConfig(span=6)
            assert categorise(reached, stimulus, cfg) == \
                categorise(memory, stimulus, cfg)


@pytest.mark.parametrize("old, new", [
    # a "segments" object in the meta, laid out as a net's
    ('"meta":{"note":"x"}',
     '"meta":{"note":"x","segments":{\n"k":[\t[1]],\n"m":[\t2]\n}}'),
    # segment 'q' given twice, as JSON reads it: the later one holds
    ('\n"q":[', '\n"q":[\t[9,0,"q","q",false,{}],\t[5]],\n"q":['),
], ids=["segments_in_the_meta", "segment_key_given_twice"])
def test_segment_lines_that_are_not_a_nets_segments_are_read_whole(
        tmp_path, old, new):
    # Lines that start with '"' after a "segments":{ that is not a net's,
    # or a key given twice, send the text to be decoded whole.
    text = _FUZZ_TEXT.replace(old, new)
    assert text != _FUZZ_TEXT
    path = tmp_path / "model.json"
    path.write_text(text)
    meta = json.loads(text)["meta"]
    for reach in _REACHES:
        assert load_memory(path, reach)[1] == meta
    assert dump_memory(load_memory(path)[0], {"note": "x"}) == _FUZZ_TEXT


def _segment_line_keys(text):
    """The key of each line of ``text`` that is a segment line, else
    None."""
    keys, opened = [], False
    for line in text.split("\n"):
        segment = opened and line.startswith('"')
        keys.append(json.loads(line[:line.index('":[') + 1])
                    if segment else None)
        opened = segment or line.endswith('"segments":{')
    return keys


@settings(max_examples=300, deadline=None, database=None)
@given(st.booleans(), st.data())
def test_a_broken_character_gets_the_json_error_of_the_whole_file(
        tmp_path_factory, in_segment, data):
    # One character of the dumped text replaced, on a line outside the
    # segment lines or on a segment line the query reaches: a full load and
    # the query's load give JSON's own message for the whole text, with its
    # line and column.
    lines = _FUZZ_TEXT.split("\n")
    keys = _segment_line_keys(_FUZZ_TEXT)
    index = data.draw(st.sampled_from(
        [i for i, key in enumerate(keys)
         if (key is not None) == in_segment and lines[i]]))
    line = lines[index]
    column = data.draw(st.integers(0, len(line) - 1))
    lines[index] = line[:column] + data.draw(st.sampled_from(
        '{}[],:"\\x\t ')) + line[column + 1:]
    text = "\n".join(lines)
    try:
        json.loads(text)
    except ValueError as exc:
        message = f"snapshot is not valid JSON: {exc}"
    else:
        assume(False)
    path = tmp_path_factory.getbasetemp() / "broken-model.json"
    path.write_text(text, encoding="utf-8")
    reached = (keys[index],) if keys[index] in VISUAL_KEYS else ("p",)
    for reach in (None, lambda meta: Pattern("visual", reached)):
        with pytest.raises(SnapshotError) as refused:
            load_memory(path, reach)
        assert str(refused.value) == message


def test_a_query_does_not_decode_a_segment_it_does_not_reach(tmp_path):
    # Text that is not JSON in segment 'p': inspect refuses it with JSON's
    # message, and a query that does not reach 'p' answers as on the sound
    # file.
    sound = tmp_path / "sound" / "model.json"
    sound.parent.mkdir()
    sound.write_text(_FUZZ_TEXT)
    path = tmp_path / "model.json"
    text = _FUZZ_TEXT.replace('\n"p":[\t[4,', '\n"p":[\t[4;')
    assert text != _FUZZ_TEXT
    path.write_text(text)
    with pytest.raises(ValueError) as not_json:
        json.loads(text)
    assert _query(tmp_path, path, "inspect", ()) == \
        (2, "", f"error: snapshot is not valid JSON: {not_json.value}\n")
    for command in ("categorise", "retrieve"):
        answer = _query(tmp_path, path, command, ["q", "r", "q"])
        assert answer[0] in (0, 4)
        assert answer == _query(tmp_path, sound, command, ["q", "r", "q"])


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

