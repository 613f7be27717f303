"""Snapshot round trips: byte-exact files, behaviour-preserving models,
schema version rejection."""

import json
import random

import pytest

from chunknet.attention import AttentionConfig, categorise
from chunknet.config import RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import MultiModalMemory
from chunknet.patterns import Pattern
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
