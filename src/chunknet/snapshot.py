"""Versioned model snapshots: a self-describing JSON file holding every
network's node table (ids, tests, images, completeness flags, naming-link
counts, child order, timestamps) and the settings needed to classify new
input (tokenizer, attention parameters).

Serialization is canonical (sorted keys, fixed separators, nodes by id), so
identical models produce byte-identical files and a load/save round trip is
exact. Files from other schema versions are rejected outright.

Loading rebuilds what each node derives from its ancestors (contents length,
first-token child index) from the ``children`` lists, and rejects a net that
retrieval could not rely on: a missing root, a missing node field or one of
the wrong JSON type, ``children`` lists that disagree with the ``parent``
fields or leave a node unreachable, an empty non-root test link, a test or
image token that is not a non-empty string free of whitespace, or a naming
link to a node the label net does not hold.
"""

from __future__ import annotations

import json
from pathlib import Path

from .network import ROOT_ID, DiscriminationNet, MultiModalMemory, Node
from .patterns import PatternError, check_tokens

SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    pass


def _node_doc(node: Node) -> dict:
    return {
        "id": node.node_id,
        "test": list(node.test),
        "image": list(node.image),
        "complete": node.image_complete,
        "parent": node.parent,
        "children": list(node.children),
        "links": {str(k): node.naming_links[k]
                  for k in sorted(node.naming_links)},
        "created_at": node.created_at,
        "updated_at": node.updated_at,
    }


def _net_doc(net: DiscriminationNet) -> dict:
    return {
        "modality": net.modality,
        "clock_seconds": net.clock_seconds,
        "nodes": [_node_doc(n) for n in net.nodes()],
    }


def dump_memory(memory: MultiModalMemory, meta: dict | None = None) -> str:
    doc = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "label_modality": memory.label_modality,
        "seconds_per_new_chunk": memory.seconds_per_new_chunk,
        "seconds_per_update": memory.seconds_per_update,
        "networks": {m: _net_doc(net)
                     for m, net in sorted(memory.nets.items())},
        "meta": meta or {},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_memory(path, memory: MultiModalMemory, meta: dict | None = None) -> None:
    Path(path).write_text(dump_memory(memory, meta), encoding="utf-8")


# The JSON type of each node field that loading relies on, compared exactly
# so that JSON true is not taken for an id. ``parent`` is checked against
# the ``children`` lists; the timestamps are only written back.
_NODE_FIELDS = (("id", int), ("test", list), ("image", list),
                ("complete", bool), ("children", list), ("links", dict))


def _load_node(nd: dict, where: str) -> Node:
    try:
        for name, kind in _NODE_FIELDS:
            if type(nd[name]) is not kind:
                raise SnapshotError(f"{where}: node {nd['id']!r} field "
                                    f"{name!r} holds {nd[name]!r}")
        return Node(
            node_id=nd["id"],
            test=tuple(nd["test"]),
            image=tuple(nd["image"]),
            image_complete=nd["complete"],
            parent=nd["parent"],
            children=list(nd["children"]),
            naming_links={int(k): v for k, v in nd["links"].items()},
            created_at=nd["created_at"],
            updated_at=nd["updated_at"],
        )
    except KeyError as exc:
        raise SnapshotError(f"{where}: node {nd.get('id', '?')} is missing "
                            f"field {exc}") from None


def _link_children(nodes: dict[int, Node], where: str) -> None:
    """Check the tree from the root down and set each node's contents
    length and first-token child index."""
    root = nodes.get(ROOT_ID)
    if root is None or root.parent is not None:
        raise SnapshotError(f"{where}: no root node (id {ROOT_ID} without "
                            f"a parent)")
    order = [root]
    for parent in order:
        pid = parent.node_id
        for cid in parent.children:
            child = nodes.get(cid)
            if child is None:
                raise SnapshotError(f"{where}: node {pid} lists child "
                                    f"{cid!r}, which has no node")
            if child.parent != pid:
                raise SnapshotError(f"{where}: node {cid} is listed as a "
                                    f"child of node {pid} but names parent "
                                    f"{child.parent!r}")
            if not child.test:
                raise SnapshotError(f"{where}: node {cid} has an empty "
                                    f"test link")
            if child.contents_length:
                # only a child reached already has a length
                raise SnapshotError(f"{where}: node {cid} is listed twice "
                                    f"as a child of node {pid}")
            child.contents_length = parent.contents_length + len(child.test)
            parent.index.setdefault(child.test[0], []).append(cid)
            order.append(child)
    if len(order) != len(nodes):
        unreached = sorted(set(nodes) - {node.node_id for node in order})
        raise SnapshotError(f"{where}: node(s) {unreached} cannot be "
                            f"reached from the root")


def _load_net(doc: dict, memory: MultiModalMemory,
              link_targets: set[int]) -> DiscriminationNet:
    where = f"{doc['modality']!r} net"
    net = DiscriminationNet(doc["modality"],
                            memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = doc["clock_seconds"]
    nodes = {}
    for nd in doc["nodes"]:
        node = _load_node(nd, where)
        if node.node_id in nodes:
            raise SnapshotError(f"{where}: node id {node.node_id} is used "
                                f"twice")
        nodes[node.node_id] = node
    # Patterns built from test links and images skip the token check, so
    # check here, once per distinct token.
    tokens = set()
    try:
        for node in nodes.values():
            tokens.update(node.test)
            tokens.update(node.image)
            link_targets.update(node.naming_links)
        check_tokens(tuple(tokens))
    except TypeError:
        raise SnapshotError(f"{where}: pattern tokens must be strings") \
            from None
    except PatternError as exc:
        raise SnapshotError(f"{where}: {exc}") from None
    _link_children(nodes, where)
    net._nodes = nodes
    net._next_id = max(nodes) + 1
    return net


def load_memory(path) -> tuple[MultiModalMemory, dict]:
    """Returns the rebuilt memory and the snapshot's meta block."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
    version = doc.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema_version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_SCHEMA_VERSION})")
    memory = MultiModalMemory(
        label_modality=doc["label_modality"],
        seconds_per_new_chunk=doc["seconds_per_new_chunk"],
        seconds_per_update=doc["seconds_per_update"])
    link_targets: set[int] = set()
    for modality, net_doc in doc["networks"].items():
        memory.nets[modality] = _load_net(net_doc, memory, link_targets)
    label_net = memory.nets.get(memory.label_modality)
    labels = set(label_net._nodes) - {ROOT_ID} if label_net else set()
    if not link_targets <= labels:
        raise SnapshotError(f"naming links point at unknown label node(s) "
                            f"{sorted(link_targets - labels)}")
    return memory, doc.get("meta", {})
