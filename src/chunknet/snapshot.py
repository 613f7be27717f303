"""Versioned model snapshots: a self-describing JSON file holding every
network's node table (ids, tests, images, completeness flags, naming-link
counts, child order, timestamps) and the settings needed to classify new
input (tokenizer, attention parameters).

Serialization is canonical (sorted keys, fixed separators, nodes by id), so
identical models produce byte-identical files and a load/save round trip is
exact. Files from other schema versions are rejected outright.

Loading builds each net in one pass over its node table, then walks the
tree from the root along the ``children`` lists to rebuild what each node
derives from its ancestors (contents length, first-token child index). Nodes
do not store ``children``: it is read back from the index, in ascending id
order, so a file whose lists are in any other order is rejected, as is any
net that retrieval could not rely on: a document, net or node that is not a
JSON object, a missing field or one of the wrong JSON type, ``children``
lists that disagree with the ``parent`` fields or leave a node unreachable,
an empty non-root test link, two siblings with the same test link, a test
or image token that is not a non-empty string free of whitespace, or a
naming link whose key is not a label node id of the label net or whose count
is not a positive integer.

Python's cyclic garbage collector is paused from parsing until the last
node is built, and left as the caller had it. A load allocates tens of
thousands of containers that all survive, which would otherwise set off
dozens of young collections per load and a full one every few loads. Pausing is safe because the loaded
memory holds no reference cycles: parents, children and link targets are
integer ids, and the parsed document is freed by reference counting.
"""

from __future__ import annotations

import gc
import json
import reprlib
from pathlib import Path
from typing import NoReturn

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
        "children": node.children,
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


_NUMBER = (int, float)

# The fields of each JSON object in a snapshot and their JSON types, compared
# by ``type(...) in`` so that JSON true is not taken for a number. The node
# loop in :func:`_load_net` checks the same types inline.
_DOC_FIELDS = (("label_modality", (str,)),
               ("seconds_per_new_chunk", _NUMBER),
               ("seconds_per_update", _NUMBER), ("networks", (dict,)),
               ("meta", (dict,)))
_NET_FIELDS = (("modality", (str,)), ("clock_seconds", _NUMBER),
               ("nodes", (list,)))
_NODE_FIELDS = (("id", (int,)), ("test", (list,)), ("image", (list,)),
                ("complete", (bool,)), ("parent", (int, type(None))),
                ("children", (list,)), ("links", (dict,)),
                ("created_at", _NUMBER), ("updated_at", _NUMBER))


def _fields(doc, where: str, fields) -> list:
    """The values of ``fields`` in ``doc``, each checked for its type."""
    if type(doc) is not dict:
        raise SnapshotError(f"{where} is not a JSON object: "
                            f"{reprlib.repr(doc)}") from None
    values = []
    for name, kinds in fields:
        if name not in doc:
            raise SnapshotError(f"{where} is missing field {name!r}") \
                from None
        value = doc[name]
        if type(value) not in kinds:
            raise SnapshotError(f"{where} field {name!r} holds "
                                f"{reprlib.repr(value)}") from None
        values.append(value)
    return values


def _node_error(node_docs: list, where: str) -> NoReturn:
    """Raise the exact error for the first node that the loop in
    :func:`_load_net` could not build."""
    seen = set()
    for position, nd in enumerate(node_docs):
        node = f"{where}: node {nd.get('id', '?')}" if type(nd) is dict \
            else f"{where}: entry {position} of the node table"
        node_id, test, image, *_, links, _, _ = _fields(nd, node,
                                                        _NODE_FIELDS)
        if node_id in seen:
            raise SnapshotError(f"{where}: node id {node_id} is used "
                                f"twice") from None
        seen.add(node_id)
        for key, count in links.items():
            try:
                valid = str(int(key)) == key and type(count) is int \
                    and count > 0
            except ValueError:
                valid = False
            if not valid:
                raise SnapshotError(
                    f"{node} has the naming link {reprlib.repr(key)}: "
                    f"{reprlib.repr(count)}; a link needs a node id and a "
                    f"positive count") from None
        try:
            set(test + image)
        except TypeError:
            raise SnapshotError(f"{where}: pattern tokens must be "
                                f"strings") from None
    raise SnapshotError(f"{where}: malformed node table") from None


def _load_net(modality: str, doc, memory: MultiModalMemory,
              link_targets: set[int]) -> DiscriminationNet:
    """Build one net in a single pass over its node table, then walk the
    tree from the root down, checking it and setting each node's contents
    length and first-token child index."""
    where = f"{modality!r} net"
    doc_modality, clock, node_docs = _fields(doc, where, _NET_FIELDS)
    if doc_modality != modality:
        raise SnapshotError(f"{where} is stored as modality "
                            f"{doc_modality!r}")
    nodes: dict[int, Node] = {}
    child_lists: dict[int, list] = {}     # as the file lists them
    tokens: set[str] = set()
    # Any failure leaves the loop for _node_error, which finds the node and
    # the exact problem.
    try:
        for nd in node_docs:
            node_id = nd["id"]
            test = nd["test"]
            image = nd["image"]
            complete = nd["complete"]
            parent = nd["parent"]
            kids = nd["children"]
            links = nd["links"]
            created = nd["created_at"]
            updated = nd["updated_at"]
            if type(node_id) is not int or type(test) is not list \
                    or type(image) is not list or type(complete) is not bool \
                    or (type(parent) is not int and parent is not None) \
                    or type(kids) is not list or type(links) is not dict \
                    or type(created) not in _NUMBER \
                    or type(updated) not in _NUMBER or node_id in nodes:
                raise ValueError
            naming = {}
            for key, count in links.items():
                label = int(key)
                if str(label) != key or type(count) is not int or count < 1:
                    raise ValueError
                naming[label] = count
            link_targets.update(naming)
            test = tuple(test)
            image = tuple(image)
            tokens.update(test)
            tokens.update(image)
            nodes[node_id] = Node(node_id, test, image, complete, parent,
                                  naming, created, updated)
            child_lists[node_id] = kids
    except (KeyError, TypeError, ValueError):
        _node_error(node_docs, where)
    # Patterns built from test links and images skip the token check, so
    # check here, once per distinct token.
    try:
        check_tokens(tuple(tokens))
    except PatternError as exc:
        raise SnapshotError(f"{where}: {exc}") from None

    root = nodes.get(ROOT_ID)
    if root is None or root.parent is not None:
        raise SnapshotError(f"{where}: no root node (id {ROOT_ID} without "
                            f"a parent)")
    order = [root]
    for parent in order:
        pid = parent.node_id
        index = parent.index
        previous = -1
        for cid in child_lists[pid]:
            child = nodes.get(cid) if type(cid) is int else None
            if child is None:
                raise SnapshotError(f"{where}: node {pid} lists child "
                                    f"{cid!r}, which has no node")
            if child.parent != pid:
                raise SnapshotError(f"{where}: node {cid} is listed as a "
                                    f"child of node {pid} but names parent "
                                    f"{child.parent!r}")
            test = child.test
            if not test:
                raise SnapshotError(f"{where}: node {cid} has an empty "
                                    f"test link")
            if child.contents_length:
                # only a child reached already has a length
                raise SnapshotError(f"{where}: node {cid} is listed twice "
                                    f"as a child of node {pid}")
            if cid <= previous:
                raise SnapshotError(f"{where}: the children of node {pid} "
                                    f"are not in ascending id order")
            previous = cid
            siblings = index.get(test[0])
            if siblings is None:
                index[test[0]] = (cid,)
            else:
                for sid in siblings:
                    if nodes[sid].test == test:
                        raise SnapshotError(
                            f"{where}: sibling nodes {sid} and {cid} have "
                            f"the same test link")
                index[test[0]] = siblings + (cid,)
            child.contents_length = parent.contents_length + len(test)
            order.append(child)
    if len(order) != len(nodes):
        unreached = sorted(set(nodes) - {node.node_id for node in order})
        raise SnapshotError(f"{where}: node(s) {unreached} cannot be "
                            f"reached from the root")
    net = DiscriminationNet(modality, memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = clock
    net._nodes = nodes
    net._next_id = max(nodes) + 1
    return net


def load_memory(path) -> tuple[MultiModalMemory, dict]:
    """Returns the rebuilt memory and the snapshot's meta block."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: "
                            f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not UTF-8 text: "
                            f"{exc}") from None
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load_doc(text)
    finally:
        if collecting:
            gc.enable()


def _load_doc(text: str) -> tuple[MultiModalMemory, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
    version = doc.get("schema_version") if type(doc) is dict else None
    if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema_version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_SCHEMA_VERSION})")
    label_modality, per_chunk, per_update, networks, meta = _fields(
        {"meta": {}, **doc}, "snapshot", _DOC_FIELDS)
    memory = MultiModalMemory(label_modality=label_modality,
                              seconds_per_new_chunk=per_chunk,
                              seconds_per_update=per_update)
    link_targets: set[int] = set()
    for modality, net_doc in networks.items():
        memory.nets[modality] = _load_net(modality, net_doc, memory,
                                          link_targets)
    label_net = memory.nets.get(label_modality)
    labels = set(label_net._nodes) - {ROOT_ID} if label_net else set()
    if not link_targets <= labels:
        raise SnapshotError(f"naming links point at unknown label node(s) "
                            f"{sorted(link_targets - labels)}")
    return memory, meta
