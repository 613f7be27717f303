"""Versioned model snapshots: a self-describing JSON file holding every
network's node table and the settings needed to classify new input
(tokenizer, attention parameters).

Each net's ``nodes`` is a list of rows
``[parent, test, image, complete, links, created_at, updated_at]``. The row
index is the node id: ids are dense, because nodes are never deleted, and a
parent is always created before its children. ``test`` and ``image`` are
their tokens joined by single spaces; tokens are non-empty and hold no
whitespace, so splitting gives them back. Children are not written: each
node's ``parent`` defines the tree.

Serialization is canonical (sorted keys, fixed separators, nodes by id), so
identical models produce byte-identical files and a load/save round trip is
exact. Files from other schema versions are rejected outright; a model saved
by an older build is retrained with ``chunknet train``.

Loading builds each net in one forward pass over its rows. Row 0 is the root,
with a null parent; every other row names a parent that comes before it,
which rules out cycles and unreachable nodes, and lets each node's contents
length and its parent's first-token child index be set as the row is read.
Also rejected: a document, net or row of the wrong JSON type or size, a
field of the wrong JSON type, an empty non-root test link, two siblings with
the same test link, and a naming link whose key is not a label node id of
the label net or whose count is not a positive integer.

Python's cyclic garbage collector is paused from parsing until the last
node is built, and left as the caller had it. A load allocates tens of
thousands of containers that all survive, which would otherwise set off
dozens of young collections per load and a full one every few loads.
Pausing is safe because the loaded memory holds no reference cycles:
parents, children and link targets are integer ids, and the parsed document
is freed by reference counting.
"""

from __future__ import annotations

import gc
import json
import reprlib
from pathlib import Path
from typing import NoReturn

from .config import read_text, reject_constant
from .network import ROOT_ID, DiscriminationNet, MultiModalMemory, Node

SNAPSHOT_SCHEMA_VERSION = 2


class SnapshotError(ValueError):
    pass


def _net_doc(net: DiscriminationNet) -> dict:
    return {
        "modality": net.modality,
        "clock_seconds": net.clock_seconds,
        "nodes": [[n.parent, " ".join(n.test), " ".join(n.image),
                   n.image_complete,
                   {str(k): n.naming_links[k] for k in sorted(n.naming_links)},
                   n.created_at, n.updated_at] for n in net.nodes()],
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

# The fields of each JSON object or row in a snapshot and their JSON types,
# compared by ``type(...) in`` so that JSON true is not taken for a number.
# The row loop in :func:`_load_net` checks the same types inline.
_DOC_FIELDS = (("label_modality", (str,)),
               ("seconds_per_new_chunk", _NUMBER),
               ("seconds_per_update", _NUMBER), ("networks", (dict,)),
               ("meta", (dict,)))
_NET_FIELDS = (("modality", (str,)), ("clock_seconds", _NUMBER),
               ("nodes", (list,)))
_ROW_FIELDS = (("parent", (int, type(None))), ("test", (str,)),
               ("image", (str,)), ("complete", (bool,)), ("links", (dict,)),
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


def _naming_links(where: str, node_id: int, links: dict) -> dict[int, int]:
    """A row's naming links keyed by label node id."""
    naming = {}
    for key, count in links.items():
        try:
            label = int(key)
        except ValueError:
            label = None
        if str(label) != key or type(count) is not int or count < 1:
            raise SnapshotError(
                f"{where}: node {node_id} has the naming link "
                f"{reprlib.repr(key)}: {reprlib.repr(count)}; a link needs a "
                f"node id and a positive count") from None
        naming[label] = count
    return naming


def _row_error(where: str, node_id: int, row, nodes: list) -> NoReturn:
    """Raise the exact error for row ``node_id``, which the loop in
    :func:`_load_net` could not build on the rows before it, ``nodes``."""
    node = f"{where}: node {node_id}"
    if type(row) is not list or len(row) > len(_ROW_FIELDS):
        raise SnapshotError(f"{node} is not a list of {len(_ROW_FIELDS)} "
                            f"fields: {reprlib.repr(row)}") from None
    names = [name for name, _ in _ROW_FIELDS]
    parent, test, _, _, links, _, _ = _fields(dict(zip(names, row)), node,
                                              _ROW_FIELDS)
    _naming_links(where, node_id, links)
    test = tuple(test.split())
    if node_id == ROOT_ID:
        raise SnapshotError(f"{where}: no root node (row {ROOT_ID} needs a "
                            f"null parent and an empty test link)") from None
    if parent is None or not 0 <= parent < node_id:
        raise SnapshotError(f"{node} names parent {parent!r}; a parent must "
                            f"be an earlier node") from None
    if not test:
        raise SnapshotError(f"{node} has an empty test link") from None
    sibling = next(sid for sid in nodes[parent].index[test[0]]
                   if nodes[sid].test == test)
    raise SnapshotError(f"{where}: sibling nodes {sibling} and {node_id} "
                        f"have the same test link") from None


def _load_net(modality: str, doc, memory: MultiModalMemory,
              link_targets: set[int]) -> DiscriminationNet:
    """Build one net in a single forward pass over its rows."""
    where = f"{modality!r} net"
    doc_modality, clock, rows = _fields(doc, where, _NET_FIELDS)
    if doc_modality != modality:
        raise SnapshotError(f"{where} is stored as modality "
                            f"{doc_modality!r}")
    if not rows:
        raise SnapshotError(f"{where}: no root node (the node table is "
                            f"empty)")
    nodes: list[Node] = []
    # Any failure leaves the loop for _row_error, which names the problem.
    try:
        for node_id, row in enumerate(rows):
            # A seven-item string or object unpacks too, but its items are
            # strings, which fail the check on ``complete``.
            parent, test, image, complete, links, created, updated = row
            if type(test) is not str or type(image) is not str \
                    or type(complete) is not bool or type(links) is not dict \
                    or type(created) not in _NUMBER \
                    or type(updated) not in _NUMBER:
                raise ValueError
            naming = _naming_links(where, node_id, links) if links else {}
            test = tuple(test.split())
            node = Node(node_id, test, tuple(image.split()), complete,
                        parent, naming, created, updated)
            if node_id:
                if type(parent) is not int or not 0 <= parent < node_id \
                        or not test:
                    raise ValueError
                up = nodes[parent]
                index = up.index
                siblings = index.get(test[0])
                if siblings is None:
                    index[test[0]] = (node_id,)
                else:
                    for sid in siblings:
                        if nodes[sid].test == test:
                            raise ValueError
                    index[test[0]] = siblings + (node_id,)
                node.contents_length = up.contents_length + len(test)
            elif parent is not None or test:
                raise ValueError
            link_targets.update(naming)
            nodes.append(node)
    except (TypeError, ValueError):
        _row_error(where, node_id, row, nodes)
    net = DiscriminationNet(modality, memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = clock
    net._nodes = nodes
    return net


def load_memory(path) -> tuple[MultiModalMemory, dict]:
    """Returns the rebuilt memory and the snapshot's meta block."""
    text = read_text(path, SnapshotError, "snapshot")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _load_doc(text)
    finally:
        if collecting:
            gc.enable()


def _load_doc(text: str) -> tuple[MultiModalMemory, dict]:
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from None
    version = doc.get("schema_version") if type(doc) is dict else None
    if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema_version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_SCHEMA_VERSION}); retrain "
            f"the model with 'chunknet train'")
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
    labels = range(1, label_net.node_count if label_net else 0)
    unknown = sorted(t for t in link_targets if t not in labels)
    if unknown:
        raise SnapshotError(f"naming links point at unknown label node(s) "
                            f"{unknown}")
    return memory, meta
