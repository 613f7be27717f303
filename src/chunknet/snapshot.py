"""Versioned model snapshots: a self-describing JSON file holding every
network's node table and the settings needed to classify new input
(tokenizer, attention parameters).

Each net is stored under its modality as ``{"clock_seconds", "nodes"}``.
``nodes`` lists the learned nodes only: row ``i`` holds node ``i + 1`` as
``[parent, test, image, complete, links]``. The root, node 0, is implicit:
every net starts with it, so an empty list is a net that has only its root,
and no row can change it. Ids are dense, because nodes are never deleted,
and a parent is always created before its children. ``test`` and ``image``
are their tokens joined by single spaces; tokens are non-empty and hold no
whitespace, so splitting gives them back. Children are not written: each
node's ``parent`` defines the tree.

Serialization is canonical (sorted keys, fixed separators, only ASCII,
nodes by id), so identical models produce byte-identical files and a
load/save round trip is exact: the text is ``json.dumps`` of the document
with ``sort_keys=True`` and ``separators=(",", ":")``, then a newline. It is
rendered one row at a time, so a save holds the rows' text and the file's
text, not a document of every row beside them. Files from other schema
versions are rejected outright; a model saved by an older build is
retrained with ``chunknet train``.

This module checks the file's own facts in one pass over each net's rows: the
JSON type and size of the document, each net, row and field; each timing
field (``seconds_per_new_chunk``, ``seconds_per_update``, a net's
``clock_seconds``) a finite number >= 0; every row's integer parent naming a
node that comes before it (the root or an earlier row), which rules out
cycles and unreachable nodes; and each naming link, whose count must be a
positive integer and whose key a label node id as the file writes it: one
table, ``"1"`` up to the label net's row count, is built before any row is
read, so ``"01"`` is refused unparsed and a link may name a label node of a
net listed later. The first bad row in file order is reported.
``DiscriminationNet.attach`` then joins the net's nodes to its tree, as
learning does, and refuses an empty test link or two siblings with the same
test link; its error becomes a ``SnapshotError``.

A loaded node is a ``LoadedNode`` (see its docstring, and ``_row`` for
its dump). Each parsed row is dropped from the document as soon as its node
is built, so a load never holds the whole document beside the whole net.

Python's cyclic garbage collector is paused from reading the file until
the last node is built, and left as the caller had it: the file is read and
parsed inside the paused window, and a document that is not a JSON object is
refused there before its version is read. A load allocates tens of thousands
of containers that all survive, which would otherwise set off dozens of
young collections per load and a full one every few loads. A load that
succeeds then promotes, while the collector is still paused,
every tracked object into the oldest generation (``gc.freeze()`` then
``gc.unfreeze()``, two list splices) and so resets the young count: no
young collection traverses the loaded nodes and index dicts afterwards.
Both are safe because the loaded memory holds no reference cycles: parents,
children and link targets are integer ids, the parsed document is freed by
reference counting, and so is the memory when the caller drops it.
Promotion also moves the caller's young objects to the oldest generation;
any reference cycle among them then waits for a full collection, so a
caller that loads in a loop should leave no cyclic garbage (``chunknet``
builds its argument parser once per process for this), and objects a
caller froze with ``gc.freeze()`` are unfrozen. A failed load promotes
nothing, since the frames its traceback holds may form cycles.
"""

from __future__ import annotations

import gc
import json
import reprlib
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import NoReturn

from .config import ConfigError, read_json, write_text
from .network import ROOT_ID, DiscriminationNet, LoadedNode, \
    MultiModalMemory, NetworkError, Node

SNAPSHOT_SCHEMA_VERSION = 3


class SnapshotError(ValueError):
    pass


# The canonical text of a snapshot's values: sorted keys, no spaces, only
# ASCII, and no NaN or infinity. A refused value is encoded again by the
# pure-Python encoder (``iterencode``), whose error names it before 3.13 too.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


def _json(value) -> str:
    try:
        return _ENCODER.encode(value)
    except ValueError:
        return "".join(_ENCODER.iterencode(value))


def _row(node: Node) -> str:
    """``_json`` of ``node``'s row ``[parent, test, image, complete,
    links]``, written directly: link keys sort as text, so label 10 comes
    before label 9, as they do in ``_json`` of the row's links object. An
    image a load left as text is split and not kept."""
    links = ",".join(f'"{key}":{count}' for key, count in
                     sorted((str(k), c) for k, c in node.naming_links.items()))
    image = node._image if type(node) is LoadedNode else node.image
    image = " ".join(image.split() if type(image) is str else image)
    return (f"[{node.parent},{_quote(' '.join(node.test))},{_quote(image)},"
            f"{'true' if node.image_complete else 'false'},{{{links}}}]")


def dump_memory(memory: MultiModalMemory, meta: dict | None = None) -> str:
    """The snapshot text of ``memory``: the canonical JSON of the document
    with its keys in sorted order, then a newline. Each net's rows are
    rendered one at a time, so no document of every row is built."""
    parts = ['{"label_modality":', _json(memory.label_modality),
             ',"meta":', _json(meta or {}), ',"networks":{']
    for i, (modality, net) in enumerate(sorted(memory.nets.items())):
        parts += ["," if i else "", _json(modality),
                  ':{"clock_seconds":', _json(net.clock_seconds),
                  ',"nodes":[',
                  ",".join(map(_row, net.nodes()[ROOT_ID + 1:])), "]}"]
    parts += ['},"schema_version":', _json(SNAPSHOT_SCHEMA_VERSION),
              ',"seconds_per_new_chunk":', _json(memory.seconds_per_new_chunk),
              ',"seconds_per_update":', _json(memory.seconds_per_update),
              "}\n"]
    return "".join(parts)


def save_memory(path, memory: MultiModalMemory, meta: dict | None = None) -> None:
    """Write the snapshot of ``memory`` to ``path``; a NaN or an infinity
    raises :class:`ConfigError` naming the file and the value."""
    try:
        text = dump_memory(memory, meta)
    except ValueError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None
    write_text(path, text)


_NUMBER = (int, float)

# The fields of each JSON object or row in a snapshot and their JSON types,
# compared by ``type(...) in`` so that JSON true is not taken for a number.
# The row loop in :func:`_load_net` checks the same types inline.
_DOC_FIELDS = (("label_modality", (str,)),
               ("seconds_per_new_chunk", _NUMBER),
               ("seconds_per_update", _NUMBER), ("networks", (dict,)),
               ("meta", (dict,)))
_NET_FIELDS = (("clock_seconds", _NUMBER), ("nodes", (list,)))
_ROW_FIELDS = (("parent", (int,)), ("test", (str,)), ("image", (str,)),
               ("complete", (bool,)), ("links", (dict,)))


def _fields(doc, where: str, fields) -> list:
    """The values of ``fields`` in ``doc``, each checked for its type, and
    each number for being a finite number >= 0."""
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
        # Every number field is a time on a float clock: JSON 1e400 parses
        # to an infinity, and an integer past the largest float overflows.
        if kinds is _NUMBER and not 0 <= value <= sys.float_info.max:
            raise SnapshotError(f"{where} field {name!r} must be a finite "
                                f"number >= 0, got {reprlib.repr(value)}") \
                from None
        values.append(value)
    return values


def _row_error(where: str, node_id: int, row,
               labels: dict[str, int]) -> NoReturn:
    """Raise the exact error for row ``node_id``, which the loop in
    :func:`_load_net` refused; ``labels`` holds the label node ids."""
    node = f"{where}: node {node_id}"
    if type(row) is not list or len(row) > len(_ROW_FIELDS):
        raise SnapshotError(f"{node} is not a list of {len(_ROW_FIELDS)} "
                            f"fields: {reprlib.repr(row)}") from None
    names = [name for name, _ in _ROW_FIELDS]
    parent, _, _, _, links = _fields(dict(zip(names, row)), node,
                                     _ROW_FIELDS)
    for key, count in links.items():
        if key not in labels or type(count) is not int or count < 1:
            raise SnapshotError(
                f"{node} has the naming link {reprlib.repr(key)}: "
                f"{reprlib.repr(count)}; a link needs a label node id and a "
                f"positive count") from None
    raise SnapshotError(f"{node} names parent {parent!r}; a parent must "
                        f"be an earlier node") from None


def _load_net(modality: str, doc, memory: MultiModalMemory,
              labels: dict[str, int]) -> DiscriminationNet:
    """Build one net: one pass over its rows checks them and builds their
    nodes, and the net attaches them to its own root in one call."""
    where = f"{modality!r} net"
    clock, rows = _fields(doc, where, _NET_FIELDS)
    net = DiscriminationNet(modality, memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = clock
    nodes: list[LoadedNode] = []
    # Any failure leaves the loop for _row_error, which names the problem.
    try:
        for node_id, row in enumerate(rows, ROOT_ID + 1):
            # A five-item string or object unpacks too, but its items are
            # strings, which fail the check on ``parent``.
            parent, test, image, complete, links = row
            if type(parent) is not int or not 0 <= parent < node_id \
                    or type(test) is not str or type(image) is not str \
                    or type(complete) is not bool or type(links) is not dict:
                raise ValueError
            naming = links
            if links:
                naming = {}
                for key, count in links.items():
                    if type(count) is not int or count < 1:
                        raise ValueError
                    naming[labels[key]] = count
            nodes.append(LoadedNode(node_id, tuple(test.split()), image,
                                    complete, parent, naming))
            # The row is built: drop it, so the document shrinks as the
            # net grows.
            rows[node_id - ROOT_ID - 1] = None
    except (KeyError, TypeError, ValueError):
        _row_error(where, node_id, row, labels)
    try:
        net.attach(nodes)
    except NetworkError as exc:
        raise SnapshotError(f"{where}: {exc}") from None
    return net


def load_memory(path) -> tuple[MultiModalMemory, dict]:
    """Returns the rebuilt memory and the snapshot's meta block."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        loaded = _load_doc(read_json(path, SnapshotError, "snapshot"))
        gc.freeze()
        gc.unfreeze()
        return loaded
    finally:
        if collecting:
            gc.enable()


def _load_doc(doc: dict) -> tuple[MultiModalMemory, dict]:
    version = doc.get("schema_version")
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
    # One label node id per label-net row: none when that net is missing or
    # malformed, which its own load or a link then reports.
    label_doc = networks.get(label_modality)
    rows = label_doc.get("nodes") if type(label_doc) is dict else None
    count = len(rows) if type(rows) is list else 0
    labels = {str(i): i for i in range(1, count + 1)}
    for modality, net_doc in networks.items():
        memory.nets[modality] = _load_net(modality, net_doc, memory, labels)
    return memory, meta
