"""Versioned model snapshots: a self-describing JSON file holding every
network's node table and the settings needed to classify new input
(tokenizer, attention parameters).

Each net is stored under its modality as ``{"clock_seconds", "segments"}``.
A node's row is ``[id, parent, test, image, complete, links]``, where
``test`` and ``image`` are tokens joined by single spaces. The root, node
0, is implicit and has no row. ``segments`` groups the rows by the first
token of their root child's test link: a walk that starts at token ``t``
stays under the root children listed at ``root.index[t]``, so it needs
segment ``t`` alone. In a segment the rows ascend by id, and each parent
is the root or an earlier row of that segment. Children are not written.

Serialization is canonical (sorted keys, fixed separators, only ASCII, each
segment's rows by id), so identical models give byte-identical files and a
full load/save round trip is exact. Rows are rendered one at a time. Files
of other schema versions are refused; a model saved by an older build is
retrained with ``chunknet train``.

A load checks the file's own facts: the JSON type and size of the document,
each net, segment, row and field; each timing field a finite number >= 0;
each naming link's count a positive integer and its key a label node id as
the file writes it (``"1"`` up to the label net's row count, so ``"01"`` is
refused and a link may name a label node of a net listed later); a parent
inside its segment; a root child's first test token its segment's key.
``DiscriminationNet.attach`` then refuses an empty test link or two
siblings with the same test link. Every net's fields, and each segment
being a list, are checked before any row, and the first bad row of the
segments built is reported.

``load_memory(path)`` builds every segment, and refuses an id given twice
or a gap in the ids. ``load_memory(path, reach)`` is a query's load: after
the file-level fields it calls ``reach(meta)`` for the stimulus pattern,
then builds the label net whole and, of the stimulus modality's net, only
the segments keyed by a stimulus token, each checked as above. A bad row
in a segment it does not build is not seen. The net's table holds None for
every row not built, so that memory serves that stimulus and nothing else.

A loaded node is a ``LoadedNode`` (see its docstring, and ``_row`` for its
dump). Each parsed row is dropped from the document once its node is built.

Python's cyclic garbage collector is paused from reading the file until the
last node is built, and left as the caller had it; a load that succeeds then
promotes every tracked object into the oldest generation (``gc.freeze()``
then ``gc.unfreeze()``), the caller's young objects too, and unfreezes what
a caller froze. So a caller that loads in a loop should leave no cyclic
garbage. A failed load promotes nothing. Why this is safe and what it saves:
``test_loaded_memory_holds_no_reference_cycles`` in ``tests/test_snapshot.py``.
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

SNAPSHOT_SCHEMA_VERSION = 4


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
    """``_json`` of ``node``'s row ``[id, parent, test, image, complete,
    links]``, written directly: link keys sort as text, so label 10 comes
    before label 9, as they do in ``_json`` of the row's links object. An
    image a load left as text is split and not kept."""
    links = ",".join(f'"{key}":{count}' for key, count in
                     sorted((str(k), c) for k, c in node.naming_links.items()))
    image = node._image if type(node) is LoadedNode else node.image
    image = " ".join(image.split() if type(image) is str else image)
    return (f"[{node.node_id},{node.parent},{_quote(' '.join(node.test))},"
            f"{_quote(image)},{'true' if node.image_complete else 'false'},"
            f"{{{links}}}]")


def _segments(net: DiscriminationNet) -> str:
    """The text of ``net``'s segments object, in one pass over its nodes by
    id: a row's key is its own first test token if the root is its parent,
    else its parent's key. Keys sort as ``_json`` sorts them."""
    nodes = net.nodes()
    keys = [""] * len(nodes)
    segments: dict[str, list[str]] = {}
    for node in nodes[ROOT_ID + 1:]:
        key = keys[node.node_id] = node.test[0] \
            if node.parent == ROOT_ID else keys[node.parent]
        segments.setdefault(key, []).append(_row(node))
    return ",".join(f"{_quote(key)}:[{','.join(rows)}]"
                    for key, rows in sorted(segments.items()))


def dump_memory(memory: MultiModalMemory, meta: dict | None = None) -> str:
    """The snapshot text of ``memory``: the canonical JSON of the document
    with its keys in sorted order, then a newline. Each net's rows are
    rendered one at a time, so no document of every row is built."""
    parts = ['{"label_modality":', _json(memory.label_modality),
             ',"meta":', _json(meta or {}), ',"networks":{']
    for i, (modality, net) in enumerate(sorted(memory.nets.items())):
        parts += ["," if i else "", _json(modality),
                  ':{"clock_seconds":', _json(net.clock_seconds),
                  ',"segments":{', _segments(net), "}}"]
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
_NET_FIELDS = (("clock_seconds", _NUMBER), ("segments", (dict,)))
_ROW_FIELDS = (("id", (int,)), ("parent", (int,)), ("test", (str,)),
               ("image", (str,)), ("complete", (bool,)), ("links", (dict,)))


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


def _row_error(where: str, key: str, position: int, row, last: int,
               own: list, labels: dict[str, int]) -> NoReturn:
    """Raise the exact error for row ``position`` of segment ``key``, which
    the loop in :func:`_load_net` refused after node ``last``; ``own`` is
    the net's table and ``labels`` holds the label node ids."""
    node = f"{where}: node {row[0]}" if type(row) is list and row and \
        type(row[0]) is int else \
        f"{where}: row {position} of segment {reprlib.repr(key)}"
    if type(row) is not list or len(row) > len(_ROW_FIELDS):
        raise SnapshotError(f"{node} is not a list of {len(_ROW_FIELDS)} "
                            f"fields: {reprlib.repr(row)}") from None
    names = [name for name, _ in _ROW_FIELDS]
    node_id, parent, test, _, _, links = _fields(dict(zip(names, row)), node,
                                                 _ROW_FIELDS)
    count = len(own) - 1
    if not 0 < node_id <= count:
        raise SnapshotError(f"{node} is outside 1 to {count}: a net's "
                            f"{count} rows hold the ids 1 to {count}, each "
                            f"once") from None
    if own[node_id] is not None:
        raise SnapshotError(f"{node} appears twice") from None
    if node_id <= last:
        raise SnapshotError(f"{node} comes after node {last} in its "
                            f"segment; a segment's rows ascend by id") \
            from None
    for label, n in links.items():
        if label not in labels or type(n) is not int or n < 1:
            raise SnapshotError(
                f"{node} has the naming link {reprlib.repr(label)}: "
                f"{reprlib.repr(n)}; a link needs a label node id and a "
                f"positive count") from None
    # Only the key can fail a root child: the root is inside every segment.
    if parent == ROOT_ID:
        raise SnapshotError(f"{node} is a root child testing "
                            f"{reprlib.repr(test.split()[0])} in segment "
                            f"{reprlib.repr(key)}; a root child's first "
                            f"test token is its segment's key") from None
    raise SnapshotError(f"{node} names parent {parent!r}; a parent must "
                        f"be the root or an earlier node of its segment") \
        from None


def _load_net(modality: str, clock, segments: dict, count: int, keys,
              memory: MultiModalMemory,
              labels: dict[str, int]) -> DiscriminationNet:
    """Build the segments of one net of ``count`` rows named in ``keys``,
    every one when ``keys`` is None: one pass over a segment's rows checks
    them and puts each node at its id in the net's table, where a row not
    built leaves None, and the net attaches the nodes built in one call."""
    where = f"{modality!r} net"
    net = DiscriminationNet(modality, memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = clock
    own = net._nodes
    own += [None] * count
    nodes: list[LoadedNode] = []
    for key, rows in segments.items():
        if keys is not None and key not in keys:
            continue
        inside, last = {ROOT_ID}, ROOT_ID
        # Any failure leaves the loop for _row_error, which names the
        # problem; an id past the table fails its lookup there.
        try:
            for row in rows:
                # A six-item string or object unpacks too, but its items
                # are strings, which fail the check on ``node_id``.
                node_id, parent, test, image, complete, links = row
                if type(node_id) is not int or node_id <= last \
                        or own[node_id] is not None \
                        or type(parent) is not int or parent not in inside \
                        or type(test) is not str or type(image) is not str \
                        or type(complete) is not bool \
                        or type(links) is not dict:
                    raise ValueError
                tokens = tuple(test.split())
                # Parent 0, the root: the first test token is the key.
                if not parent and tokens and tokens[0] != key:
                    raise ValueError
                naming = links
                if links:
                    naming = {}
                    for label, n in links.items():
                        if type(n) is not int or n < 1:
                            raise ValueError
                        naming[labels[label]] = n
                node = own[node_id] = LoadedNode(node_id, tokens, image,
                                                 complete, parent, naming)
                nodes.append(node)
                inside.add(node_id)
                last = node_id
        except (IndexError, KeyError, TypeError, ValueError):
            _row_error(where, key, rows.index(row), row, last, own, labels)
        # The segment is built: drop its rows, so the document shrinks as
        # the net grows.
        segments[key] = None
    try:
        net.attach(nodes)
    except NetworkError as exc:
        raise SnapshotError(f"{where}: {exc}") from None
    return net


def load_memory(path, reach=None) -> tuple[MultiModalMemory, dict]:
    """The rebuilt memory and the snapshot's meta block. ``reach``, if
    given, takes the meta and returns the stimulus ``Pattern`` whose
    queries the memory is built for (see the module docstring)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        loaded = _load_doc(read_json(path, SnapshotError, "snapshot"), reach)
        gc.freeze()
        gc.unfreeze()
        return loaded
    finally:
        if collecting:
            gc.enable()


def _load_doc(doc: dict, reach) -> tuple[MultiModalMemory, dict]:
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
    # Each net's clock, segments and row count: its table's size.
    nets = {}
    for modality, net_doc in networks.items():
        where = f"{modality!r} net"
        clock, segments = _fields(net_doc, where, _NET_FIELDS)
        count = 0
        for key, rows in segments.items():
            if type(rows) is not list:
                raise SnapshotError(f"{where} segment {reprlib.repr(key)} "
                                    f"holds {reprlib.repr(rows)}; a segment "
                                    f"is a list of rows")
            count += len(rows)
        nets[modality] = clock, segments, count
    # One label node id per label-net row: none when that net is missing,
    # which a link then reports.
    _, _, count = nets.get(label_modality, (0, None, 0))
    labels = {str(i): i for i in range(1, count + 1)}
    stimulus = None if reach is None else reach(meta)
    for modality, (clock, segments, count) in nets.items():
        keys = None
        if stimulus is not None and modality != label_modality:
            keys = set(stimulus.tokens) \
                if modality == stimulus.modality else ()
        memory.nets[modality] = _load_net(modality, clock, segments, count,
                                          keys, memory, labels)
    return memory, meta
