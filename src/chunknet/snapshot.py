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
full load/save round trip is exact. Each segment starts a line, ``"t":[``,
a tab before each row, and a net's closing braces start the next. JSON
allows no raw newline or tab in a string, so a line that starts with ``"``
after a line ending in ``"segments":{`` is a segment line, and its tabs
count its rows. Other schema versions are refused: retrain the model.

``load_memory(path)`` decodes and builds every segment, and refuses an id
given twice, a gap in the ids, or a segment line whose tabs are not its
rows. ``load_memory(path, reach)`` is a query's load: it decodes the text
but the segment lines, calls ``reach(meta)`` for the stimulus pattern, then
decodes and builds the label net whole and, of the stimulus modality's
net, only the segments keyed by a stimulus token, each checked in full. A
segment it does not build is not decoded: a bad row, or text that is not
JSON, in it is not seen, and its tabs alone size the net's table, which
holds None for every row not built; a reached row whose id is past that
table has the query refuse the file as a full load does, which names a
faulty segment line first. A text with no segment line (one-line or
pretty-printed JSON) is decoded whole. Checks: ``_load_doc`` (the file),
``_rows`` (a segment line), ``_load_net`` (rows). A loaded node is a
``LoadedNode``; each decoded row is dropped once its node is built.

The cyclic garbage collector is paused from reading the file until the last
node is built, and left as the caller had it; a load that succeeds then
promotes every tracked object, the caller's young ones too, into the oldest
generation, and unfreezes what a caller froze; a failed load promotes
nothing. Why, and what it saves: ``tests/test_snapshot.py``.
"""

from __future__ import annotations

import gc
import json
import reprlib
import sys
from json.decoder import scanstring as _scanstring
from json.encoder import encode_basestring_ascii as _quote
from typing import NoReturn

from .config import ConfigError, parse_json, read_text, reject_constant, \
    write_text
from .network import ROOT_ID, DiscriminationNet, LoadedNode, \
    MultiModalMemory, NetworkError, Node

SNAPSHOT_SCHEMA_VERSION = 4


class SnapshotError(ValueError):
    pass


class _PastTheTable(SnapshotError):
    """A row id past its net's table, which a query may have sized short
    from the tabs of segment lines it did not decode; see ``_load_doc``."""


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
    """The members of ``net``'s segments object, each on a line of its own
    with a tab before each row, in one pass over its nodes by id: a row's
    key is its own first test token if the root is its parent, else its
    parent's key. Keys sort as ``_json`` sorts them."""
    nodes = net.nodes()
    keys = [""] * len(nodes)
    segments: dict[str, list[str]] = {}
    for node in nodes[ROOT_ID + 1:]:
        key = keys[node.node_id] = node.test[0] \
            if node.parent == ROOT_ID else keys[node.parent]
        segments.setdefault(key, []).append(_row(node))
    return ",".join("\n" + _quote(key) + ":[\t" + ",\t".join(rows) + "]"
                    for key, rows in sorted(segments.items()))


def dump_memory(memory: MultiModalMemory, meta: dict | None = None) -> str:
    """The snapshot text of ``memory``: the canonical JSON of the document
    with its keys in sorted order, laid out as the module docstring says,
    then a newline. Each net's rows are rendered one at a time, so no
    document of every row is built."""
    parts = ['{"label_modality":', _json(memory.label_modality),
             ',"meta":', _json(meta or {}), ',"networks":{']
    for i, (modality, net) in enumerate(sorted(memory.nets.items())):
        parts += ["," if i else "", _json(modality),
                  ':{"clock_seconds":', _json(net.clock_seconds),
                  ',"segments":{', _segments(net), "\n}}"]
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


# The end of the line before a net's first segment line.
_OPENING = '"segments":{\n'


class _Lines(dict):
    """A net's segment lines, not decoded: each key's ``(start, end)``, where
    its rows' text starts and its line ends in the snapshot's text, in file
    order; ``tabs``, the lines' tab count; and ``close``, where the ``}``
    that starts the line after them is."""


_NUMBER = (int, float)

# The fields of each JSON object in a snapshot and their JSON types,
# compared by ``type(...) in`` so that JSON true is not taken for a number.
_DOC_FIELDS = (("label_modality", (str,)),
               ("seconds_per_new_chunk", _NUMBER),
               ("seconds_per_update", _NUMBER), ("networks", (dict,)),
               ("meta", (dict,)))
_NET_FIELDS = (("clock_seconds", _NUMBER), ("segments", (dict, _Lines)))

# The value of a field a JSON object or a short row lacks.
_MISSING = object()


def _holds(name: str, value) -> str:
    """The fault of field ``name`` holding ``value``, of the wrong type or
    ``_MISSING``."""
    return f"is missing field {name!r}" if value is _MISSING else \
        f"field {name!r} holds {reprlib.repr(value)}"


def _fields(doc, where: str, fields) -> list:
    """The values of ``fields`` in ``doc``, each checked for its type, and
    each number for being a finite number >= 0."""
    if type(doc) is not dict:
        raise SnapshotError(f"{where} is not a JSON object: "
                            f"{reprlib.repr(doc)}")
    values = []
    for name, kinds in fields:
        value = doc.get(name, _MISSING)
        if type(value) not in kinds:
            raise SnapshotError(f"{where} {_holds(name, value)}")
        # Every number field is a time on a float clock: JSON 1e400 parses
        # to an infinity, and an integer past the largest float overflows.
        if kinds is _NUMBER and not 0 <= value <= sys.float_info.max:
            raise SnapshotError(f"{where} field {name!r} must be a finite "
                                f"number >= 0, got {reprlib.repr(value)}")
        values.append(value)
    return values


def _segment_lines(text: str, start: int) -> _Lines | None:
    """The segment lines of ``text`` from ``start``, the start of a line
    after one ending in ``"segments":{``, up to a line that starts with
    ``}``; None if a line between does not start with a key and ``:[``, or
    a key is given twice."""
    lines, first = _Lines(), start
    while text.startswith('"', start):
        try:
            key, at = _scanstring(text, start + 1)
        except ValueError:
            return None
        end = text.find("\n", at)
        if key in lines or end < 0 or not text.startswith(":[", at):
            return None
        lines[key] = at + 1, end
        start = end + 1
    if not text.startswith("}", start):
        return None
    lines.tabs, lines.close = text.count("\t", first, start), start
    return lines


def _skeleton(text: str) -> dict:
    """The document a snapshot's ``text`` holds, each net's segment lines
    left as ``_Lines``: the rest is decoded as one JSON text, with ``NaN``
    in place of each net's segments object. A text with no segment line, or
    whose segment lines are not laid out as ``dump_memory`` writes them or
    not all a net's segments, is decoded whole."""
    runs, pieces, done = [], [], 0
    start = text.find(_OPENING)
    while start >= 0:
        lines = _segment_lines(text, start + len(_OPENING))
        if lines is None:
            return parse_json(text, SnapshotError, "snapshot")
        runs.append(lines)
        pieces.append(text[done:start + len(_OPENING) - 2])
        done = lines.close + 1
        start = text.find(_OPENING, done)
    pieces.append(text[done:])
    left = iter(runs)

    def segments(name: str) -> _Lines:
        lines = next(left, None)
        if name != "NaN" or lines is None:
            reject_constant(name)
        return lines
    try:
        doc = json.JSONDecoder(parse_constant=segments).decode(
            "NaN".join(pieces))
    except (ValueError, RecursionError):
        doc = None
    # Segment lines after a "segments":{ that is not a net's, say in the
    # meta, send the text whole.
    nets = doc.get("networks") if type(doc) is dict else None
    placed = sum(type(net) is dict and type(net.get("segments")) is _Lines
                 for net in nets.values()) if type(nets) is dict else 0
    if type(doc) is dict and placed == len(runs):
        return doc
    return parse_json(text, SnapshotError, "snapshot")


# Decodes a segment line's rows, where NaN and the infinities are not JSON.
_ROWS = json.JSONDecoder(parse_constant=reject_constant)


def _rows(text: str, lines: _Lines, key: str, where: str) -> list:
    """The rows of segment ``key``, decoded from its line of ``text`` (see
    ``_Lines``): they fill the line, but for a comma after them on every
    line but the last, with one tab before each row. A line they do not fill
    gets the whole text's JSON error, if the text has one."""
    start, end = lines[key]
    tail = "," if end + 1 < lines.close else ""
    try:
        rows, stop = _ROWS.raw_decode(text, start)
    except (ValueError, RecursionError):
        rows, stop = None, None
    if stop != end - len(tail) or not text.startswith(tail, stop):
        parse_json(text, SnapshotError, "snapshot")
    elif len(rows) == text.count("\t", start, end):
        return rows
    raise SnapshotError(f"{where} segment {reprlib.repr(key)} is not one "
                        f"line with a tab before each row")


def _load_net(modality: str, clock, segments: dict, count: int,
              memory: MultiModalMemory,
              labels: dict[str, int]) -> DiscriminationNet:
    """Build the decoded ``segments`` of one net of ``count`` rows, but
    those left None: one pass over a segment's rows checks them and puts
    each node at its id in the net's table, where a row not built leaves
    None, and the net attaches the nodes built in one call.

    A row is refused by the first rule it breaks, in the order they are
    checked below, and the first bad row of the segments built is the one
    reported. ``labels`` maps each label node id, as the file writes it, to
    the id."""
    where = f"{modality!r} net"

    def refuse(fault: str, error=SnapshotError) -> NoReturn:
        """Raise ``error`` with ``fault`` for the row at ``position`` of
        segment ``key``, named by its id when that is an integer."""
        name = f"node {row[0]}" if type(row) is list and row and \
            type(row[0]) is int else \
            f"row {position} of segment {reprlib.repr(key)}"
        raise error(f"{where}: {name} {fault}")

    net = DiscriminationNet(modality, memory.seconds_per_new_chunk,
                            memory.seconds_per_update)
    net.clock_seconds = clock
    own = net._nodes
    own += [None] * count
    nodes: list[LoadedNode] = []
    for key, rows in segments.items():
        if rows is None:
            continue
        inside, last = {ROOT_ID}, ROOT_ID
        for position, row in enumerate(rows):
            try:
                node_id, parent, test, image, complete, links = row
            except (TypeError, ValueError):
                # A list too short is checked field by field, with _MISSING
                # for each field it lacks; any other row has no id.
                short = type(row) is list and len(row) < 6
                node_id, parent, test, image, complete, links = \
                    row + [_MISSING] * (6 - len(row)) if short else [None] * 6
            if type(node_id) is not int:
                # A six-item string or object unpacks too, into strings.
                if type(row) is not list or len(row) > 6:
                    refuse(f"is not a list of 6 fields: {reprlib.repr(row)}")
                refuse(_holds("id", node_id))
            if type(parent) is not int:
                refuse(_holds("parent", parent))
            if type(test) is not str:
                refuse(_holds("test", test))
            if type(image) is not str:
                refuse(_holds("image", image))
            if type(complete) is not bool:
                refuse(_holds("complete", complete))
            if type(links) is not dict:
                refuse(_holds("links", links))
            if not 0 < node_id <= count:
                refuse(f"is outside 1 to {count}: a net's {count} rows hold "
                       f"the ids 1 to {count}, each once",
                       _PastTheTable if node_id > count else SnapshotError)
            if own[node_id] is not None:
                refuse("appears twice")
            if node_id <= last:
                refuse(f"comes after node {last} in its segment; a "
                       f"segment's rows ascend by id")
            naming = links
            if links:
                net.linked_tokens.add(key)
                naming = {}
                for label, n in links.items():
                    # The key as the file writes it, so "01" is refused.
                    if label not in labels or type(n) is not int or n < 1:
                        refuse(f"has the naming link {reprlib.repr(label)}: "
                               f"{reprlib.repr(n)}; a link needs a label "
                               f"node id and a positive count")
                    naming[labels[label]] = n
            tokens = tuple(test.split())
            # Parent 0 is the root, which is inside every segment. An empty
            # test is left for ``attach`` to refuse.
            if not parent and tokens and tokens[0] != key:
                refuse(f"is a root child testing {reprlib.repr(tokens[0])} "
                       f"in segment {reprlib.repr(key)}; a root child's "
                       f"first test token is its segment's key")
            if parent not in inside:
                refuse(f"names parent {parent!r}; a parent must be the root "
                       f"or an earlier node of its segment")
            node = own[node_id] = LoadedNode(node_id, tokens, image,
                                             complete, parent, naming)
            nodes.append(node)
            inside.add(node_id)
            last = node_id
        # The segment is built: drop its rows, so the document shrinks as
        # the net grows.
        segments[key] = None
    # ``attach`` refuses an empty test link or two siblings with the same
    # test link.
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
        loaded = _load_doc(path, reach)
        gc.freeze()
        gc.unfreeze()
        return loaded
    finally:
        if collecting:
            gc.enable()


def _load_doc(path, reach) -> tuple[MultiModalMemory, dict]:
    text = read_text(path, SnapshotError, "snapshot")
    doc = _skeleton(text)
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
    # Each net's clock, segments and row count (its table's size): every
    # net's fields and segments are checked before any row is built, so a
    # query meets such a fault whatever segments it reaches. Segment lines
    # count their rows by their tabs.
    nets = {}
    for modality, net_doc in networks.items():
        where = f"{modality!r} net"
        clock, segments = _fields(net_doc, where, _NET_FIELDS)
        lines = type(segments) is _Lines
        count = segments.tabs if lines else 0
        for key, rows in () if lines else segments.items():
            if type(rows) is not list:
                raise SnapshotError(f"{where} segment {reprlib.repr(key)} "
                                    f"holds {reprlib.repr(rows)}; a segment "
                                    f"is a list of rows")
            count += len(rows)
        nets[modality] = clock, segments, count
    # The label node ids as the file writes them, "1" up to the label net's
    # row count, known before any net is built, so a link may name a node of
    # a label net listed later. With no label net there are none, and any
    # link is refused.
    _, _, count = nets.get(label_modality, (0, None, 0))
    labels = {str(i): i for i in range(1, count + 1)}
    stimulus = None if reach is None else reach(meta)
    # Every segment built is decoded, and its line checked, before any row;
    # a segment not built is dropped. The text goes before any node is
    # built, as each row goes once its node is.
    for modality, (clock, segments, count) in nets.items():
        keys = None
        if stimulus is not None and modality != label_modality:
            keys = set(stimulus.tokens) \
                if modality == stimulus.modality else ()
        where = f"{modality!r} net"
        lines = type(segments) is _Lines
        for key, rows in segments.items():
            if keys is not None and key not in keys:
                rows = None
            elif lines:
                rows = _rows(text, segments, key, where)
            segments[key] = rows
    del text
    try:
        for modality, (clock, segments, count) in nets.items():
            memory.nets[modality] = _load_net(modality, clock, segments,
                                              count, memory, labels)
    except _PastTheTable:
        # The tabs of a line this query did not decode may be at fault. A
        # full load decodes every line before it builds a row, so it
        # refuses the first faulty one.
        if stimulus is not None:
            _load_doc(path, None)
        raise
    return memory, meta
