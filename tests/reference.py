"""A plain reference model of the package, written from the docstrings of
its ``network``, ``stm``, ``harness``, ``attention`` and ``snapshot`` modules
and sharing no code with it. Tests run both on the same input and compare
what the package's public calls return.

Everything here is done the slow, obvious way:

- a net is a list of nodes, and each node lists its children in creation
  order, scanned in full at every step of a walk;
- contents are rebuilt from the parent chain on every read, and every span,
  difference and fetch is copied out into its own tuple before it is sorted;
- every learn walks from the root, and nothing is remembered between calls.

Patterns are plain token tuples, and a sample is a pair of
``(modality, tokens)`` pairs, body first and label second. A call the package
refuses raises :class:`Refused` here.
"""

import json
import random
from collections import deque

CREATED, FAMILIARISED, NO_CHANGE = "created_node", "familiarised", "no_change"


class Refused(ValueError):
    """A call the package refuses."""


class Node:
    def __init__(self, parent, test, image=(), complete=False, links=None):
        self.parent = parent
        self.test = tuple(test)
        self.image = tuple(image)
        self.complete = complete
        self.links = dict(links or {})     # label node id -> count
        self.children = []                 # ids, in creation order


class Net:
    """One modality's tree; node 0 is the root."""

    def __init__(self, per_chunk=10.0, per_update=2.0):
        self.per_chunk = per_chunk
        self.per_update = per_update
        self.clock = 0.0
        self.nodes = [Node(None, ())]

    def add(self, parent, test, image=(), complete=False, links=None):
        """Join a node as its parent's last child; no charge."""
        test = tuple(test)
        siblings = self.nodes[parent].children
        if not test or any(self.nodes[c].test == test for c in siblings):
            raise Refused(f"test link {test} under node {parent}")
        siblings.append(len(self.nodes))
        self.nodes.append(Node(parent, test, image, complete, links))
        return len(self.nodes) - 1

    def contents(self, node_id):
        tokens = ()
        while node_id:
            node = self.nodes[node_id]
            tokens = node.test + tokens
            node_id = node.parent
        return tokens

    def size(self, node_id):
        return len(self.nodes[node_id].image) or len(self.contents(node_id))

    def recognise(self, tokens, start=0, end=None):
        """The id of the deepest node whose path prefixes the span."""
        rest = tuple(tokens[start:end])
        node_id = 0
        while True:
            for child in self.nodes[node_id].children:
                test = self.nodes[child].test
                if rest[:len(test)] == test:
                    node_id, rest = child, rest[len(test):]
                    break
            else:
                return node_id

    def learn(self, tokens):
        """Returns the event as ``(kind, node id)``."""
        if not tokens:
            raise Refused("cannot learn an empty pattern")
        node_id = self.recognise(tokens)
        node = self.nodes[node_id]
        if node.complete:
            matches = node.image == tokens
        else:
            matches = tokens[:len(node.image)] == node.image
        if matches:
            return self.familiarise(node_id, tokens)
        return self.discriminate(node_id, tokens)

    def _new(self, parent, test, image=(), complete=False):
        node_id = self.add(parent, test, image, complete)
        self.clock += self.per_chunk
        return CREATED, node_id

    def _grow(self, node_id, token, whole):
        node = self.nodes[node_id]
        node.image += (token,)
        if node.image == whole:
            node.complete = True
        self.clock += self.per_update
        return FAMILIARISED, node_id

    def familiarise(self, node_id, tokens):
        node = self.nodes[node_id]
        common = 0
        for a, b in zip(tokens, node.image):
            if a != b:
                break
            common += 1
        rest = tokens[common:]
        if not rest:
            if node.image == tokens:
                node.complete = True
            return NO_CHANGE, node_id
        found = self.recognise(rest)
        if found == 0:
            return self._new(0, rest[:1])
        image = self.nodes[found].image
        if not image or self.nodes[found].complete or len(image) > len(rest):
            found = node_id
        return self._grow(found, rest[0],
                          tokens if found == node_id else None)

    def discriminate(self, node_id, tokens):
        start = len(self.contents(node_id))
        rest = tokens[start:]
        if not rest:
            return NO_CHANGE, node_id
        found = self.recognise(rest)
        if found == 0:
            return self._new(0, rest[:1])
        image = self.nodes[found].image
        if not image:
            return self._grow(found, rest[0], rest)
        test = image if rest[:len(image)] == image else self.contents(found)
        return self._new(node_id, test, tokens[:start] + test,
                         tokens[:start] + test == tokens)


class Memory:
    def __init__(self, label_modality="verbal", per_chunk=10.0,
                 per_update=2.0):
        self.label_modality = label_modality
        self.per_chunk = per_chunk
        self.per_update = per_update
        self.nets = {}

    def net(self, modality):
        if modality not in self.nets:
            self.nets[modality] = Net(self.per_chunk, self.per_update)
        return self.nets[modality]

    def label_name(self, label_id):
        return " ".join(self.nets[self.label_modality].contents(label_id))

    def dump(self, meta=None):
        """The snapshot text, schema version 4, with the ``meta`` block."""
        networks = {
            modality: {"clock_seconds": net.clock, "segments": segments(
                [n.parent, " ".join(n.test), " ".join(n.image), n.complete,
                 {str(k): n.links[k] for k in sorted(n.links)}]
                for n in net.nodes[1:])}
            for modality, net in sorted(self.nets.items())}
        doc = {"schema_version": 4, "label_modality": self.label_modality,
               "seconds_per_new_chunk": self.per_chunk,
               "seconds_per_update": self.per_update,
               "networks": networks, "meta": meta or {}}
        return layout(doc, sort_keys=True)


def layout(doc, sort_keys=False):
    """The snapshot text of ``doc``, any JSON value, laid out as the
    package writes a snapshot: compact JSON in ``doc``'s own key order, or
    sorted with ``sort_keys``, then a newline, except that each net's
    segments object puts each of its members, and its closing brace, at the
    start of a line, and a tab before each item of a list member."""
    def compact(value):
        return json.dumps(value, sort_keys=sort_keys, separators=(",", ":"))

    def members(value, write, newline=""):
        """``value`` as an object whose member ``key`` is written by
        ``write(key, item)``, each after ``newline``; any other value
        compact."""
        if type(value) is not dict:
            return compact(value)
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + ",".join(newline + compact(key) + ":" + write(key, item)
                              for key, item in items) + newline + "}"

    def rows(key, value):
        if type(value) is not list:
            return compact(value)
        return "[" + ",".join("\t" + compact(row) for row in value) + "]"

    def net(modality, value):
        return members(value, lambda key, item: members(item, rows, "\n")
                       if key == "segments" else compact(item))

    return members(doc, lambda key, item: members(item, net)
                   if key == "networks" else compact(item)) + "\n"


def segments(rows):
    """Schema version 4 segments of one net's ``rows`` ``[parent, test,
    image, complete, links]``, where row ``i`` is node ``i + 1``: each row,
    with its id put in front, goes under the first token of the test link
    of its root child, found by climbing its parent chain."""
    rows = list(rows)
    grouped = {}
    for node_id, row in enumerate(rows, 1):
        top = row
        while top[0] != 0:
            top = rows[top[0] - 1]
        grouped.setdefault(top[1].split()[0], []).append([node_id, *row])
    return grouped


def document(nets, label_modality="verbal"):
    """A schema version 4 snapshot document of hand-built ``nets``: each
    modality's rows ``[parent, test, image, complete, links]``, row ``i``
    node ``i + 1``, with tokens joined by single spaces and links keyed by
    label node id as text, grouped by :func:`segments`."""
    return {"schema_version": 4, "label_modality": label_modality,
            "seconds_per_new_chunk": 10.0, "seconds_per_update": 2.0,
            "networks": {m: {"clock_seconds": 0.0, "segments": segments(rows)}
                         for m, rows in nets.items()},
            "meta": {}}


def load(doc):
    """The memory a snapshot document holds: every segment's rows, joined
    in the order of their ids, which must run from 1 with no gap."""
    memory = Memory(doc["label_modality"], doc["seconds_per_new_chunk"],
                    doc["seconds_per_update"])
    for modality, net_doc in doc["networks"].items():
        net = memory.net(modality)
        net.clock = net_doc["clock_seconds"]
        rows = sorted(row for rows in net_doc["segments"].values()
                      for row in rows)
        for node_id, parent, test, image, complete, links in rows:
            if node_id != len(net.nodes):
                raise Refused(f"node {node_id} out of place")
            net.add(parent, test.split(), image.split(), complete,
                    {int(k): count for k, count in links.items()})
    return memory


class Trainer:
    """Training with its own STM queues; ``config`` holds the run
    settings by their names in the package's run config."""

    def __init__(self, memory, config):
        self.memory = memory
        self.config = config
        self.queues = {}
        self.rng = random.Random(config["seed"])

    def _gated(self, net, tokens):
        p = self.config["chunk_probability"]
        if p < 1.0 and self.rng.random() >= p:
            return NO_CHANGE, net.recognise(tokens)
        return net.learn(tokens)

    def _pair(self, queues, nets):
        """The chunk pair to link, if any: the two heads under ``head``
        pairing; under ``position`` pairing, the first slots at the same
        position from the head that both hold a complete image."""
        pairs = list(zip(*queues))
        if self.config["stm_pairing"] == "head":
            pairs = pairs[:1]
        for ids in pairs:
            if all(net.nodes[i].complete for net, i in zip(nets, ids)):
                return ids
        return None

    def present(self, sample):
        nets = [self.memory.net(modality) for modality, _ in sample]
        events = [self._gated(net, tokens)
                  for net, (_, tokens) in zip(nets, sample)]
        queues = [self.queues.setdefault(modality, deque())
                  for modality, _ in sample]
        for queue, (_, node_id) in zip(queues, events):
            if node_id:
                queue.appendleft(node_id)
                if len(queue) > self.config["stm_size"]:
                    queue.pop()
        pair = self._pair(queues, nets)
        if pair:
            links = nets[0].nodes[pair[0]].links
            links[pair[1]] = links.get(pair[1], 0) + 1
        return events

    def train(self, samples, seed=None, shuffle=None):
        """The training run as the dict the package writes."""
        config = self.config
        if not samples:
            raise Refused("no training samples")
        seed = config["seed"] if seed is None else seed
        shuffle = config["shuffle"] if shuffle is None else shuffle
        self.rng = random.Random(seed)
        ceiling = config["node_ceiling_factor"] * sum(
            len(tokens) for sample in samples for _, tokens in sample)
        run = {"seed": seed, "epoch_count": 0,
               "learn_events": {CREATED: 0, FAMILIARISED: 0, NO_CHANGE: 0},
               "simulated_time_seconds": 0.0, "converged": False,
               "node_counts": {}, "naming_link_total": 0,
               "epoch_event_counts": [], "diagnostics": []}
        counts = run["epoch_event_counts"]
        order = list(range(len(samples)))
        for epoch in range(1, config["max_epochs"] + 1):
            if shuffle:
                self.rng.shuffle(order)
            changes = 0
            for i in order:
                for kind, _ in self.present(samples[i]):
                    run["learn_events"][kind] += 1
                    changes += kind != NO_CHANGE
            run["epoch_count"] = epoch
            if counts and changes > counts[-1]:
                run["diagnostics"].append(f"epoch {epoch}: learn events "
                                          f"rose {counts[-1]} -> {changes}")
            counts.append(changes)
            if sum(len(n.nodes) for n in self.memory.nets.values()) \
                    > ceiling:
                raise Refused("network grew past the ceiling")
            if not changes:
                break
        else:
            raise Refused("no convergence")
        nets = self.memory.nets
        run["converged"] = True
        run["simulated_time_seconds"] = sum(n.clock for n in nets.values())
        run["node_counts"] = {m: len(nets[m].nodes) for m in sorted(nets)}
        run["naming_link_total"] = sum(sum(node.links.values())
                                       for net in nets.values()
                                       for node in net.nodes)
        return run


def windows(n, span=20, step=1, min_fetch=2):
    """Each window position of an ``n``-token stimulus, in order, as its end
    and its fetch starts: position ``offset`` ends at ``min(offset + span,
    n)`` and starts every fetch that leaves ``min_fetch`` tokens. The scan
    stops after the first window that ends at ``n``."""
    for offset in range(0, n, step):
        end = min(offset + span, n)
        yield end, range(offset, end - min_fetch + 1)
        if end == n:
            return


def linked_tokens(net):
    """The first tokens of the root children whose subtrees hold a naming
    link: the first token of each linked node's contents."""
    return {net.contents(i)[0] for i, node in enumerate(net.nodes)
            if node.links}


def walks(net, tokens, span=20, step=1, min_fetch=2):
    """How many walks ``categorise`` makes through ``net``: one unbounded
    walk per fetch start that some window holds and whose token is in
    :func:`linked_tokens`, plus one bounded walk per window whose end that
    walk's contents pass, when the path's deepest node that fits inside the
    end stops short of it and lists a child after the path's next node
    whose test link starts with the same token."""
    held = set()
    rewalks = 0
    linked = linked_tokens(net)
    for end, starts in windows(len(tokens), span, step, min_fetch):
        for start in starts:
            if tokens[start] not in linked:
                continue
            held.add(start)
            cut, below = net.recognise(tokens, start), None
            while start + len(net.contents(cut)) > end:
                cut, below = net.nodes[cut].parent, cut
            if below is None or start + len(net.contents(cut)) == end:
                continue
            children = net.nodes[cut].children
            token = net.nodes[below].test[0]
            rewalks += any(net.nodes[child].test[0] == token for child in
                           children[children.index(below) + 1:])
    return len(held) + rewalks


def categorise(memory, modality, tokens, span=20, step=1, min_fetch=2,
               weighting="proportional"):
    """Ranked ``(label, confidence)`` entries: every fetch of every window
    position is copied out and walked from the root, and the position's
    largest linked chunk votes."""
    if not tokens or weighting not in ("proportional", "multiplicative"):
        raise Refused("an empty stimulus or an unknown weighting")
    net = memory.nets.get(modality)
    if net is None:
        return ()
    activations = {}
    for end, starts in windows(len(tokens), span, step, min_fetch):
        best, best_size = None, 0
        for start in starts:
            node_id = net.recognise(tokens[start:end])
            if node_id and net.nodes[node_id].links \
                    and net.size(node_id) > best_size:
                best, best_size = node_id, net.size(node_id)
        if best is not None:
            links = net.nodes[best].links
            total = sum(links.values()) if weighting == "proportional" \
                else 1
            for label, count in links.items():
                activations[label] = (activations.get(label, 0.0)
                                      + best_size * (count / total))
    total = sum(activations.values())
    if total <= 0.0:
        return ()
    ranked = sorted(activations.items(), key=lambda item: (-item[1], item[0]))
    return tuple((memory.label_name(label), a / total) for label, a in ranked)


def retrieve(net, tokens):
    """The recognised node's image."""
    return net.nodes[net.recognise(tokens)].image
