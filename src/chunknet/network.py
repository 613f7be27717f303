"""The discrimination network: chunk storage, retrieval, and incremental learning.

The long-term memory for one modality is a tree of nodes. Each non-root node
carries a *test link* (a short pattern checked against the remaining input
during traversal) and an *image* (the pattern the node can reproduce when
reached). The concatenation of test links on the root-to-node path is the
node's *contents*; contents and image are the extrinsic and intrinsic
descriptions of a chunk.

Retrieval (``recognise``) sorts a span ``tokens[start:end]`` of an input
pattern down the tree, in place: at each node, the first child (in insertion
order) whose test link fits in the span and equals the next tokens consumes
them, until no child matches. The deepest node reached is returned; the root
means "recognised as nothing". A whole pattern, an attention fetch and the
rest of a learned pattern (after the image it extends, or after the contents
it discriminates) are all spans of one token tuple, so this is the only
tree walk. Each node indexes its children by the first token of their
test links, so a step tries only the children listed under the next token, in
insertion order; as every non-root test link is non-empty, that picks the
same child a scan of all children would. A one-token test link listed there
matches without a compare: the index key already is that token, and it fits
in any span with a next token.

Learning has one entry point, ``learn``, and is a four-stage process per
presented pattern:

1. sort the pattern to a node,
2. compare that node's image with the pattern,
3. if the image matches (prefix of the pattern, or exactly equal when the
   image is complete), *familiarise*: grow an image by one primitive,
4. otherwise *discriminate*: add one new node (one new test link).

Familiarisation increases how much a chunk can reproduce; discrimination
increases how many chunks can be told apart. One private step does both
after the walk, so at most one structural change happens per learn call.

An image is *complete* when it equals a full presented pattern (the end-marker
surrogate). Complete images stop matching longer patterns, which is what turns
further presentations of extensions into single-shot discriminations of new
chunks rather than endless image growth; no learn grows one.

Each learn remembers where its walk ended; see ``learn``.

Every node, learned or loaded, joins the tree through ``attach``.

A node ``snapshot`` loads is a ``LoadedNode``; see its docstring.

Cross-modality *naming links* (counted associations from a chunk to a label
chunk in another modality) hang off nodes here; they are created by the
trainer when fully learned chunks co-occupy short-term memory.

Each net keeps ``linked_tokens``: the first token of each linked chunk's
contents, mapped to the set of their second tokens, with None for a linked
chunk whose contents are that token alone. Links are made in two places
only, and both keep it: ``MultiModalMemory.add_naming_link`` and
``snapshot``'s row loop (test: ``test_linked_tokens_follow_the_node_table``
in ``tests/test_snapshot.py``). ``attention.categorise`` walks a start
only if the map lists its token with None or with the token after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

# Nothing here calls ``difference``; the benchmark's tracer patches it here.
from .patterns import Pattern, PatternError, difference

ROOT_ID = 0

CREATED_NODE = "created_node"
FAMILIARISED = "familiarised"
NO_CHANGE = "no_change"


class NetworkError(ValueError):
    """Raised on misuse of the network API."""


@dataclass
class Node:
    node_id: int
    test: tuple[str, ...]            # () only for the root
    image: tuple[str, ...]
    image_complete: bool = False
    parent: int | None = None
    naming_links: dict[int, int] = field(default_factory=dict)
    # Set by DiscriminationNet.attach: the length of the contents, and the
    # children's ids by the first token of their test links, in order.
    contents_length: int = 0
    index: dict[str, tuple[int, ...]] = field(default_factory=dict,
                                              repr=False)

    @property
    def size(self) -> int:
        """Primitive count of the chunk: its image once one has formed, its
        contents otherwise. Root is 0. (A non-empty image is never shorter
        than the contents, so this is the larger of the two descriptions.)
        It serves a ``LoadedNode`` too, whose ``image`` read splits its
        text the first time."""
        return len(self.image) or self.contents_length

    @property
    def children(self) -> list[int]:
        """Child ids in creation order, read from ``index``: a parent's
        children are created with increasing ids."""
        return sorted(cid for ids in self.index.values() for cid in ids)


class LoadedNode(Node):
    """A node that ``snapshot`` built from a file row; a learned node is a
    ``Node``, whose ``image`` is a plain attribute. Its image stays the
    row's text until the first read of ``image``, also by ``Node.size``,
    splits it once and keeps the tuple; a write (learning after a load)
    stores the tuple. A query reads ``size`` only on the nodes with naming
    links that its walks reach, so a load does no work per image. Its
    contents length is the class default, 0, until ``attach`` sets it."""

    def __init__(self, node_id: int, test: tuple[str, ...], image: str,
                 image_complete: bool, parent: int,
                 naming_links: dict[int, int]):
        self.node_id = node_id
        self.test = test
        self._image = image
        self.image_complete = image_complete
        self.parent = parent
        self.naming_links = naming_links
        self.index = {}

    @property
    def image(self) -> tuple[str, ...]:
        image = self._image
        if type(image) is str:
            image = self._image = tuple(image.split())
        return image

    @image.setter
    def image(self, image: tuple[str, ...]) -> None:
        self._image = image


class LearnEvent(NamedTuple):
    kind: str                        # created_node | familiarised | no_change
    node_id: int


class DiscriminationNet:
    """One modality's tree of chunks plus its simulated learning clock."""

    def __init__(self, modality: str, seconds_per_new_chunk: float = 10.0,
                 seconds_per_update: float = 2.0):
        self.modality = modality
        self.seconds_per_new_chunk = seconds_per_new_chunk
        self.seconds_per_update = seconds_per_update
        self.clock_seconds = 0.0
        # Indexed by node id: ids are dense, in creation order, and a node
        # is never deleted.
        self._nodes: list[Node] = [Node(node_id=ROOT_ID, test=(), image=())]
        # [end node, kept NO_CHANGE or None] by tokens; see ``learn``.
        self._walks: dict[tuple[str, ...], list] = {}
        self.linked_tokens: dict[str, set[str | None]] = {}

    # -- plumbing ---------------------------------------------------------

    @property
    def root(self) -> Node:
        return self._nodes[ROOT_ID]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        try:
            if node_id >= 0:
                return self._nodes[node_id]
        except (IndexError, TypeError):
            pass
        raise NetworkError(f"unknown node id {node_id}")

    def nodes(self) -> list[Node]:
        return list(self._nodes)

    def contents(self, node_id: int) -> Pattern:
        """Concatenated test links on the root-to-node path: the tokens
        ``_path`` reads, which ``MultiModalMemory.label_name`` joins."""
        return Pattern.derived(self.modality, tuple(self._path(node_id)))

    def _path(self, node_id: int) -> list[str]:
        """The test links' tokens from the root down to ``node_id``, read in
        one walk up the parent chain."""
        node = self.node(node_id)
        toks: list[str] = []
        while node.parent is not None:
            toks[:0] = node.test
            node = self._nodes[node.parent]
        return toks

    def _check_modality(self, p: Pattern) -> None:
        if p.modality != self.modality:
            raise PatternError(
                f"pattern modality {p.modality!r} does not match "
                f"network modality {self.modality!r}"
            )

    def attach(self, nodes: list[Node]) -> None:
        """Join ``nodes``, each with a parent already joined, in order: each
        goes last under its test link's first token in its parent's index,
        and gets its contents length. A node with the next free id is then
        appended to the table; ``snapshot`` puts a loaded node at its id
        first. Every node, learned or loaded, joins here, and nothing else
        sets contents lengths or indexes; ``snapshot`` checks a file's own
        facts before. A node whose test link is empty or a sibling's raises
        :class:`NetworkError`; the nodes before it stay joined."""
        own = self._nodes
        for node in nodes:
            test = node.test
            if not test:
                raise NetworkError(f"node {node.node_id} has an empty test "
                                   f"link")
            parent = own[node.parent]
            siblings = parent.index.get(test[0], ())
            for sid in siblings:
                if own[sid].test == test:
                    raise NetworkError(f"sibling nodes {sid} and "
                                       f"{node.node_id} have the same test "
                                       f"link")
            parent.index[test[0]] = siblings + (node.node_id,)
            node.contents_length = parent.contents_length + len(test)
            if node.node_id == len(own):
                own.append(node)

    def _new_node(self, parent: Node, test: tuple[str, ...],
                  image: tuple[str, ...], complete: bool) -> Node:
        node = Node(node_id=len(self._nodes), test=test, image=image,
                    image_complete=complete, parent=parent.node_id)
        self.attach([node])
        self.clock_seconds += self.seconds_per_new_chunk
        return node

    def _append_to_image(self, node: Node, token: str,
                         learned: tuple[str, ...] | None) -> None:
        # ``learned``: the tokens presented in full to ``node``, or None for
        # a cross-append, which never completes an image. Images grow here.
        self.clock_seconds += self.seconds_per_update
        node.image = node.image + (token,)
        if node.image == learned:
            node.image_complete = True

    # -- retrieval --------------------------------------------------------

    def recognise(self, p: Pattern, start: int = 0,
                  end: int | None = None) -> Node:
        """Sort the span ``p.tokens[start:end]`` through the tree; never
        mutates the net.

        Returns the deepest node whose path of test links prefixes the span,
        the root when nothing is recognised (including an empty span). A
        child listed under the next token whose test link is one token long
        matches without a slice compare.
        """
        if p.modality != self.modality:
            self._check_modality(p)
        nodes = self._nodes
        node = nodes[ROOT_ID]
        tokens = p.tokens
        end = len(tokens) if end is None else end
        pos = start
        while pos < end:
            for cid in node.index.get(tokens[pos], ()):
                test = nodes[cid].test
                stop = pos + len(test)
                if stop == pos + 1 or stop <= end and \
                        tokens[pos:stop] == test:
                    node = nodes[cid]
                    pos = stop
                    break
            else:
                break
        return node

    # -- learning ---------------------------------------------------------

    def learn(self, p: Pattern) -> LearnEvent:
        """One pass of the four-stage learning process for ``p``: the walk
        to ``node`` consumes ``p.tokens[:node.contents_length]``, the node's
        contents, and ``_step`` familiarises or discriminates there.

        Every learn remembers its walk under ``p.tokens``: the end node, and
        the event if it is ``NO_CHANGE``, in one entry updated in place, so
        a learn hashes its tokens once (twice to add the entry). The next
        learn of the same tokens starts from the node without a walk, and
        returns a kept event at once, when the node lists no child under the
        pattern's next token, or no token is left after its contents;
        otherwise it walks again from the root. That is exact:

        - A walk takes the first matching child in insertion order.
          ``attach`` lists a new sibling last and removes none. So every
          step before the end keeps its child.
        - The walk stopped at the end node because no child there matched
          at the next token. If no child is listed under that token, or no
          token is left, none can match now. Images never steer a walk.
        - A kept ``NO_CHANGE`` stays right. The end node's image either
          equals the pattern and is complete (``_step`` sets
          ``image_complete`` before the event is kept), or cannot match the
          pattern: its contents are the whole pattern, and its image is
          complete and differs from it, or is longer than it, or differs
          from it inside its own length. Neither state is ever undone. No
          learn grows a complete image: a complete image that matches is
          the pattern, so nothing is added; familiarising appends only to
          an incomplete image, the end node's or the one the rest reaches;
          discriminating appends only to an empty one. Appending never makes a non-prefix
          a prefix, nor a too-long image shorter.

        A learn answered from a kept event, like the walk it skips, charges
        no simulated time. The trainer's chunk gate draws its random number
        before it calls ``learn``, so the order of its draws does not change
        either. The map is derived, never saved, and a net loaded from a
        snapshot starts with no walk remembered. An empty pattern is never
        remembered, so only a learn that misses the map checks for one.
        """
        if p.modality != self.modality:
            self._check_modality(p)
        tokens = p.tokens
        entry = self._walks.get(tokens)
        if entry is None:
            if not tokens:
                raise NetworkError("cannot learn an empty pattern")
            entry = self._walks[tokens] = [self.recognise(p), None]
        else:
            node, event = entry
            if node.contents_length != len(tokens) and \
                    tokens[node.contents_length] in node.index:
                entry[0] = self.recognise(p)
            elif event is not None:
                return event
        event = self._step(entry[0], p)
        entry[1] = event if event.kind == NO_CHANGE else None
        return event

    def _step(self, node: Node, p: Pattern) -> LearnEvent:
        """Familiarise ``node``, where ``p``'s walk ended, if its image
        matches ``p``, and discriminate it otherwise.

        A complete image carries the end marker, so it only matches the
        pattern it equals; an incomplete image matches any extension. The
        rest of the pattern starts at ``k``: the image's length if it
        matches, else the contents' length. No rest: nothing to add, but a
        matching image (then equal to the pattern) completes. Otherwise the
        rest is sorted through the net in place, as the span
        ``p.tokens[k:]``, to ``ret``; if that is the root, the rest's first
        token becomes a new root primitive. Else:

        - *familiarise*: that token is appended to ``ret``'s image, unless
          that image is empty, complete, or longer than the rest; then to
          ``node``'s image, which completes if it becomes the pattern. (The
          root is never familiarised here: its walk is the rest's walk.)
        - *discriminate*: ``ret`` with an empty image takes that token, and
          completes if it is the whole rest. Otherwise a new child of
          ``node`` is created whose test link is ``ret``'s image with the
          end marker dropped (falling back to ``ret``'s contents when the
          image has grown past the rest), and whose image is the new node's
          own path of tests.
        """
        tokens = p.tokens
        image = node.image
        matches = image == tokens if node.image_complete else \
            tokens[:len(image)] == image
        k = len(image) if matches else node.contents_length
        if k >= len(tokens):
            if matches:
                node.image_complete = True
            return LearnEvent(NO_CHANGE, node.node_id)
        ret = self.recognise(p, k)
        if ret.node_id == ROOT_ID:
            new = self._new_node(self.root, (tokens[k],), (), False)
            return LearnEvent(CREATED_NODE, new.node_id)
        if matches:
            if not ret.image or ret.image_complete or \
                    len(ret.image) > len(tokens) - k:
                ret = node
            self._append_to_image(ret, tokens[k],
                                  tokens if ret is node else None)
            return LearnEvent(FAMILIARISED, ret.node_id)
        if not ret.image:
            self._append_to_image(ret, tokens[k], tokens[k:])
            return LearnEvent(FAMILIARISED, ret.node_id)
        test = ret.image
        if tokens[k:k + len(test)] != test:
            # ``ret``'s image grew past the rest; its contents fit.
            test = tokens[k:k + ret.contents_length]
        image = tokens[:k] + test
        new = self._new_node(node, test, image, image == tokens)
        return LearnEvent(CREATED_NODE, new.node_id)


class MultiModalMemory:
    """All per-modality networks of one model, plus the link convention.

    Naming links are stored on nodes of any non-label modality and point at
    node ids in the label modality's network.
    """

    def __init__(self, label_modality: str = "verbal",
                 seconds_per_new_chunk: float = 10.0,
                 seconds_per_update: float = 2.0):
        self.label_modality = label_modality
        self.seconds_per_new_chunk = seconds_per_new_chunk
        self.seconds_per_update = seconds_per_update
        self.nets: dict[str, DiscriminationNet] = {}

    def net(self, modality: str) -> DiscriminationNet:
        if modality not in self.nets:
            self.nets[modality] = DiscriminationNet(
                modality, self.seconds_per_new_chunk, self.seconds_per_update)
        return self.nets[modality]

    @property
    def label_net(self) -> DiscriminationNet:
        """The label modality's net, looked up and never made: a memory
        without one raises :class:`NetworkError`."""
        try:
            return self.nets[self.label_modality]
        except KeyError:
            raise NetworkError(f"no {self.label_modality!r} label "
                               f"net") from None

    def add_naming_link(self, modality: str, node_id: int,
                        label_node_id: int) -> None:
        """Count one co-occurrence of a chunk with a label chunk. Both
        nets are looked up and never made: a missing one raises
        :class:`NetworkError`, and so does a root on either end. A chunk's
        first link enters the first two tokens of its contents in
        ``linked_tokens``: the second, or None if there is none, under the
        first."""
        self.label_net.node(label_node_id)  # must exist
        try:
            net = self.nets[modality]
        except KeyError:
            raise NetworkError(f"no {modality!r} net") from None
        if node_id == ROOT_ID or label_node_id == ROOT_ID:
            raise NetworkError("naming links never involve a root node")
        links = net.node(node_id).naming_links
        if not links:
            path = net._path(node_id)
            net.linked_tokens.setdefault(path[0], set()).add(
                path[1] if len(path) > 1 else None)
        links[label_node_id] = links.get(label_node_id, 0) + 1

    def label_name(self, label_node_id: int) -> str:
        """Human-readable name of a label chunk: its ``contents`` joined by
        single spaces, from the same ``_path`` walk, with no ``Pattern``."""
        return " ".join(self.label_net._path(label_node_id))

    @property
    def simulated_seconds(self) -> float:
        return sum(net.clock_seconds for net in self.nets.values())
