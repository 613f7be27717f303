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
means "recognised as nothing". A whole pattern, an attention fetch, a
discrimination's remainder and a familiarisation's difference (the pattern
after the image it extends) are all spans of one token tuple, so this is the
only tree walk. Each node indexes its children by the first token of their
test links, so a step tries only the children listed under the next token, in
insertion order; as every non-root test link is non-empty, that picks the
same child a scan of all children would. Bounding a span only ever rejects
more test links, so a walk of ``tokens[start:]`` whose node's contents fit
inside ``end`` is also the walk of ``tokens[start:end]``; attention reuses
one unbounded walk per fetch start across its window positions that way,
and re-walks bounded from the root only when the path runs past ``end``.

Learning is a four-stage process per presented pattern:

1. sort the pattern to a node,
2. compare that node's image with the pattern,
3. if the image matches (prefix of the pattern, or exactly equal when the
   image is complete), *familiarise*: grow an image by one primitive,
4. otherwise *discriminate*: add one new node (one new test link).

Familiarisation increases how much a chunk can reproduce; discrimination
increases how many chunks can be told apart. Exactly one structural change
happens per learn call.

An image is *complete* when it equals a full presented pattern (the end-marker
surrogate). Complete images stop matching longer patterns, which is what turns
further presentations of extensions into single-shot discriminations of new
chunks rather than endless image growth.

Cross-modality *naming links* (counted associations from a chunk to a label
chunk in another modality) hang off nodes here; they are created by the
trainer when fully learned chunks co-occupy short-term memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    created_at: float = 0.0
    updated_at: float = 0.0
    # Derived from the test links when the node is created or loaded: the
    # length of its contents, and its children's ids keyed by the first
    # token of their test links, in insertion order.
    contents_length: int = 0
    index: dict[str, tuple[int, ...]] = field(default_factory=dict,
                                              repr=False)

    @property
    def children(self) -> list[int]:
        """Child ids in creation order, read from ``index``: a parent's
        children are created with increasing ids."""
        return sorted(cid for ids in self.index.values() for cid in ids)


@dataclass(frozen=True)
class LearnEvent:
    kind: str                        # created_node | familiarised | no_change
    node_id: int
    simulated_cost_seconds: float


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
        """Concatenated test links on the root-to-node path."""
        toks: list[str] = []
        node = self.node(node_id)
        chain = []
        while node.parent is not None:
            chain.append(node.test)
            node = self._nodes[node.parent]
        for test in reversed(chain):
            toks.extend(test)
        return Pattern.derived(self.modality, tuple(toks))

    def image(self, node_id: int) -> Pattern:
        return Pattern.derived(self.modality, self.node(node_id).image)

    def chunk_size(self, node_id: int) -> int:
        """Primitive count of the chunk: its image when one has formed, its
        contents otherwise, read from the length stored on the node. Root
        is 0. (A non-empty image is never shorter than the contents, so this
        is the larger of the two descriptions.)"""
        node = self.node(node_id)
        return len(node.image) or node.contents_length

    def is_fully_learned(self, node_id: int) -> bool:
        """Gate used for naming-link formation: the image equals a pattern
        that was actually presented in full."""
        return self.node(node_id).image_complete

    def _check_modality(self, p: Pattern) -> None:
        if p.modality != self.modality:
            raise PatternError(
                f"pattern modality {p.modality!r} does not match "
                f"network modality {self.modality!r}"
            )

    def _new_node(self, parent: Node, test: tuple[str, ...],
                  image: tuple[str, ...], complete: bool) -> Node:
        if not test:
            raise NetworkError("a non-root test link must be non-empty")
        for cid in parent.index.get(test[0], ()):
            if self._nodes[cid].test == test:
                raise NetworkError(
                    f"duplicate sibling test link {test!r} under node "
                    f"{parent.node_id}"
                )
        self.clock_seconds += self.seconds_per_new_chunk
        node = Node(node_id=len(self._nodes), test=test, image=image,
                    image_complete=complete, parent=parent.node_id,
                    created_at=self.clock_seconds,
                    updated_at=self.clock_seconds,
                    contents_length=parent.contents_length + len(test))
        self._nodes.append(node)
        parent.index[test[0]] = parent.index.get(test[0], ()) + \
            (node.node_id,)
        return node

    def _append_to_image(self, node: Node, token: str,
                         learned: Pattern | None) -> None:
        # ``learned`` is the pattern presented in full this call, when the
        # append target is the node it was sorted to; a cross-append driven
        # by a difference never completes an image by itself.
        self.clock_seconds += self.seconds_per_update
        node.image = node.image + (token,)
        if learned is not None and node.image == learned.tokens:
            node.image_complete = True
        node.updated_at = self.clock_seconds

    # -- retrieval --------------------------------------------------------

    def recognise(self, p: Pattern, start: int = 0,
                  end: int | None = None) -> Node:
        """Sort the span ``p.tokens[start:end]`` through the tree; never
        mutates the net.

        Returns the deepest node whose path of test links prefixes the span,
        the root when nothing is recognised (including an empty span).
        """
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
                if stop <= end and tokens[pos:stop] == test:
                    node = nodes[cid]
                    pos = stop
                    break
            else:
                break
        return node

    # -- learning ---------------------------------------------------------

    def _image_matches(self, node: Node, p: Pattern) -> bool:
        # A complete image carries the end marker, so it only matches the
        # pattern it equals; an incomplete image matches any extension.
        if node.image_complete:
            return node.image == p.tokens
        return p.tokens[: len(node.image)] == node.image

    def learn(self, p: Pattern) -> LearnEvent:
        """One pass of the four-stage learning process for ``p``."""
        self._check_modality(p)
        if not p:
            raise NetworkError("cannot learn an empty pattern")
        node = self.recognise(p)
        if self._image_matches(node, p):
            return self.familiarise(node, p)
        return self.discriminate(node, p)

    def familiarise(self, node: Node, p: Pattern) -> LearnEvent:
        """Add information to an existing chunk (at most one primitive).

        The difference between the pattern and the node's image is the rest
        of the pattern from index ``k``, the length of their common prefix;
        it is sorted through the net in place, as the span ``p.tokens[k:]``,
        and never copied. Four outcomes:

        1. no difference: nothing to do;
        2. the root is retrieved: a new primitive is created for the
           difference's first token;
        3. the retrieved image is empty, or longer than the difference, or
           complete (a terminated image counts its end marker and can never
           be appended to): the difference's first token is appended to the
           *original* node's image;
        4. otherwise the retrieved node's image is appended instead.

        ``learn`` familiarises only a node whose image prefixes the pattern,
        and ``discriminate`` only one whose image is empty, so ``k`` is the
        image's length, confirmed by one slice compare. A direct call whose
        image does not prefix the pattern finds ``k`` with
        :func:`~chunknet.patterns.difference`.
        """
        self._check_modality(p)
        tokens = p.tokens
        k = len(node.image)
        if tokens[:k] != node.image:
            k = len(tokens) - len(
                difference(p, Pattern.derived(self.modality, node.image)))
        if k >= len(tokens):
            # The image reproduces the whole presented pattern: nothing to
            # add, but the end marker is now warranted if still missing.
            if node.image == tokens and not node.image_complete:
                node.image_complete = True
            return LearnEvent(NO_CHANGE, node.node_id, 0.0)
        ret = self.recognise(p, k)
        if ret.node_id == ROOT_ID:
            new = self._new_node(self.root, (tokens[k],), (), False)
            return LearnEvent(CREATED_NODE, new.node_id,
                              self.seconds_per_new_chunk)
        if not ret.image or ret.image_complete or \
                len(ret.image) > len(tokens) - k:
            self._append_to_image(node, tokens[k], p)
            return LearnEvent(FAMILIARISED, node.node_id,
                              self.seconds_per_update)
        self._append_to_image(ret, tokens[k],
                              p if ret.node_id == node.node_id else None)
        return LearnEvent(FAMILIARISED, ret.node_id, self.seconds_per_update)

    def discriminate(self, node: Node, p: Pattern) -> LearnEvent:
        """Add one new node below ``node`` (or a new primitive at the root).

        The remainder of the pattern after ``node``'s contents is sorted
        through the net in place. Root retrieved: the remainder's first token
        becomes a new root primitive. A node with an empty image: the
        remainder is familiarised into it. A node with a filled image: a new
        child of ``node`` is created whose test link is that image with the
        end marker dropped (falling back to the retrieved node's contents when
        the image has grown past the remainder), and whose image is the new
        node's own path of tests.
        """
        start = node.contents_length
        if start >= len(p):
            # Pattern already fully encoded by this node's path; its image
            # has simply grown past the pattern. Nothing new to store.
            return LearnEvent(NO_CHANGE, node.node_id, 0.0)
        ret = self.recognise(p, start)
        if ret.node_id == ROOT_ID:
            new = self._new_node(self.root, (p.tokens[start],), (), False)
            return LearnEvent(CREATED_NODE, new.node_id,
                              self.seconds_per_new_chunk)
        if not ret.image:
            return self.familiarise(
                ret, Pattern.derived(p.modality, p.tokens[start:]))
        test = ret.image
        if p.tokens[start:start + len(test)] != test:
            # Retrieved image is not a prefix of the remainder (it grew past
            # the recognised contents); the contents are, always.
            test = self.contents(ret.node_id).tokens
        image = self.contents(node.node_id).tokens + test
        new = self._new_node(node, test, image, image == p.tokens)
        return LearnEvent(CREATED_NODE, new.node_id,
                          self.seconds_per_new_chunk)

    # -- naming links -----------------------------------------------------

    def add_naming_link(self, from_node_id: int, label_node_id: int) -> None:
        """Count one co-occurrence between a chunk here and a label chunk."""
        if from_node_id == ROOT_ID or label_node_id == ROOT_ID:
            raise NetworkError("naming links never involve a root node")
        node = self.node(from_node_id)
        node.naming_links[label_node_id] = \
            node.naming_links.get(label_node_id, 0) + 1


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
        return self.net(self.label_modality)

    def add_naming_link(self, modality: str, node_id: int,
                        label_node_id: int) -> None:
        self.label_net.node(label_node_id)  # must exist
        if label_node_id == ROOT_ID:
            raise NetworkError("naming links never involve a root node")
        self.net(modality).add_naming_link(node_id, label_node_id)

    def label_name(self, label_node_id: int) -> str:
        """Human-readable name of a label chunk (its contents)."""
        return self.label_net.contents(label_node_id).to_line()

    @property
    def simulated_seconds(self) -> float:
        return sum(net.clock_seconds for net in self.nets.values())
