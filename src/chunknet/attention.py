"""Sliding attention window, chunk activation, and the classification commands.

A stimulus is scanned by a window of at most ``span`` tokens that advances by
``step`` tokens and, before each advance, progressively shrinks from the front
down to ``min_fetch`` tokens. Each fetch is an index range of the stimulus's
one token tuple, sorted through the trained network in place; per window
position only the largest chunk retrieved gets to vote. A fetch start is
covered by up to ``span - min_fetch + 1`` window positions, so each start is
walked once without the window bound, and its vote goes straight into a
per-window table of the largest vote so far and its node. One climb up
that path cuts it back for every window whose end it passes, and the fetch
is walked again from the root only where the tree could lead elsewhere. A
walk that neither votes nor passes an end costs nothing more, so the scan's
cost follows its walks.

A chunk votes for the labels it holds naming links to, contributing its size
split across labels in proportion to the link counts (under multiplicative
weighting, its size times each link count). Votes normalise into confidence
scores: C(label | stimulus) = activation_label / total activation.

This read side never mutates the memory, nor makes a net it lacks, so any
number of stimuli can be classified concurrently against one frozen model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import DiscriminationNet, MultiModalMemory
from .patterns import Pattern


class AttentionError(ValueError):
    pass


@dataclass(frozen=True)
class AttentionConfig:
    span: int = 20          # maximum window size, in tokens
    step: int = 1           # window advance per position
    min_fetch: int = 2      # smallest shrunken fetch

    def __post_init__(self):
        for name in ("span", "step", "min_fetch"):
            if type(getattr(self, name)) is not int:
                raise AttentionError(f"attention {name} must be an integer, "
                                     f"got {getattr(self, name)!r}")
        if self.step < 1:
            raise AttentionError("attention step must be >= 1")
        if not 2 <= self.min_fetch <= self.span:
            raise AttentionError(
                f"need 2 <= min_fetch <= span, got min_fetch={self.min_fetch} "
                f"span={self.span}")


def window_groups(stimulus: Pattern, cfg: AttentionConfig) -> list[range]:
    """Fetch starts grouped by window position, in emission order.

    Position ``o`` covers tokens [o, min(o + span, n)); its group is the range
    of fetch starts that keep that right edge and leave ``min_fetch`` tokens.
    Window ends grow with the offset until one reaches the end of the
    stimulus; every later position would only repeat suffixes of that
    window, so the scan stops there and no window is emitted twice. So
    group ``i`` is the window at offset ``i * step``: only the last window,
    cut short by the stimulus's end, can hold no start; it is then dropped.

    That window is at offset ``last = ceil((n - span) / step) * step``, 0
    when ``n <= span``, and every window before it is whole: it holds
    ``span - min_fetch + 1`` starts.
    """
    if not stimulus:
        raise AttentionError("cannot scan an empty stimulus")
    n, span, step, min_fetch = len(stimulus), cfg.span, cfg.step, cfg.min_fetch
    whole = span - min_fetch + 1    # the starts of a whole window
    last = -((span - n) // step) * step if n > span else 0
    # A stimulus no longer than the span skips the comprehension's cost.
    groups = [range(o, o + whole) for o in range(0, last, step)] \
        if last else []
    tail = range(last, n - min_fetch + 1)
    if tail:
        groups.append(tail)
    return groups


@dataclass(frozen=True)
class Classification:
    """Ranked (label, confidence) list; empty when no chunk activation
    occurred (uniform scores are never fabricated)."""

    entries: tuple[tuple[str, float], ...]

    @property
    def no_activation(self) -> bool:
        return not self.entries

    @property
    def top(self) -> str | None:
        return self.entries[0][0] if self.entries else None

    def confidence(self, label: str) -> float:
        for name, conf in self.entries:
            if name == label:
                return conf
        return 0.0


def confidence(activations: dict[int, float],
               memory: MultiModalMemory) -> Classification:
    """Normalise label activations (label node id -> a_i) into ranked
    confidences, C(c_i|x) = a_i / sum(a_k).

    Ties are broken by label-chunk creation order (node id), oldest first,
    so results are reproducible; the tied scores remain visible in the output
    rather than being hidden.
    """
    total = sum(activations.values())
    if total <= 0.0:
        return Classification(())
    ranked = sorted(activations.items(),
                    key=lambda item: (-item[1], item[0]))
    entries = tuple((memory.label_name(label_id), a / total)
                    for label_id, a in ranked)
    return Classification(entries)


def categorise(memory: MultiModalMemory, stimulus: Pattern,
               cfg: AttentionConfig,
               link_weighting: str = "proportional") -> Classification:
    """Scan, let per-position winners vote, normalise. Read-only.

    Per window position, the single largest voting chunk (a recognised node
    that carries naming links) among that position's fetches is selected:
    bigger chunks are rewarded, smaller knowledge structures are penalised,
    and nested sub-chunks of one span never double-vote. Chunks without
    links are not voters and never block a position. A fetch start is
    walked only if the net's ``linked_tokens`` maps its token to None or to
    the next token: else it could reach no voter (why:
    ``test_starts_into_linkless_subtrees_are_not_walked`` in
    ``tests/test_attention.py``).

    The winner adds ``size * (count / total)`` to each label it links to:
    ``total`` is its link count under ``proportional`` weighting, so its
    size is split across labels, and 1 under ``multiplicative`` weighting.

    Entry ``w`` of ``sizes`` and ``winners`` is the window at offset
    ``w * step``, group ``w`` of ``window_groups``: its largest vote so far
    and the node that cast it. A node's vote is its ``size`` if it carries
    naming links, else 0. Each start some window holds is walked once
    without a bound and updates the windows that hold it. When that path
    stops inside a window's end, its node is exactly what the bounded walk
    returns: every step on it fits, every sibling tried before a step
    failed without the bound and so fails with it, and the last node has no
    child that matches even unbounded.

    A path from ``start`` reaches ``r = start + contents_length``, never
    past the stimulus's end ``n``. Window ``w`` ends at
    ``min(w * step + span, n)``, so the last window ends past every path,
    and an earlier one is passed exactly when ``w * step + span < r``. The
    windows that hold ``start`` have offsets from ``start + min_fetch -
    span`` to ``start``, within the first and last window's; their ends
    grow with ``w``, so the passed ones come first. The rest take the
    start's own vote, which changes nothing when it is 0. The earliest
    window that holds ``start`` ends at ``min(start + min_fetch, n)`` or
    later, so a path of at most ``min_fetch`` tokens passes no end; without
    naming links it has no vote either, and the scan goes to the next start.

    A passed window's walk, bounded to ``bound = w * step + span - start``
    tokens, follows the path as above while its steps fit. So it reaches
    ``cut``, the deepest path node with ``contents_length <= bound``; the
    path passes the end, so a path node ``below`` it exists. If ``cut``
    uses up the bound, the walk stops there. Else the next token is
    ``below.test[0]``: the children listed before ``below`` under it failed
    unbounded, and ``below`` does not fit. So the walk stops at ``cut`` too,
    unless a sibling is listed after ``below``: it was never tried, may fit
    and match, and only then is the fetch walked again from the root.
    Bounds fall with ``w``, so taken from the latest window down, ``cut``
    and ``below`` only climb, once per start. A start offers each window
    one candidate, so the order of its windows changes no result.

    Starts come in order and an entry takes only a strictly larger vote, so
    a window keeps its first start with the largest vote, as a strict ``>``
    scan of its fetches does. A vote of 0 never wins: a non-root node's
    ``size`` is at least 1, since its test link is not empty, and the root
    never holds naming links (``add_naming_link`` refuses it, and it has no
    snapshot row). Winners add up in window order, as in a full scan.
    """
    if link_weighting not in ("proportional", "multiplicative"):
        raise AttentionError(f"unknown link weighting {link_weighting!r}")
    proportional = link_weighting == "proportional"
    groups = window_groups(stimulus, cfg)
    net = memory.nets.get(stimulus.modality)
    if net is None or not groups:
        return Classification(())
    recognise, nodes = net.recognise, net._nodes
    tokens, linked = stimulus.tokens, net.linked_tokens
    span, step, min_fetch = cfg.span, cfg.step, cfg.min_fetch
    sizes, winners = [0] * len(groups), [None] * len(groups)
    slack, tail = span - min_fetch, groups[-1].start  # tail: last offset
    # Windows leave gaps only when a step outruns a full window's starts;
    # otherwise together they hold every start before the last one's stop.
    held = groups if step > slack + 1 else (range(groups[-1].stop),)
    for group in held:
        for start in group:
            seconds = linked.get(tokens[start])
            if seconds is None or tokens[start + 1] not in seconds and \
                    None not in seconds:
                continue
            node = recognise(stimulus, start)
            length = node.contents_length
            if length <= min_fetch and not node.naming_links:
                continue
            # Windows ``first`` to ``last`` hold ``start``: conditionals and
            # a ``while`` cost less here than ``min`` and a one-window range.
            first = -((slack - start) // step) if start > slack else 0
            if start + length > first * step + span:
                passed = (start + length - span - 1) // step
                if passed > start // step:
                    passed = start // step
                cut, w = node, passed
                while w >= first:
                    bound = w * step + span - start
                    while cut.contents_length > bound:
                        below, cut = cut, nodes[cut.parent]
                    bounded = cut
                    if cut.contents_length != bound and \
                            cut.index[below.test[0]][-1] != below.node_id:
                        bounded = recognise(stimulus, start, start + bound)
                    if bounded.naming_links and bounded.size > sizes[w]:
                        sizes[w] = bounded.size
                        winners[w] = bounded
                    w -= 1
                first = passed + 1
            if node.naming_links:
                size, w = node.size, first
                last = (start if start < tail else tail) // step
                while w <= last:
                    if size > sizes[w]:
                        sizes[w] = size
                        winners[w] = node
                    w += 1
    activations: dict[int, float] = {}
    for size, best in zip(sizes, winners):
        if size:
            links = best.naming_links
            total = sum(links.values()) if proportional else 1
            for label_id, count in links.items():
                activations[label_id] = (activations.get(label_id, 0.0)
                                         + size * (count / total))
    return confidence(activations, memory)


def retrieve(net: DiscriminationNet, stimulus: Pattern) -> Pattern:
    """The most similar stored chunk: the recognised node's image
    (empty when nothing is recognised)."""
    return Pattern.derived(net.modality, net.recognise(stimulus).image)
