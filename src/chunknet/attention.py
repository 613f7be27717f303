"""Sliding attention window, chunk activation, and the classification commands.

A stimulus is scanned by a window of at most ``span`` tokens that advances by
``step`` tokens and, before each advance, progressively shrinks from the front
down to ``min_fetch`` tokens. Each fetch is an index range of the stimulus's
one token tuple, sorted through the trained network in place; per window
position only the largest chunk retrieved gets to vote. A fetch start is
covered by up to ``span - min_fetch + 1`` window positions, so each start is
walked once without the window bound. For a window whose end that path
passes, the path is cut back to the node the bounded walk reaches, and the
fetch is walked again from the root only where the tree could lead
elsewhere. A start's walk leaves one vote, and a window picks its winner
with one ``max`` over its starts' votes rather than a Python step per fetch.
Past the walks, the scan's cost follows its voting starts and the cut ones
whose vote changes: only a window that holds one is looked at.

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
    window, so the scan stops there and no window is emitted twice.
    """
    if not stimulus:
        raise AttentionError("cannot scan an empty stimulus")
    n = len(stimulus)
    groups: list[range] = []
    for offset in range(0, n, cfg.step):
        end = min(offset + cfg.span, n)
        group = range(offset, end - cfg.min_fetch + 1)
        if group:
            groups.append(group)
        if end == n:
            break
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
    links are not voters and never block a position.

    The winner adds ``size * (count / total)`` to each label it links to:
    ``total`` is its link count under ``proportional`` weighting, so its
    size is split across labels, and 1 under ``multiplicative`` weighting.

    Each fetch start that some window holds is walked once per call
    without a bound, and its *vote* is kept: the node's ``size`` if it
    carries naming links, else 0. When that path stops inside a window's
    end, its node is exactly what the bounded walk returns: every step on it
    fits, every sibling tried before a step failed without the bound and so
    fails with it, and the last node has no child that matches even
    unbounded. When the path passes the end, ``recognise_within`` gives the
    bounded walk's node: the path's deepest node that fits, unless a
    sibling listed after the path's next node could match, when the fetch
    is walked again from the root under the bound.

    So a window's votes are the kept votes of its starts, except where a
    start's path passes the window's end. A path from ``start`` reaches
    ``r = start + contents_length``, never past the stimulus's end ``n``.
    Window ``o`` ends at ``min(o + span, n)``, so the last window ends past
    every path, and an earlier one is passed exactly when ``o + span < r``.
    As each start is walked, its bounded node is found for each window ``o``
    that holds it and ends before ``r``: exactly the bounded walks a scan of
    every fetch would need. It is listed under ``o + span`` only when the
    start's vote changes there: its unbounded walk votes, or the bounded
    node carries naming links; otherwise both votes are 0. Only a start
    whose ``contents_length`` exceeds ``min_fetch`` and whose ``r`` exceeds
    ``span`` is checked for passed windows: the earliest window that holds
    ``start`` ends at or after ``min(start + min_fetch, n)``, and every
    window ends at ``span`` or later, or at ``n``. So in a stimulus no
    longer than the span nothing is cut. Each window copies its slice of
    votes and overwrites only its listed starts with their bounded vote.

    The starts whose unbounded walk votes are collected in order. A window
    with no listed start and none of those among its starts has a largest
    vote of 0 and adds nothing, so it is skipped, found by one index into
    the voting starts that only moves forward; with no voting start and no
    listed start, no window is looked at. The rest run in order, so the
    activations add up in the order of a scan of every window.

    The winner is the first start that holds the largest vote, ``max`` then
    ``index``: the same node a strict ``>`` scan in start order keeps. A
    vote of 0 never wins: a non-root node's ``size`` is at least 1, since
    its test link is not empty, and the root never holds naming links
    (``add_naming_link`` refuses it, and no snapshot row names it).
    """
    if link_weighting not in ("proportional", "multiplicative"):
        raise AttentionError(f"unknown link weighting {link_weighting!r}")
    proportional = link_weighting == "proportional"
    groups = window_groups(stimulus, cfg)
    net = memory.nets.get(stimulus.modality)
    if net is None or not groups:
        return Classification(())
    recognise = net.recognise
    span, step, min_fetch = cfg.span, cfg.step, cfg.min_fetch
    stop = groups[-1].stop
    walks: list = [None] * stop      # per voting start: its unbounded walk,
    votes = [0] * stop               # and per start, that walk's vote
    voters: list[int] = []           # the voting starts, in order
    passes: dict[int, dict] = {}     # window end -> {start: bounded walk}
    # Windows leave gaps only when a step outruns a full window's starts;
    # otherwise together they hold every start before ``stop``.
    held = groups if step > span - min_fetch + 1 else (range(stop),)
    for group in held:
        for start in group:
            node = recognise(stimulus, start)
            if node.naming_links:
                walks[start] = node
                votes[start] = node.size
                voters.append(start)
            length = node.contents_length
            if length > min_fetch and start + length > span:
                # The windows ``o`` that hold ``start`` and end before
                # ``start + length``: multiples of ``step`` from
                # ``start + min_fetch - span`` to ``start``, with
                # ``o + span < start + length``.
                first = max(start + min_fetch - span, 0)
                first += -first % step
                for end in range(first + span,
                                 min(start + span + 1, start + length), step):
                    bounded = net.recognise_within(node, stimulus, start, end)
                    if bounded.naming_links or node.naming_links:
                        passing = passes.get(end)
                        if passing is None:
                            passes[end] = {start: bounded}
                        else:
                            passing[start] = bounded
    if not voters and not passes:
        return Classification(())
    voters.append(stop)              # a sentinel after every window's starts
    v = 0
    activations: dict[int, float] = {}
    for group in groups:
        first = group.start
        while voters[v] < first:
            v += 1
        end = first + span
        passing = passes.get(end)
        if passing is None and voters[v] >= group.stop:
            continue                 # no start here votes: its maximum is 0
        window = votes[first:group.stop]
        if passing is not None:
            for start, node in passing.items():
                window[start - first] = node.size if node.naming_links else 0
        best_size = max(window)
        if best_size:
            start = first + window.index(best_size)
            best = walks[start] if passing is None \
                else passing.get(start, walks[start])
            links = best.naming_links
            total = sum(links.values()) if proportional else 1
            for label_id, count in links.items():
                activations[label_id] = (activations.get(label_id, 0.0)
                                         + best_size * (count / total))
    return confidence(activations, memory)


def retrieve(net: DiscriminationNet, stimulus: Pattern) -> Pattern:
    """The most similar stored chunk: the recognised node's image
    (empty when nothing is recognised)."""
    return Pattern.derived(net.modality, net.recognise(stimulus).image)
