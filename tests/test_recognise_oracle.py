"""Differential tests: the indexed ``recognise`` against a linear scan of
every child, on random nets, before and after a snapshot round trip; the
span walk against the same scan of a copied slice; and ``categorise``, which
walks index ranges of one stimulus, against a per-fetch reference that
copies every fetch into its own pattern."""

import itertools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.attention import AttentionConfig, categorise, confidence
from chunknet.config import RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import ROOT_ID, DiscriminationNet, MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import load_memory, save_memory


def linear_recognise(net: DiscriminationNet, p: Pattern):
    """Reference recogniser: at each node, try every child in insertion
    order and follow the first whose test link prefixes the remaining
    input."""
    node = net.root
    remaining = p.tokens
    while True:
        for cid in node.children:
            child = net.node(cid)
            if remaining[: len(child.test)] == child.test:
                node = child
                remaining = remaining[len(child.test):]
                break
        else:
            return node


def assert_matches_oracle(net: DiscriminationNet, probes) -> None:
    for node in net.nodes():
        assert node.contents_length == len(net.contents(node.node_id))
    for probe in probes:
        assert net.recognise(probe) is linear_recognise(net, probe)


def token_lists(alphabet, min_size):
    return st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=6)


@st.composite
def nets_and_probes(draw):
    # Two or three tokens and many epochs give multi-token test links and
    # siblings that share a first token.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    patterns = draw(st.lists(token_lists(alphabet, 1), min_size=1,
                             max_size=10))
    epochs = draw(st.integers(1, 12))
    probes = draw(st.lists(token_lists(alphabet + ["z"], 0), max_size=20))
    memory = MultiModalMemory()
    net = memory.net("visual")
    for _ in range(epochs):
        for tokens in patterns:
            net.learn(Pattern("visual", tuple(tokens)))
    return memory, [Pattern("visual", tuple(t))
                    for t in [[], *patterns, *probes]]


@settings(deadline=None, database=None)
@given(nets_and_probes())
def test_indexed_recognise_matches_linear_scan(case):
    memory, probes = case
    assert_matches_oracle(memory.net("visual"), probes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_memory(path, memory)
        restored, _ = load_memory(path)
    assert_matches_oracle(restored.net("visual"), probes)


def test_siblings_sharing_a_first_token_keep_insertion_order():
    net = DiscriminationNet("visual")
    ab = net._new_node(net.root, ("a", "b"), ("a", "b"), True)
    a = net._new_node(net.root, ("a",), ("a",), True)
    net._new_node(a, ("c", "a"), ("a", "c", "a"), True)
    net._new_node(net.root, ("a", "c"), ("a", "c"), True)
    assert net.root.index == {"a": (ab.node_id, a.node_id, 4)}
    probes = [Pattern("visual", tokens)
              for n in range(5)
              for tokens in itertools.product("abc", repeat=n)]
    assert_matches_oracle(net, probes)
    assert net.recognise(Pattern("visual", ("a", "c", "a"))).node_id == 3


@st.composite
def nets_and_spans(draw):
    memory, probes = draw(nets_and_probes())
    spans = []
    for probe in probes:
        n = len(probe)
        start = draw(st.integers(0, n))
        end = draw(st.one_of(st.none(), st.integers(start, n)))
        spans.append((probe, start, end))
    return memory.net("visual"), spans


@settings(deadline=None, database=None)
@given(nets_and_spans())
def test_span_walk_matches_linear_scan_of_the_slice(case):
    net, spans = case
    for p, start, end in spans:
        piece = Pattern(p.modality, p.tokens[start:end])
        assert net.recognise(p, start, end) is linear_recognise(net, piece)


def per_fetch_categorise(memory, stimulus, cfg, link_weighting):
    """Reference classifier: every fetch is copied out of the stimulus into
    its own pattern and sorted by the linear scan, window by window."""
    net = memory.net(stimulus.modality)
    tokens = stimulus.tokens
    n = len(tokens)
    activations = {}
    for offset in range(0, n, cfg.step):
        end = min(offset + cfg.span, n)
        best = None
        for start in range(offset, end - cfg.min_fetch + 1):
            fetch = Pattern(stimulus.modality, tokens[start:end])
            node = linear_recognise(net, fetch)
            if node.node_id == ROOT_ID or not node.naming_links:
                continue
            if best is None or node.size > best.size:
                best = node
        if best is not None:
            size = best.size
            links = best.naming_links
            total = sum(links.values()) \
                if link_weighting == "proportional" else 1
            for label_id, count in links.items():
                activations[label_id] = (activations.get(label_id, 0.0)
                                         + size * (count / total))
        if end == n:
            break
    return confidence(activations, memory)


@st.composite
def models_and_stimuli(draw):
    # Stimuli string trained patterns together with noise, and windows are
    # short, so learned chunks often run past a window's end.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    bodies = draw(st.lists(token_lists(alphabet, 1), min_size=1, max_size=8))
    samples = [Sample(Pattern("visual", tuple(tokens)),
                      Pattern("verbal", (draw(st.sampled_from("TF")),)))
               for tokens in bodies]
    trainer = Trainer(MultiModalMemory(), RunConfig())
    for _ in range(draw(st.integers(1, 10))):
        for sample in samples:
            trainer.present(sample)
    span = draw(st.integers(2, 6))
    cfg = AttentionConfig(span=span, step=draw(st.integers(1, 4)),
                          min_fetch=draw(st.integers(2, span)))
    pieces = st.one_of(st.sampled_from(bodies),
                       token_lists(alphabet + ["z"], 1))
    stimuli = [Pattern("visual", tuple(token for piece in parts
                                       for token in piece))
               for parts in draw(st.lists(st.lists(pieces, min_size=1,
                                                   max_size=4),
                                          min_size=1, max_size=8))]
    weighting = draw(st.sampled_from(["proportional", "multiplicative"]))
    return trainer.memory, cfg, stimuli, weighting


@st.composite
def built_models_and_stimuli(draw):
    # Random trees of linked nodes whose siblings share a first token with
    # tests of different lengths, and stimuli strung from their images: an
    # unbounded walk often passes a window's end where a later, shorter
    # sibling fits.
    memory = MultiModalMemory()
    visual = memory.net("visual")
    verbal = memory.net("verbal")
    labels = [verbal._new_node(verbal.root, (name,), (name,), True).node_id
              for name in "TF"]
    nodes = [visual.root]
    for _ in range(draw(st.integers(1, 12))):
        parent = draw(st.sampled_from(nodes))
        test = tuple(draw(st.lists(st.sampled_from("ab"), min_size=1,
                                   max_size=3)))
        if any(visual.node(cid).test == test
               for cid in parent.index.get(test[0], ())):
            continue
        image = visual.contents(parent.node_id).tokens + test
        node = visual._new_node(parent, test, image, True)
        for label in draw(st.lists(st.sampled_from(labels), max_size=3)):
            memory.add_naming_link("visual", node.node_id, label)
        nodes.append(node)
    span = draw(st.integers(2, 6))
    cfg = AttentionConfig(span=span, step=draw(st.integers(1, 3)),
                          min_fetch=draw(st.integers(2, span)))
    pieces = st.one_of(st.sampled_from([node.image for node in nodes[1:]]),
                       token_lists(["a", "b"], 1))
    stimuli = [Pattern("visual", tuple(token for piece in parts
                                       for token in piece))
               for parts in draw(st.lists(st.lists(pieces, min_size=1,
                                                   max_size=4),
                                          min_size=1, max_size=4))]
    weighting = draw(st.sampled_from(["proportional", "multiplicative"]))
    return memory, cfg, stimuli, weighting


@settings(deadline=None, database=None)
@given(st.one_of(models_and_stimuli(), built_models_and_stimuli()))
def test_categorise_matches_per_fetch_reference(case):
    memory, cfg, stimuli, weighting = case
    for stimulus in stimuli:
        assert categorise(memory, stimulus, cfg, weighting) == \
            per_fetch_categorise(memory, stimulus, cfg, weighting)
