"""Differential tests: the package against the plain model in
``reference.py``, through public calls only. Both sides learn, present,
recognise, categorise and retrieve the same input, and after each step
they must give the same events, contents, sizes, node ids, confidences and
snapshot bytes.

The input comes from hypothesis strategies (patterns that share prefixes
and extend each other, and hand-built trees whose siblings share a first
token under short windows) and from the corpora of the built-in suites and
the phrase corpus whose fingerprints ``test_harness`` pins. A hand-built
tree is written as the rows of a snapshot: the package loads it with
``load_memory``, and the reference builds the same rows.

The comparisons of learning are in ``test_familiarise_oracle`` and those
of ``recognise`` on learned nets in ``test_recognise_oracle``; both use the
helpers and strategies here."""

import json
import random
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from chunknet.attention import AttentionConfig, categorise, retrieve
from chunknet.config import RunConfig
from chunknet.corpus import Sample, load_manifest, load_test_items, \
    load_training_samples
from chunknet.harness import Trainer, attention_config, new_memory
from chunknet.network import MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory, load_memory
from chunknet.suites import (FIVE_FOUR_TRAINING, FIVE_FOUR_TRANSFER,
                             OCCLUSION_WORDS, build_five_four_manifest,
                             build_occlusion_manifest, build_xor_manifest,
                             generate_occlusions, generate_synthetic_corpus)
from test_harness import _phrase_corpus, _phrase_stimuli

WEIGHTINGS = ("proportional", "multiplicative")


def live_memory(text):
    """The package's memory loaded from the snapshot ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text, encoding="utf-8")
        return load_memory(path)[0]


def load_rows(nets, label_modality="verbal"):
    """The package's memory and the reference, each holding ``nets``:
    every modality's snapshot rows ``[parent, test, image, complete,
    links]``."""
    doc = reference.document(nets, label_modality)
    return live_memory(json.dumps(doc)), reference.load(doc)


def round_trip(live, ref):
    """Both memories after a snapshot round trip on their own side."""
    return live_memory(dump_memory(live)), reference.load(json.loads(
        ref.dump()))


def plain(sample):
    return tuple((p.modality, p.tokens) for p in (sample.visual,
                                                  sample.label))


def event(e):
    return e.kind, e.node_id


def assert_same(live, ref, probes=(), cfgs=()):
    """Same snapshot bytes, contents and size of every node; for every
    probe, the same node for each of its spans, the same retrieved image
    and the same categorise entries under each config and weighting."""
    assert dump_memory(live) == ref.dump()
    for modality, net in live.nets.items():
        rnet = ref.nets[modality]
        for node in net.nodes():
            i = node.node_id
            assert (net.contents(i).tokens, node.size) == \
                (rnet.contents(i), rnet.size(i))
    for p in probes:
        net, rnet = live.nets.get(p.modality), ref.nets.get(p.modality)
        if net is not None:
            # Every span of a short probe; a long one only whole.
            n = len(p)
            for start in range(n + 1 if n <= 8 else 1):
                for end in (None, *range(start, n + 1 if n <= 8 else 0)):
                    assert net.recognise(p, start, end).node_id == \
                        rnet.recognise(p.tokens, start, end)
            assert retrieve(net, p).tokens == \
                reference.retrieve(rnet, p.tokens)
        if not p:
            continue
        for cfg in cfgs:
            for weighting in WEIGHTINGS:
                assert categorise(live, p, cfg, weighting).entries == \
                    reference.categorise(ref, p.modality, p.tokens,
                                         cfg.span, cfg.step, cfg.min_fetch,
                                         weighting)


def tokens(alphabet, min_size=0, max_size=4):
    return st.lists(st.sampled_from(alphabet), min_size=min_size,
                    max_size=max_size).map(tuple)


@st.composite
def learn_sequences(draw):
    # Each pattern cuts an earlier one (or a seed) and extends it, so the
    # patterns share prefixes and extend each other; a small alphabet makes
    # differences run into nodes whose images are as long as they are.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    patterns = draw(st.lists(tokens(alphabet, 1), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 8))):
        stem = draw(st.sampled_from(patterns))
        cut = draw(st.integers(0, len(stem)))
        extended = stem[:cut] + draw(tokens(alphabet))
        if extended:
            patterns.append(extended)
    order = draw(st.lists(st.sampled_from(patterns), min_size=1,
                          max_size=80))
    return alphabet, [Pattern("visual", p) for p in order]


def learned(order, each=lambda live, ref: None):
    """The package's memory and the reference after learning ``order``
    into their visual nets, checking each event; ``each`` runs after every
    learn."""
    live, ref = MultiModalMemory(), reference.Memory()
    net, rnet = live.net("visual"), ref.net("visual")
    for p in order:
        assert event(net.learn(p)) == rnet.learn(p.tokens)
        each(live, ref)
    return live, ref


@pytest.mark.parametrize("rows, tokens, expected, images", [
    # A pattern whose walk uses it up, shorter than the image: nothing to
    # add.
    ([[0, "a", "a b c", False, {}]], "a", ("no_change", 1), {1: "a b c"}),
    # The rest "b c" reaches node "b" whose incomplete image "b c" is
    # exactly as long: the retrieved node's image grows by the rest's
    # first token, not the original's.
    ([[0, "a", "a", False, {}], [0, "b", "b c", False, {}]], "a b c",
     ("familiarised", 2), {1: "a", 2: "b c b"}),
], ids=["pattern_shorter_than_the_image",
        "difference_as_long_as_the_retrieved_image"])
def test_hand_built_familiarise_calls(rows, tokens, expected, images):
    # Each case is one learn, which sorts the pattern to node 1 and then
    # familiarises or discriminates there.
    live, ref = load_rows({"visual": rows})
    net = live.nets["visual"]
    p = Pattern("visual", tuple(tokens.split()))
    assert event(net.learn(p)) == expected
    assert ref.nets["visual"].learn(p.tokens) == expected
    assert {i: " ".join(net.node(i).image) for i in images} == images
    assert_same(live, ref)


def token_lists(alphabet, min_size):
    return st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=6)


def test_siblings_sharing_a_first_token_keep_insertion_order():
    live, ref = load_rows({"visual": [[0, "a b", "a b", True, {}],
                                      [0, "a", "a", True, {}],
                                      [2, "c a", "a c a", True, {}],
                                      [0, "a c", "a c", True, {}]]})
    probes = [Pattern("visual", tokens)
              for n in range(5) for tokens in product("abc", repeat=n)]
    assert_same(live, ref, probes)
    assert live.nets["visual"].recognise(
        Pattern("visual", ("a", "c", "a"))).node_id == 3


@st.composite
def models_and_stimuli(draw):
    # Stimuli string trained patterns together with noise, and windows are
    # short, so learned chunks often run past a window's end.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    bodies = draw(st.lists(token_lists(alphabet, 1), min_size=1, max_size=8))
    samples = [Sample(Pattern("visual", tuple(tokens)),
                      Pattern("verbal", (draw(st.sampled_from("TF")),)))
               for tokens in bodies]
    config = RunConfig()
    trainer = Trainer(MultiModalMemory(), config)
    twin = reference.Trainer(reference.Memory(), config.to_dict())
    for _ in range(draw(st.integers(1, 10))):
        for sample in samples:
            assert [event(e) for e in trainer.present(sample)] == \
                twin.present(plain(sample))
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
    return trainer.memory, twin.memory, cfg, stimuli


@st.composite
def built_models_and_stimuli(draw):
    # Random trees of linked nodes whose siblings share a first token with
    # tests of different lengths, and stimuli strung from their images: an
    # unbounded walk often passes a window's end where a later, shorter
    # sibling fits.
    tree = reference.Net()
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        parent = draw(st.integers(0, len(tree.nodes) - 1))
        test = draw(st.lists(st.sampled_from("ab"), min_size=1,
                             max_size=3))
        image = " ".join(tree.contents(parent) + tuple(test))
        try:
            tree.add(parent, test)
        except reference.Refused:       # a sibling has this test link
            continue
        links = {}
        for label in draw(st.lists(st.sampled_from("12"), max_size=3)):
            links[label] = links.get(label, 0) + 1
        rows.append([parent, " ".join(test), image, True, links])
    live, ref = load_rows({"visual": rows,
                           "verbal": [[0, "T", "T", True, {}],
                                      [0, "F", "F", True, {}]]})
    span = draw(st.integers(2, 6))
    cfg = AttentionConfig(span=span, step=draw(st.integers(1, 3)),
                          min_fetch=draw(st.integers(2, span)))
    pieces = st.one_of(st.sampled_from([tuple(row[2].split())
                                        for row in rows]),
                       token_lists(["a", "b"], 1))
    stimuli = [Pattern("visual", tuple(token for piece in parts
                                       for token in piece))
               for parts in draw(st.lists(st.lists(pieces, min_size=1,
                                                   max_size=4),
                                          min_size=1, max_size=4))]
    return live, ref, cfg, stimuli


@settings(deadline=None, database=None)
@given(st.one_of(models_and_stimuli(), built_models_and_stimuli()))
def test_categorise_matches_the_reference(case):
    live, ref, cfg, stimuli = case
    assert_same(live, ref, stimuli, [cfg])


def recognise_calls(memory, stimulus, cfg):
    """How many times one ``categorise`` calls ``recognise`` on the
    stimulus's net, counted through a wrapper on the net instance."""
    net = memory.nets[stimulus.modality]
    walk = net.recognise
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)
    net.recognise = counted
    try:
        categorise(memory, stimulus, cfg)
    finally:
        del net.recognise
    return len(calls)


@settings(deadline=None, database=None)
@given(st.one_of(models_and_stimuli(), built_models_and_stimuli()))
def test_categorise_walks_as_the_reference_counts(case):
    # One walk per held fetch start, and one bounded re-walk per window
    # whose end that walk passes; also with windows that leave gaps, on
    # stimuli no longer than the span and on ones shorter than min_fetch.
    live, ref, cfg, stimuli = case
    span, min_fetch = cfg.span, cfg.min_fetch
    gapped = AttentionConfig(span=span, step=span - min_fetch + 2,
                             min_fetch=min_fetch)
    stimuli += [Pattern("visual", p.tokens[:n]) for p in stimuli
                for n in (span, min_fetch - 1)]
    for stimulus in stimuli:
        for c in (cfg, gapped):
            assert recognise_calls(live, stimulus, c) == reference.walks(
                ref.nets["visual"], stimulus.tokens, c.span, c.step,
                c.min_fetch)


# -- corpora -----------------------------------------------------------------

def phrase_corpus(corpus_dir):
    manifest = _phrase_corpus(corpus_dir)
    return manifest, [Pattern("visual", tuple(text.split()))
                      for text in _phrase_stimuli(corpus_dir)]


def synthetic_corpus(seed):
    def build(corpus_dir):
        manifest = load_manifest(generate_synthetic_corpus(corpus_dir, seed))
        return manifest, [item.stimulus
                          for item in load_test_items(manifest)]
    return build


def five_four_corpus(corpus_dir):
    faces = FIVE_FOUR_TRANSFER + [face for faces in FIVE_FOUR_TRAINING.values()
                                  for face in faces]
    return (load_manifest(build_five_four_manifest(corpus_dir)),
            [Pattern("visual", tuple(face)) for face in faces])


def xor_corpus(corpus_dir):
    manifest = load_manifest(build_xor_manifest(corpus_dir))
    return manifest, [item.stimulus for item in load_test_items(manifest)]


def occlusion_corpus(corpus_dir):
    manifest = load_manifest(build_occlusion_manifest(corpus_dir))
    rng = random.Random(0)
    generated = [Pattern("visual", tuple(text))
                 for word in OCCLUSION_WORDS
                 for text in generate_occlusions(word, 10, rng)]
    return manifest, [item.stimulus for item in load_test_items(manifest)] \
        + generated


# (corpus, config fields, train's seed and shuffle): the phrase corpus under
# both pairings with the chunk gate open and half shut, the synthetic
# corpus at 10 KB, five-four in canonical order and shuffled, xor and
# occlusion.
CORPORA = {
    "phrases_head": (phrase_corpus, {}, None, None),
    "phrases_position": (phrase_corpus, {"stm_pairing": "position"}, None,
                         None),
    "phrases_head_gated": (phrase_corpus, {"chunk_probability": 0.6}, None,
                           None),
    "phrases_position_gated": (phrase_corpus, {
        "stm_pairing": "position", "chunk_probability": 0.6}, None, None),
    "synthetic_seed0": (synthetic_corpus(0), {}, None, None),
    "synthetic_seed3": (synthetic_corpus(3), {"seed": 3}, None, None),
    "five_four_canonical": (five_four_corpus, {}, None, False),
    **{f"five_four_seed{seed}": (five_four_corpus, {}, seed, True)
       for seed in (0, 1, 7)},
    "xor": (xor_corpus, {}, None, None),
    "occlusion": (occlusion_corpus, {}, None, None),
}


@pytest.mark.parametrize("name", CORPORA)
def test_corpus_training_matches_the_reference(tmp_path, name):
    build, fields, seed, shuffle = CORPORA[name]
    manifest, stimuli = build(tmp_path)
    config = RunConfig(**fields)
    samples = load_training_samples(manifest)
    live = new_memory(config)
    run = Trainer(live, config).train(samples, seed=seed, shuffle=shuffle)
    ref = reference.Memory()
    ref_run = reference.Trainer(ref, config.to_dict()).train(
        [plain(s) for s in samples], seed=seed, shuffle=shuffle)
    assert run.to_dict() == ref_run
    cfg = attention_config(config, span_override=manifest.attention_span)
    assert_same(live, ref, stimuli, [cfg])
