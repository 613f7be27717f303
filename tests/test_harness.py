"""Training loop: convergence, determinism, event accounting."""

import contextlib
import gc
import hashlib
import io
import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from chunknet import cli, harness, snapshot
from chunknet.attention import categorise, retrieve
from chunknet.cli import main
from chunknet.config import RunConfig
from chunknet.corpus import (Category, Sample, SplitSpec, load_manifest,
                             load_training_samples, write_manifest)
from chunknet.harness import (Trainer, TrainingError, attention_config,
                              new_memory, train, train_and_evaluate)
from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE,
                              DiscriminationNet, MultiModalMemory)
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory, load_memory, save_memory
from chunknet.stm import StmQueue
from chunknet.suites import build_xor_manifest


def sample(tokens, label):
    return Sample(visual=Pattern("visual", tuple(tokens)),
                  label=Pattern("verbal", (label,)))


XOR_SAMPLES = [sample("00", "F"), sample("01", "T"),
               sample("10", "T"), sample("11", "F")]


def fresh_trainer(config=None):
    config = config or RunConfig()
    return Trainer(MultiModalMemory(), config)


def test_convergence_and_event_accounting():
    trainer = fresh_trainer()
    run = trainer.train(XOR_SAMPLES, seed=0)
    assert run.converged
    assert run.epoch_event_counts[-1] == 0
    # simulated clock: 10 s per created node, 2 s per update
    created = run.learn_events["created_node"]
    familiarised = run.learn_events["familiarised"]
    assert run.simulated_time_seconds == created * 10.0 + familiarised * 2.0
    assert run.node_counts == {"verbal": 3, "visual": 5}


def test_xor_structure_after_convergence():
    trainer = fresh_trainer()
    trainer.train(XOR_SAMPLES, seed=0)
    visual = trainer.memory.net("visual")
    verbal = trainer.memory.label_net
    complete_visual = [n for n in visual.nodes() if n.image_complete]
    assert sorted(tuple(n.image) for n in complete_visual) == [
        ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    assert len([n for n in verbal.nodes() if n.image_complete]) == 2
    linked_pairs = {(tuple(n.image), verbal.node(label_id).image[0])
                    for n in visual.nodes()
                    for label_id in n.naming_links}
    assert linked_pairs == {(("0", "0"), "F"), (("0", "1"), "T"),
                            (("1", "0"), "T"), (("1", "1"), "F")}


def test_links_stay_pure_across_seeds():
    # the fully-learned gate keeps every chunk linked to exactly one label
    for seed in range(12):
        trainer = fresh_trainer()
        trainer.train(XOR_SAMPLES, seed=seed)
        for node in trainer.memory.net("visual").nodes():
            assert len(node.naming_links) <= 1


def test_determinism_same_seed_same_snapshot():
    runs = []
    for _ in range(2):
        trainer = fresh_trainer()
        trainer.train(XOR_SAMPLES, seed=7)
        runs.append(dump_memory(trainer.memory))
    assert runs[0] == runs[1]
    other = fresh_trainer()
    other.train(XOR_SAMPLES, seed=8)
    # different seed may legitimately produce a different (valid) model
    assert isinstance(dump_memory(other.memory), str)


def test_no_samples_is_an_error():
    with pytest.raises(TrainingError):
        fresh_trainer().train([])


def test_epoch_limit_guard():
    config = RunConfig(max_epochs=1)
    with pytest.raises(TrainingError, match="convergence"):
        Trainer(MultiModalMemory(), config).train(XOR_SAMPLES)


def test_node_ceiling_guard():
    # one 9-primitive sample costs more nodes (two roots, nine visual
    # primitives, a label chunk) than a factor-1 ceiling of 10 allows
    config = RunConfig(node_ceiling_factor=1)
    samples = [sample([f"w{i}" for i in range(9)], "A")]
    with pytest.raises(TrainingError, match="ceiling"):
        Trainer(MultiModalMemory(), config).train(samples)


def test_chunk_probability_zero_never_learns_but_counts_epochs():
    config = RunConfig(chunk_probability=0.0, max_epochs=5)
    trainer = Trainer(MultiModalMemory(), config)
    run = trainer.train(XOR_SAMPLES, seed=0)
    # with the gate closed every epoch is a zero-event epoch
    assert run.converged and run.epoch_count == 1
    assert trainer.memory.net("visual").node_count == 1


def test_present_before_train_obeys_chunk_probability():
    # The gate is seeded when the trainer is made, not first by train.
    trainer = fresh_trainer(RunConfig(chunk_probability=0.0))
    for item in XOR_SAMPLES:
        trainer.present(item)
    assert {m: net.node_count for m, net in trainer.memory.nets.items()} \
        == {"visual": 1, "verbal": 1}


def test_present_before_train_draws_from_the_config_seed():
    def dumped(seed):
        trainer = fresh_trainer(RunConfig(chunk_probability=0.5, seed=seed))
        for _ in range(5):
            for item in XOR_SAMPLES:
                trainer.present(item)
        return dump_memory(trainer.memory)
    assert dumped(1) == dumped(1)
    assert len({dumped(seed) for seed in range(4)}) > 1


def test_present_learns_into_a_replaced_memory():
    # The trainer looks its nets up on every presentation: after its memory
    # is replaced, it learns into the new one and leaves the old one be.
    trainer = fresh_trainer()
    for _ in range(3):
        trainer.present(XOR_SAMPLES[1])
    old = trainer.memory
    kept = dump_memory(old)
    trainer.memory = MultiModalMemory()
    assert [ev.kind for ev in trainer.present(XOR_SAMPLES[1])] == \
        ["created_node", "created_node"]
    assert dump_memory(old) == kept
    assert {m: net.node_count for m, net in trainer.memory.nets.items()} \
        == {"visual": 2, "verbal": 2}


def test_manifest_train_and_evaluate(tmp_path):
    manifest = load_manifest(build_xor_manifest(tmp_path / "corpus"))
    memory, run, result = train_and_evaluate(manifest, RunConfig())
    assert run.converged
    assert memory.net("visual").node_count == 5
    assert result.correct_count == result.total == 4
    assert result.chance_baseline == 2.0  # 4 tests over 2 labels


def _phrase_corpus(corpus_dir, seed=3, words=600):
    """Two categories whose training streams are strung from a small seeded
    book of recurring phrases, so training familiarises and discriminates
    many times over prefixes that share and extend each other."""
    rng = random.Random(seed)
    categories = []
    for label in ("alpha", "beta"):
        own = [f"{label[0]}{i:02d}" for i in range(30)]
        phrases = [[rng.choice(own) for _ in range(rng.randint(3, 7))]
                   for _ in range(12)]
        tokens = []
        while len(tokens) < words:
            tokens.extend(rng.choice(phrases))
            if rng.random() < 0.3:
                tokens.append(f"s{rng.randrange(10)}")
        train_file = corpus_dir / f"{label}_train.txt"
        train_file.write_text(" ".join(tokens[:words]) + "\n",
                              encoding="utf-8")
        categories.append(Category(label, [train_file], []))
    path = corpus_dir / "manifest.json"
    write_manifest(path, "phrases", "words", SplitSpec("words", 12),
                   categories)
    return load_manifest(path)


def test_phrase_corpus_training_fingerprint(tmp_path):
    # Recorded before learning walked index ranges of the presented
    # pattern; any change to what learning stores shows here. The snapshot
    # hash was re-recorded for schema v4, whose file is the v3 file with
    # each row's id in front and each net's rows grouped into segments, and
    # again when each segment went on a line of its own, a tab before each
    # row: the same document, laid out in other whitespace; and for schema
    # v5, whose document adds each net's row count.
    config = RunConfig()
    memory = new_memory(config)
    run = train(memory, _phrase_corpus(tmp_path), config)
    assert run.converged
    assert run.learn_events == {"created_node": 278, "familiarised": 1608,
                                "no_change": 4114}
    digest = hashlib.sha256(dump_memory(memory).encode()).hexdigest()
    assert digest == ("00d4d4850b90f8a02899b76da7fd997e"
                      "b4e9589ee5bd960caa40f1bdae787034")


def test_phrase_corpus_training_walk_count(tmp_path, monkeypatch):
    # Counts, not times: every learn is still one call, and a learn that
    # repeats an earlier one starts where its walk ended, while nothing was
    # attached there, without a walk. Before settled learns were kept, the
    # same training made 7,911 walks for its 6,000 learns; 3,899 before
    # discrimination stopped walking an empty image's remainder a second
    # time through familiarise; and 3,874 while only learns that changed
    # nothing kept their walk. Discrimination takes its contents from the
    # walk, so training never rebuilds them from a parent chain.
    #
    # The benchmark wraps ``Trainer.present``, ``StmQueue.push`` and
    # ``harness.co_occupancy`` where they are looked up, so training must
    # keep calling each of them through the class or module attribute, and
    # every naming link goes through ``add_naming_link``.
    calls = {"recognise": 0, "learn": 0, "contents": 0, "present": 0,
             "push": 0, "co_occupancy": 0, "hits": 0, "add_naming_link": 0}

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            result = method(*args, **kwargs)
            if name == "co_occupancy":
                calls["hits"] += result is not None
            return result
        monkeypatch.setattr(owner, name, counted)
    for name in ("recognise", "learn", "contents"):
        count(DiscriminationNet, name)
    count(Trainer, "present")
    count(StmQueue, "push")
    count(harness, "co_occupancy")
    count(MultiModalMemory, "add_naming_link")
    config = RunConfig()
    train(new_memory(config), _phrase_corpus(tmp_path), config)
    assert calls == {"recognise": 2282, "learn": 6000, "contents": 0,
                     "present": 3000, "push": 6000, "co_occupancy": 3000,
                     "hits": 1218, "add_naming_link": 1218}


# (corpus, shuffle, chunk_probability) -> epoch count and learn events
# (created, familiarised, unchanged), as recorded before the trainer counted
# an epoch's changes from its unchanged learns.
TALLIES = {
    ("xor", True, 1.0): (4, 6, 6, 20),
    ("xor", True, 0.6): (4, 5, 6, 21),
    ("xor", False, 1.0): (3, 6, 6, 12),
    ("xor", False, 0.6): (5, 5, 6, 29),
    ("phrases", True, 1.0): (30, 278, 1608, 4114),
    ("phrases", True, 0.6): (50, 274, 1597, 8129),
    ("phrases", False, 1.0): (33, 285, 1602, 4713),
    ("phrases", False, 0.6): (52, 278, 1588, 8534),
}


@pytest.mark.parametrize("corpus, shuffle, chunk_probability",
                         sorted(TALLIES))
def test_training_tallies_add_up(tmp_path, corpus, shuffle,
                                 chunk_probability):
    # Every presentation makes two learn events, and an epoch's count is
    # its events that changed the net, gated ones included.
    samples = XOR_SAMPLES if corpus == "xor" else \
        load_training_samples(_phrase_corpus(tmp_path))
    config = RunConfig(shuffle=shuffle, chunk_probability=chunk_probability)
    run = Trainer(new_memory(config), config).train(samples)
    events = run.learn_events
    assert sum(run.epoch_event_counts) == \
        events[CREATED_NODE] + events[FAMILIARISED]
    assert sum(events.values()) == 2 * len(samples) * run.epoch_count
    assert (run.epoch_count, events[CREATED_NODE], events[FAMILIARISED],
            events[NO_CHANGE]) == TALLIES[corpus, shuffle, chunk_probability]


def test_phrase_corpus_samples_hold_each_token_once(tmp_path):
    # The two streams' 1,200 token occurrences are 65 distinct tokens, and
    # every sample holds the one str object of each, where splitting the
    # text makes a new object per occurrence.
    samples = load_training_samples(_phrase_corpus(tmp_path))
    tokens = [token for s in samples for token in s.visual.tokens]
    assert len(tokens) == 1200
    assert len({id(token) for token in tokens}) == len(set(tokens)) == 65


def _traced(call):
    """``call()``'s result, the peak of the memory traced while it ran,
    and the traced memory it left behind."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


@pytest.fixture
def phrase_snapshot(tmp_path):
    """The phrase-corpus memory, trained in-process, and the path it is
    saved to."""
    config = RunConfig()
    memory = new_memory(config)
    train(memory, _phrase_corpus(tmp_path), config)
    return memory, tmp_path / "model.json"


def test_save_memory_peak_is_a_few_file_sizes(phrase_snapshot):
    # tracemalloc on Pythons 3.10-3.13: saving the 17,257-byte file peaked
    # at 6.8-11.9 times its bytes while a document of every row was built
    # and encoded whole, and at 2.8-3.2 times with each row rendered on its
    # own: the rows' text, the file's text and its encoded bytes.
    memory, model = phrase_snapshot
    _, peak, _ = _traced(lambda: save_memory(model, memory))
    assert peak < 5 * model.stat().st_size


def test_load_memory_peak_is_what_it_keeps_and_under_a_file(phrase_snapshot):
    # The loaded nodes themselves take 11-14 times the file's bytes, so the
    # bound is on the peak above them. tracemalloc on Pythons 3.10-3.13:
    # 2.5 times the file's bytes while the whole parsed document lived
    # beside the nodes, and 0.4 times with each row dropped as its node is
    # built.
    memory, model = phrase_snapshot
    save_memory(model, memory)
    _, peak, kept = _traced(lambda: load_memory(model))
    assert peak - kept < model.stat().st_size


def _phrase_stimuli(corpus_dir):
    """A fixed stimulus set for the phrase-corpus model: spans of each
    training stream, some longer than the attention span of 20; the same
    spans occluded by unknown tokens inserted between their words; both
    streams interleaved word by word; a span of one stream followed by a
    longer span of the other, so both labels vote; and tokens the net never
    saw."""
    streams = [(corpus_dir / f"{label}_train.txt").read_text(
        encoding="utf-8").split() for label in ("alpha", "beta")]
    rng = random.Random(11)
    stimuli = []
    for tokens in streams:
        for start, length in ((0, 5), (40, 12), (100, 21), (200, 35),
                              (350, 60)):
            span = tokens[start:start + length]
            occluded = list(span)
            for _ in range(max(1, length // 4)):
                occluded.insert(rng.randint(0, len(occluded)),
                                f"z{rng.randrange(5)}")
            stimuli += [span, occluded]
    stimuli.append([t for pair in zip(streams[0][500:515],
                                      streams[1][500:515]) for t in pair])
    for length in (6, 12, 25):
        stimuli.append(streams[0][450:450 + length]
                       + streams[1][450:450 + 2 * length])
    stimuli.append(["z0", "z1", "z2"])
    return [" ".join(s) for s in stimuli]


@pytest.fixture(scope="module")
def phrase_model(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    _phrase_corpus(corpus_dir)
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--manifest", str(corpus_dir / "manifest.json"),
                 "--out", str(out)]) == 0
    return out / "model.json", _phrase_stimuli(corpus_dir)


# sha256 prefix of each query's exit code and stdout, over the stimulus set;
# recorded before the CLI parser was shared and the snapshot load promoted
# what it built out of the young generation.
# ``inspect --nodes`` was recorded later, before loaded images were kept
# as text until read; it prints every image of the model. It was
# re-recorded for schema v4, and for v5, whose number its first line prints;
# every other line is unchanged.
QUERY_HASHES = {"categorise": "60310aa9421bcc18",
                "retrieve": "d8e9a1fbf02df242",
                "inspect --nodes": "36092d68a5cd5fdc"}


@pytest.mark.parametrize("command", ["categorise", "retrieve"])
def test_phrase_corpus_query_outputs(tmp_path, capsys, phrase_model,
                                     command):
    model, stimuli = phrase_model
    record = []
    for i, text in enumerate(stimuli):
        stim = tmp_path / f"stim{i}.txt"
        stim.write_text(text + "\n", encoding="utf-8")
        capsys.readouterr()
        code = main([command, "--model", str(model), "--input", str(stim)])
        record.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("\x00".join(record).encode()).hexdigest()[:16]
    assert digest == QUERY_HASHES[command]


def test_phrase_corpus_inspect_nodes_output(capsys, phrase_model):
    model, _ = phrase_model
    capsys.readouterr()
    code = main(["inspect", "--model", str(model), "--nodes"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") > 200
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digest == QUERY_HASHES["inspect --nodes"]


def _full_load(path, reach=None):
    """``load_memory`` building every segment; ``reach`` is still called,
    for the stimulus the command reads through it."""
    memory, meta = snapshot.load_memory(path)
    if reach is not None:
        reach(meta)
    return memory, meta


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def _phrase_queries(draw, stimuli):
    """Token lists from the phrase corpus's words and tokens it never saw:
    a run of any of them, or a span of a fixed stimulus with some put in."""
    vocabulary = sorted({token for text in stimuli for token in text.split()}
                        | {"unseen", "never", "0"})
    words = st.sampled_from(vocabulary)
    if draw(st.booleans()):
        return draw(st.lists(words, min_size=1, max_size=40))
    tokens = draw(st.sampled_from(stimuli)).split()
    start = draw(st.integers(0, len(tokens) - 1))
    tokens = tokens[start:start + draw(st.integers(1, 40))]
    for _ in range(draw(st.integers(0, 3))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(words))
    return tokens


@pytest.fixture(scope="module")
def phrase_layouts(phrase_model):
    """The phrase-corpus model as dumped, and the same document written on
    one line and pretty-printed, which have no segment line."""
    model, _ = phrase_model
    doc = json.loads(model.read_text(encoding="utf-8"))
    paths = [model]
    for name, indent in (("one-line", None), ("indented", 2)):
        paths.append(model.parent / f"{name}-model.json")
        paths[-1].write_text(json.dumps(doc, indent=indent),
                             encoding="utf-8")
    return paths


@settings(deadline=None, database=None)
@given(st.data())
def test_a_query_built_for_its_stimulus_answers_as_a_full_load(
        phrase_model, phrase_layouts, data):
    _, stimuli = phrase_model
    tokens = data.draw(_phrase_queries(stimuli))
    stimulus = Pattern("visual", tuple(tokens))
    stim = phrase_layouts[0].parent / "query.txt"
    stim.write_text(" ".join(tokens), encoding="utf-8")
    answers = set()
    for model in phrase_layouts:
        full, meta = load_memory(model)
        reached, _ = load_memory(model, lambda meta: stimulus)
        cfg = attention_config(RunConfig(), meta["attention_span"])
        assert categorise(reached, stimulus, cfg) == \
            categorise(full, stimulus, cfg)
        assert retrieve(reached.net("visual"), stimulus) == \
            retrieve(full.net("visual"), stimulus)
        for command in ("categorise", "retrieve"):
            argv = [command, "--model", str(model), "--input", str(stim)]
            answer = _cli(argv)
            with mock.patch.object(cli, "load_memory", _full_load):
                assert answer == _cli(argv)
            answers.add((command, answer))
    assert len(answers) == 2


def test_a_dump_of_a_loaded_memory_splits_no_image_it_keeps(phrase_model):
    # A dump renders each image that a load left as text from that text,
    # and stores no split: every image is still text afterwards.
    model, _ = phrase_model
    memory, meta = load_memory(model)
    assert dump_memory(memory, meta) == model.read_text(encoding="utf-8")
    loaded = [node for net in memory.nets.values()
              for node in net.nodes()[1:]]
    assert len(loaded) > 200
    assert all(type(vars(node)["_image"]) is str for node in loaded)


def test_a_query_splits_only_the_images_it_reads(phrase_model):
    # A load keeps every image as the file's text, and ``categorise`` reads
    # ``size`` only on nodes that carry naming links, so it splits a few of
    # the 278 images: 7 at most over this stimulus set.
    model, stimuli = phrase_model
    ref = reference.load(json.loads(model.read_text(encoding="utf-8")))
    for text in stimuli:
        memory, meta = load_memory(model)
        loaded = [node for net in memory.nets.values()
                  for node in net.nodes()[1:]]
        assert all(type(vars(node)["_image"]) is str for node in loaded)
        categorise(memory, Pattern("visual", tuple(text.split())),
                   attention_config(RunConfig(), meta["attention_span"]))
        split = [node for node in loaded
                 if type(vars(node)["_image"]) is not str]
        assert len(split) <= 8
        assert all(node.naming_links for node in split)
    for modality, net in memory.nets.items():
        rnet = ref.net(modality)
        assert [node.size for node in net.nodes()] == \
            [rnet.size(node_id) for node_id in range(net.node_count)]
        assert [node.image for node in net.nodes()] == \
            [rnode.image for rnode in rnet.nodes]
