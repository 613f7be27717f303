"""Training loop: convergence, determinism, event accounting."""

import hashlib
import random

import pytest

from chunknet.config import RunConfig
from chunknet.corpus import (Category, Sample, SplitSpec, load_manifest,
                             write_manifest)
from chunknet.harness import (Trainer, TrainingError, new_memory, train,
                              train_and_evaluate)
from chunknet.network import MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory
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
    # pattern; any change to what learning stores shows here.
    config = RunConfig()
    memory = new_memory(config)
    run = train(memory, _phrase_corpus(tmp_path), config)
    assert run.converged
    assert run.learn_events == {"created_node": 278, "familiarised": 1608,
                                "no_change": 4114}
    digest = hashlib.sha256(dump_memory(memory).encode()).hexdigest()
    assert digest == ("67a621f5e5b58211a438210195161950"
                      "fbcdb5354108dd5041da7d1a51cb76c9")
