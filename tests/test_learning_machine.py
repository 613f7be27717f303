"""Stateful test of learning: a memory driven through interleaved learns,
labelled presentations, snapshot round trips and queries over a small
alphabet, checked after every step against what the docstrings of
``network`` and ``harness`` claim.

A twin memory takes every step too. Its nets walk on every learn, never
starting one from a remembered walk, so the live memory must give the same
events and dump the same bytes."""

import tempfile
from itertools import product
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from chunknet.attention import AttentionConfig, categorise, retrieve
from chunknet.config import RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE,
                              DiscriminationNet, MultiModalMemory)
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory, load_memory, save_memory

MODALITIES = ("visual", "verbal")
ATTENTION = AttentionConfig(span=3, step=1, min_fetch=2)


class WalkingNet(DiscriminationNet):
    """The net that forgets its remembered walks before each learn, so
    every learn walks the tree."""

    def learn(self, p):
        self._walks.clear()
        return super().learn(p)


def memory_of(net_type):
    memory = MultiModalMemory()
    for modality in MODALITIES:
        memory.nets[modality] = net_type(modality)
    return memory


def token_lists(alphabet, max_size, min_size=1):
    return st.lists(st.sampled_from(alphabet), min_size=min_size,
                    max_size=max_size).map(tuple)


class LearningMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.files = tempfile.TemporaryDirectory()
        self.learned: list[tuple[str, ...]] = []
        # Per modality: familiarisations so far, and each complete image.
        self.familiarised = dict.fromkeys(MODALITIES, 0)
        self.complete: dict[tuple[str, int], tuple[str, ...]] = {}

    def teardown(self):
        self.files.cleanup()

    @initialize(letters=st.integers(2, 3),
                pairing=st.sampled_from(["head", "position"]),
                chunk_probability=st.sampled_from([1.0, 0.8, 0.4]),
                seed=st.integers(0, 3))
    def start(self, letters, pairing, chunk_probability, seed):
        self.alphabet = ("a", "b", "c")[:letters]
        config = RunConfig(stm_size=3, stm_pairing=pairing,
                           chunk_probability=chunk_probability, seed=seed)
        self.trainer = Trainer(memory_of(DiscriminationNet), config)
        self.twin = Trainer(memory_of(WalkingNet), config)

    @property
    def memory(self):
        return self.trainer.memory

    def tokens(self, data):
        """Fresh tokens, or an earlier pattern cut and extended, so that
        patterns repeat, share prefixes and extend each other."""
        if self.learned and data.draw(st.booleans()):
            stem = data.draw(st.sampled_from(self.learned))
            tokens = stem[:data.draw(st.integers(1, len(stem)))] + \
                data.draw(token_lists(self.alphabet, 2, 0))
        else:
            tokens = data.draw(token_lists(self.alphabet, 4))
        self.learned.append(tokens)
        return tokens

    def images(self):
        return {m: [n.image for n in net.nodes()]
                for m, net in self.memory.nets.items()}

    def check_change(self, before, modality, event):
        """One node, or one image token, per learn; nothing for
        ``NO_CHANGE``."""
        net = self.memory.nets[modality]
        old = before[modality]
        now = [n.image for n in net.nodes()]
        grown = [i for i, image in enumerate(old) if now[i] != image]
        if event.kind == CREATED_NODE:
            assert (len(now), grown) == (len(old) + 1, [])
            assert event.node_id == len(old)
        elif event.kind == FAMILIARISED:
            assert (len(now), grown) == (len(old), [event.node_id])
            assert now[event.node_id][:-1] == old[event.node_id]
            self.familiarised[modality] += 1
        else:
            assert event.kind == NO_CHANGE
            assert (len(now), grown) == (len(old), [])

    @rule(modality=st.sampled_from(MODALITIES), data=st.data(),
          repeats=st.integers(1, 4))
    def learn(self, modality, data, repeats):
        p = Pattern(modality, self.tokens(data))
        for _ in range(repeats):
            before = self.images()
            event = self.memory.nets[modality].learn(p)
            assert event == self.twin.memory.nets[modality].learn(p)
            self.check_change(before, modality, event)

    @rule(data=st.data(), label=st.sampled_from(["X", "Y"]))
    def present(self, data, label):
        sample = Sample(
            visual=Pattern("visual", self.tokens(data)),
            label=Pattern("verbal", (label,)))
        before = self.images()
        events = self.trainer.present(sample)
        assert events == self.twin.present(sample)
        for modality, event in zip(MODALITIES, events):
            self.check_change(before, modality, event)

    @rule()
    def round_trip(self):
        path = Path(self.files.name) / "model.json"
        save_memory(path, self.memory)
        loaded, _ = load_memory(path)
        dumped = dump_memory(self.memory)
        assert dump_memory(loaded) == dumped
        for stimulus in self.probes():
            assert categorise(loaded, stimulus, ATTENTION) == \
                categorise(self.memory, stimulus, ATTENTION)
            assert retrieve(loaded.nets["visual"], stimulus) == \
                retrieve(self.memory.nets["visual"], stimulus)
        # Learning goes on in the loaded memory, which starts with no walk
        # remembered.
        self.trainer.memory = loaded

    def probes(self):
        return [Pattern("visual", tokens) for size in (1, 3)
                for tokens in product(self.alphabet, repeat=size)]

    @rule(data=st.data())
    def query(self, data):
        stimulus = Pattern("visual", data.draw(token_lists(self.alphabet,
                                                           6)))
        dumped = dump_memory(self.memory)
        twin = self.twin.memory
        assert categorise(self.memory, stimulus, ATTENTION) == \
            categorise(twin, stimulus, ATTENTION)
        assert retrieve(self.memory.nets["visual"], stimulus) == \
            retrieve(twin.nets["visual"], stimulus)
        assert dump_memory(self.memory) == dumped

    @invariant()
    def same_as_the_twin(self):
        assert dump_memory(self.memory) == dump_memory(self.twin.memory)

    @invariant()
    def clock_charges_each_change(self):
        for modality, net in self.memory.nets.items():
            assert net.clock_seconds == \
                10.0 * (net.node_count - 1) \
                + 2.0 * self.familiarised[modality]

    @invariant()
    def images_start_with_their_contents(self):
        for net in self.memory.nets.values():
            for node in net.nodes():
                if node.image:
                    assert node.image[:node.contents_length] == \
                        net.contents(node.node_id).tokens

    @invariant()
    def complete_images_never_change(self):
        for modality, net in self.memory.nets.items():
            for node in net.nodes():
                key = (modality, node.node_id)
                if key in self.complete:
                    assert node.image_complete
                    assert node.image == self.complete[key]
                elif node.image_complete:
                    self.complete[key] = node.image


# Each example runs up to 40 steps on nets of a few dozen nodes; the 60
# examples take about 4.5 s on a shared 2-CPU x86-64 host, mostly in
# hypothesis's own drawing.
LearningMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, database=None)
test_learning_machine = LearningMachine.TestCase
