"""Stateful test of learning: a memory driven through interleaved learns,
labelled presentations, snapshot round trips and queries over a small
alphabet, checked after every step against what the docstrings of
``network`` and ``harness`` claim.

The reference model of ``reference.py`` takes every step too, so the
package must give the same events, node ids, contents, sizes, answers and
snapshot bytes."""

import json
import tempfile
from itertools import product
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

import reference
from chunknet.attention import AttentionConfig, categorise, retrieve
from chunknet.config import RunConfig
from chunknet.corpus import Sample
from chunknet.harness import Trainer
from chunknet.network import (CREATED_NODE, FAMILIARISED, NO_CHANGE,
                              MultiModalMemory)
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory, load_memory, save_memory
from test_reference import WEIGHTINGS, plain
from test_reference import event as event_of

MODALITIES = ("visual", "verbal")
ATTENTION = AttentionConfig(span=3, step=1, min_fetch=2)


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
        memory, ref = MultiModalMemory(), reference.Memory()
        for modality in MODALITIES:
            memory.net(modality)
            ref.net(modality)
        self.trainer = Trainer(memory, config)
        self.ref = reference.Trainer(ref, config.to_dict())

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
            assert event_of(event) == \
                self.ref.memory.nets[modality].learn(p.tokens)
            self.check_change(before, modality, event)

    @rule(data=st.data(), label=st.sampled_from(["X", "Y"]))
    def present(self, data, label):
        sample = Sample(
            visual=Pattern("visual", self.tokens(data)),
            label=Pattern("verbal", (label,)))
        before = self.images()
        events = self.trainer.present(sample)
        assert [event_of(e) for e in events] == \
            self.ref.present(plain(sample))
        for modality, event in zip(MODALITIES, events):
            self.check_change(before, modality, event)

    @rule()
    def round_trip(self):
        path = Path(self.files.name) / "model.json"
        save_memory(path, self.memory)
        loaded, _ = load_memory(path)
        assert dump_memory(loaded) == path.read_text(encoding="utf-8")
        # Learning goes on in the loaded memories, and the package's starts
        # with no walk remembered.
        self.trainer.memory = loaded
        self.ref.memory = reference.load(json.loads(
            self.ref.memory.dump()))
        self.same_answers(self.probes())

    def probes(self):
        return [Pattern("visual", tokens) for size in (1, 3)
                for tokens in product(self.alphabet, repeat=size)]

    @rule(data=st.data())
    def query(self, data):
        stimulus = Pattern("visual", data.draw(token_lists(self.alphabet,
                                                           6)))
        dumped = dump_memory(self.memory)
        self.same_answers([stimulus])
        assert dump_memory(self.memory) == dumped

    def same_answers(self, stimuli):
        """The reference's contents and size for every node, and its
        answers to every stimulus."""
        ref = self.ref.memory
        for modality, net in self.memory.nets.items():
            rnet = ref.nets[modality]
            assert [(net.contents(n.node_id).tokens, n.size)
                    for n in net.nodes()] == \
                [(rnet.contents(i), rnet.size(i))
                 for i in range(len(rnet.nodes))]
        net, rnet = self.memory.nets["visual"], ref.nets["visual"]
        for stimulus in stimuli:
            for weighting in WEIGHTINGS:
                assert categorise(self.memory, stimulus, ATTENTION,
                                  weighting).entries == \
                    reference.categorise(ref, "visual", stimulus.tokens,
                                         ATTENTION.span, ATTENTION.step,
                                         ATTENTION.min_fetch, weighting)
            assert retrieve(net, stimulus).tokens == \
                reference.retrieve(rnet, stimulus.tokens)
            assert net.recognise(stimulus).node_id == \
                rnet.recognise(stimulus.tokens)

    @invariant()
    def same_bytes_as_the_reference(self):
        assert dump_memory(self.memory) == self.ref.memory.dump()

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
                    contents = net.contents(node.node_id).tokens
                    assert node.image[:len(contents)] == contents

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
