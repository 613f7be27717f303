"""Training loop and evaluation runner.

Training presents every labelled sample once per epoch (order reshuffled per
epoch under a seeded RNG, or kept in manifest order). Each presentation
learns the sample body in its modality and the label in the verbal modality,
feeds the resulting chunks into the two short-term memories, and turns
co-occupancy of fully learned chunks into a naming link. Epochs repeat until
one passes with no structural learning ("trained until no learning was
possible"); a simulated clock charges 10 s per created chunk and 2 s per
image update.

Evaluation classifies each test item against the frozen model and tabulates
ranked confidences, the predicted label and a correct flag per item.
``train_and_evaluate`` is the one train-and-classify path of a manifest:
``run-suite --manifest`` and the built-in suites with test files call it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

from .attention import AttentionConfig, Classification, categorise
from .config import ConfigError, RunConfig
from .corpus import DatasetManifest, Sample, TestItem, load_test_items, \
    load_training_samples
from .network import (CREATED_NODE, FAMILIARISED, NO_CHANGE, LearnEvent,
                      MultiModalMemory)
from .stm import StmQueue, co_occupancy


class TrainingError(RuntimeError):
    """Non-termination guard tripped (node ceiling or epoch limit)."""


@dataclass
class TrainingRun:
    seed: int
    epoch_count: int = 0
    learn_events: dict[str, int] = field(
        default_factory=lambda: {CREATED_NODE: 0, FAMILIARISED: 0, NO_CHANGE: 0})
    simulated_time_seconds: float = 0.0
    converged: bool = False
    node_counts: dict[str, int] = field(default_factory=dict)
    naming_link_total: int = 0
    epoch_event_counts: list[int] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteRow:
    item_id: str
    true_label: str
    classification: Classification
    predicted: str | None
    correct: bool


@dataclass
class SuiteResult:
    rows: list[SuiteRow]
    correct_count: int
    total: int
    chance_baseline: float
    labels: list[str]


@dataclass
class Trainer:
    """One training session owning its model and queues."""

    memory: MultiModalMemory
    config: RunConfig
    _queues: dict[str, StmQueue] = field(default_factory=dict, init=False)

    def __post_init__(self):
        self._rng = random.Random(self.config.seed)
        self._gated = self.config.chunk_probability < 1.0

    def _learn_gated(self, net, pattern) -> LearnEvent:
        if self._rng.random() >= self.config.chunk_probability:
            # Chunk formation gate failed: recognise only, no structural change.
            return LearnEvent(NO_CHANGE, net.recognise(pattern).node_id)
        return net.learn(pattern)

    def present(self, sample: Sample) -> tuple[LearnEvent, LearnEvent]:
        """One labelled presentation into ``memory`` as it is (nets and queues
        looked up per call): learn both modalities, with no gate draw at a
        ``chunk_probability`` of 1, feed STM, link on gated co-occupancy."""
        visual, label = sample.visual, sample.label
        memory = self.memory
        try:
            visual_net = memory.nets[visual.modality]
            label_net = memory.nets[label.modality]
            visual_q = self._queues[visual.modality]
            verbal_q = self._queues[label.modality]
        except KeyError:    # a modality's first presentation makes its parts
            visual_net = memory.net(visual.modality)
            label_net = memory.net(label.modality)
            visual_q = self._queues.setdefault(
                visual.modality, StmQueue(self.config.stm_size))
            verbal_q = self._queues.setdefault(
                label.modality, StmQueue(self.config.stm_size))
        if self._gated:
            ev_visual = self._learn_gated(visual_net, visual)
            ev_label = self._learn_gated(label_net, label)
        else:
            ev_visual = visual_net.learn(visual)
            ev_label = label_net.learn(label)
        visual_q.push(ev_visual.node_id)
        verbal_q.push(ev_label.node_id)
        pair = co_occupancy(visual_q, verbal_q, visual_net, label_net,
                            pairing=self.config.stm_pairing)
        if pair is not None:
            memory.add_naming_link(visual.modality, pair[0], pair[1])
        return ev_visual, ev_label

    def train(self, samples: list[Sample], seed: int | None = None,
              shuffle: bool | None = None) -> TrainingRun:
        """Epochs until a no-learning epoch; guards against runaway growth
        and against a simulated clock that overflows to an infinity."""
        if not samples:
            raise TrainingError("no training samples")
        seed = self.config.seed if seed is None else seed
        shuffle = self.config.shuffle if shuffle is None else shuffle
        self._rng = random.Random(seed)
        run = TrainingRun(seed=seed)
        total_tokens = sum(len(s.visual) + len(s.label) for s in samples)
        node_ceiling = self.config.node_ceiling_factor * total_tokens
        order = list(samples)   # shuffled like indices: the same draws
        prev_epoch_events = None
        for _ in range(self.config.max_epochs):
            if shuffle:
                self._rng.shuffle(order)
            unchanged = run.learn_events[NO_CHANGE]
            for sample in order:
                ev_v, ev_l = self.present(sample)
                run.learn_events[ev_v.kind] += 1
                run.learn_events[ev_l.kind] += 1
            epoch_events = (2 * len(order) + unchanged
                            - run.learn_events[NO_CHANGE])
            run.epoch_count += 1
            run.epoch_event_counts.append(epoch_events)
            if prev_epoch_events is not None and \
                    epoch_events > prev_epoch_events:
                # Expected to be non-increasing on a fixed corpus; worth a
                # diagnostic but not an error.
                run.diagnostics.append(
                    f"epoch {run.epoch_count}: learn events rose "
                    f"{prev_epoch_events} -> {epoch_events}")
            prev_epoch_events = epoch_events
            if not math.isfinite(self.memory.simulated_seconds):
                raise ConfigError(
                    f"the simulated clock overflowed in epoch "
                    f"{run.epoch_count}; seconds_per_new_chunk "
                    f"{self.config.seconds_per_new_chunk:g} and "
                    f"seconds_per_update {self.config.seconds_per_update:g} "
                    f"are too large")
            nodes_now = sum(net.node_count
                            for net in self.memory.nets.values())
            if nodes_now > node_ceiling:
                raise TrainingError(
                    f"network grew past the ceiling ({nodes_now} nodes > "
                    f"{node_ceiling}); training aborted as non-terminating")
            if epoch_events == 0:
                run.converged = True
                break
        if not run.converged:
            raise TrainingError(
                f"no convergence within {self.config.max_epochs} epochs")
        run.simulated_time_seconds = self.memory.simulated_seconds
        run.node_counts = {m: net.node_count
                           for m, net in sorted(self.memory.nets.items())}
        run.naming_link_total = sum(
            sum(node.naming_links.values())
            for net in self.memory.nets.values()
            for node in net.nodes())
        return run


def new_memory(config: RunConfig) -> MultiModalMemory:
    """An empty memory whose nets charge the config's simulated costs."""
    return MultiModalMemory(
        seconds_per_new_chunk=config.seconds_per_new_chunk,
        seconds_per_update=config.seconds_per_update)


def train(memory: MultiModalMemory, manifest: DatasetManifest,
          config: RunConfig, seed: int | None = None,
          shuffle: bool | None = None) -> TrainingRun:
    samples = load_training_samples(manifest)
    trainer = Trainer(memory, config)
    return trainer.train(samples, seed=seed, shuffle=shuffle)


def attention_config(config: RunConfig,
                     span_override: int | None = None) -> AttentionConfig:
    return AttentionConfig(span=span_override or config.attention_span,
                           step=config.attention_step,
                           min_fetch=config.min_fetch)


def run_suite(memory: MultiModalMemory, items: list[TestItem],
              labels: list[str], cfg: AttentionConfig,
              link_weighting: str = "proportional") -> SuiteResult:
    rows: list[SuiteRow] = []
    for item in items:
        cls = categorise(memory, item.stimulus, cfg,
                         link_weighting=link_weighting)
        rows.append(SuiteRow(item.item_id, item.true_label, cls,
                             cls.top, cls.top == item.true_label))
    return SuiteResult(
        rows=rows, correct_count=sum(row.correct for row in rows),
        total=len(rows), labels=list(labels),
        chance_baseline=len(rows) / len(labels) if labels else 0.0)


def train_and_evaluate(manifest: DatasetManifest, config: RunConfig
                       ) -> tuple[MultiModalMemory, TrainingRun, SuiteResult]:
    """Read the manifest's test items, train a new memory on the manifest,
    then classify the items at the manifest's attention span. A bad test
    file fails before any training starts."""
    items = load_test_items(manifest)
    memory = new_memory(config)
    run = train(memory, manifest, config)
    cfg = attention_config(config, span_override=manifest.attention_span)
    result = run_suite(memory, items, [c.label for c in manifest.categories],
                       cfg, link_weighting=config.link_weighting)
    return memory, run, result
