"""Per-layer metrics of the traced run.

:func:`install` wraps the public functions of each ``chunknet`` module from
outside, patching every module that looks a name up; :func:`layer_metrics`
turns the recorded spans and counters into the per-layer metrics, per round.
Which end-to-end metric each layer metric should move, and on which
workload, is recorded in ``layer_map.json``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from chunknet import (attention, cli, corpus, harness, network, patterns,
                      snapshot, stm, suites)
from chunknet.network import NO_CHANGE, ROOT_ID

from spans import Tracer

ROUND = "bench.round"
KERNEL = "bench.kernel"
LAYER_MAP = json.loads((Path(__file__).with_name("layer_map.json"))
                       .read_text(encoding="utf-8"))["layers"]


@dataclass
class Counts:
    learn_useful: int = 0
    co_occupancy_hits: int = 0
    fetches: int = 0
    votes: int = 0
    tokens_checked: int = 0
    epochs: int = 0
    snapshot_bytes: list[int] = field(default_factory=list)
    nets: list = field(default_factory=list)


def install(tracer: Tracer) -> Counts:
    """Wrap the program's public functions; ``tracer.restore()`` undoes it."""
    counts = Counts()
    categorising = tracer.name_id("attention.categorise")
    open_spans = tracer.open

    def on_learn(args, event):
        counts.learn_useful += event.kind != NO_CHANGE

    def on_recognise(args, node):
        if open_spans[categorising] and node.node_id != ROOT_ID \
                and node.naming_links:
            counts.votes += 1

    def on_pattern(args, _):
        counts.tokens_checked += len(args[0].tokens)

    def on_groups(args, groups):
        counts.fetches += sum(len(g) for g in groups)

    def on_co_occupancy(args, pair):
        counts.co_occupancy_hits += pair is not None

    def on_train(args, run):
        counts.epochs += run.epoch_count
        counts.nets.append(args[0].net("visual"))

    def on_save(args, _):
        counts.snapshot_bytes.append(Path(args[0]).stat().st_size)

    net = network.DiscriminationNet
    tracer.patch("patterns.Pattern", patterns.Pattern, "__init__",
                 on_result=on_pattern)
    tracer.patch("patterns.difference", patterns, "difference",
                 others=[network])
    tracer.patch("network.recognise", net, "recognise",
                 on_result=on_recognise)
    tracer.patch("network.learn", net, "learn", on_result=on_learn)
    tracer.patch("network.contents", net, "contents")
    tracer.patch("stm.push", stm.StmQueue, "push")
    tracer.patch("stm.co_occupancy", stm, "co_occupancy", others=[harness],
                 on_result=on_co_occupancy)
    tracer.patch("harness.present", harness.Trainer, "present")
    tracer.patch("harness.train", harness, "train", others=[cli, suites],
                 on_result=on_train)
    tracer.patch("harness.run_suite", harness, "run_suite", others=[suites])
    tracer.patch("attention.categorise", attention, "categorise",
                 others=[harness, cli, suites])
    tracer.patch("attention.window_groups", attention, "window_groups",
                 on_result=on_groups)
    tracer.patch("attention.confidence", attention, "confidence")
    tracer.patch("snapshot.save", snapshot, "save_memory", others=[cli],
                 on_result=on_save)
    tracer.patch("snapshot.load", snapshot, "load_memory", others=[cli])
    tracer.patch("corpus.tokenize", corpus, "tokenize", others=[cli])
    tracer.patch("corpus.load_manifest", corpus, "load_manifest",
                 others=[cli, suites])
    tracer.patch("corpus.load_samples", corpus, "load_training_samples",
                 others=[harness])
    tracer.patch("suites.build_five_four_manifest", suites,
                 "build_five_four_manifest")
    tracer.patch("suites.classify_transfer", suites, "classify_transfer")
    tracer.patch("cli.main", cli, "main")
    return counts


def net_shape(nets) -> tuple[float, float, float]:
    """Mean node count, root fan-out and node depth over trained nets."""
    if not nets:
        return 0.0, 0.0, 0.0
    nodes = fanout = depth = 0.0
    for net in nets:
        depths = {ROOT_ID: 0}
        for node in net.nodes()[1:]:
            depths[node.node_id] = depths[node.parent] + 1
        nodes += net.node_count
        fanout += len(net.root.children)
        depth += sum(depths.values()) / max(len(depths) - 1, 1)
    n = len(nets)
    return nodes / n, fanout / n, depth / n


def layer_metrics(tracer: Tracer, counts: Counts, rounds: int,
                  speed: float) -> dict[str, float]:
    """Per-layer metrics per round, times scaled to host speed; the
    ``trace.*`` metrics of ``layer_map.json`` are added by the caller."""
    self_s = tracer.self_times()
    per_name = Counter(tracer.name_of)

    def count(name):
        return per_name[tracer.name_id(name)]

    def calls(name):
        return count(name) / rounds

    def self_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) * speed * 1e3 / rounds

    def p50_us(name):
        durations = tracer.durations(name)
        return median(durations) * speed * 1e6 if durations else 0.0

    def mean_ms(name):
        durations = tracer.durations(name)
        return (sum(durations) / len(durations) * speed * 1e3
                if durations else 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    nodes, fanout, depth = net_shape(counts.nets)
    learn_calls = count("network.learn")
    co_calls = count("stm.co_occupancy")
    stm_names = [n for n in tracer.names if n.startswith("stm.")]
    return {
        "network.recognise.calls": calls("network.recognise"),
        "network.recognise.self_ms": self_ms("network.recognise"),
        "network.recognise.us_p50": p50_us("network.recognise"),
        "network.learn.calls": calls("network.learn"),
        "network.learn.self_ms": self_ms("network.learn"),
        "network.learn.useful_ratio": ratio(counts.learn_useful,
                                            learn_calls),
        "network.contents.calls": calls("network.contents"),
        "network.contents.self_ms": self_ms("network.contents"),
        "network.nodes": nodes,
        "network.root_fanout": fanout,
        "network.depth_mean": depth,
        "patterns.Pattern.calls": calls("patterns.Pattern"),
        "patterns.Pattern.tokens_checked": counts.tokens_checked / rounds,
        "patterns.Pattern.self_ms": self_ms("patterns.Pattern"),
        "patterns.difference.calls": calls("patterns.difference"),
        "harness.present.calls": calls("harness.present"),
        "harness.present.us_p50": p50_us("harness.present"),
        "harness.present.self_ms": self_ms("harness.present"),
        "harness.epochs": counts.epochs / rounds,
        "stm.co_occupancy.calls": calls("stm.co_occupancy"),
        "stm.co_occupancy.hit_ratio": ratio(counts.co_occupancy_hits,
                                            co_calls),
        "stm.self_ms": self_ms(*stm_names),
        "attention.categorise.calls": calls("attention.categorise"),
        "attention.fetches": counts.fetches / rounds,
        "attention.vote_ratio": ratio(counts.votes, counts.fetches),
        "attention.window_groups.self_ms":
            self_ms("attention.window_groups"),
        "attention.confidence.self_ms": self_ms("attention.confidence"),
        "snapshot.load.ms": mean_ms("snapshot.load"),
        "snapshot.save.ms": mean_ms("snapshot.save"),
        "snapshot.bytes": ratio(sum(counts.snapshot_bytes),
                                len(counts.snapshot_bytes)),
        "corpus.tokenize.calls": calls("corpus.tokenize"),
        "corpus.tokenize.self_ms": self_ms("corpus.tokenize"),
        "corpus.load_manifest.self_ms": self_ms("corpus.load_manifest"),
        "corpus.load_samples.self_ms": self_ms("corpus.load_samples"),
        "suites.build_five_four_manifest.self_ms":
            self_ms("suites.build_five_four_manifest"),
        "cli.main.self_ms": self_ms("cli.main"),
        "bench.self_ms": self_ms(ROUND),
    }
