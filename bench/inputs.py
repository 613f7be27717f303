"""Seeded input generators owned by the benchmark.

Every input a workload feeds to ``chunknet`` is made here from the workload
name and ``--seed``, so the same seed always gives byte-identical files and a
fix to the program's own generators (``suites.generate_synthetic_corpus``)
can never move the benchmark's inputs.

The phrase books and training streams of a workload do not depend on the
seed; the held-out stimuli do. Training to convergence takes 36 to 45 epochs
on 100 KB streams depending on the streams drawn, which would move train time
by up to 12% from seed to seed, more than any regression bound. So every seed
trains the same model and asks it different questions. Held-out lengths
follow a fixed schedule over their range, so each seed has the same length
mix.

The phrase corpus follows the synthetic suite's design: two categories, each
drawing 4-character words from its own vocabulary, built from a book of
recurring multi-word phrases with a small shared vocabulary mixed in. Every
word is 4 characters plus a separating space, so a stream of ``n`` words is
``5 * n`` bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

LABELS = ("alpha", "beta")
BYTES_PER_WORD = 5
SPLIT_WORDS = 20


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """An RNG that depends only on the workload, the seed and its purpose."""
    return random.Random(f"{workload}/{seed}/{purpose}")


def _vocab(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(size)]


@dataclass(frozen=True)
class PhraseSource:
    """One category's phrase book and the shared filler vocabulary."""

    label: str
    phrases: tuple[tuple[str, ...], ...]
    shared: tuple[str, ...]

    def emit(self, rng: random.Random, words: int) -> list[str]:
        out: list[str] = []
        while len(out) < words:
            out.extend(rng.choice(self.phrases))
            if rng.random() < 0.3:
                out.append(rng.choice(self.shared))
        return out[:words]


def phrase_sources(rng: random.Random) -> list[PhraseSource]:
    shared = tuple(_vocab("s", 60))
    sources = []
    for label in LABELS:
        own = _vocab(label[0], 140)
        phrases = tuple(tuple(rng.choice(own)
                              for _ in range(rng.randint(4, 9)))
                        for _ in range(40))
        sources.append(PhraseSource(label, phrases, shared))
    return sources


@dataclass(frozen=True)
class Item:
    """One held-out stimulus: its file name, true label and words."""

    name: str
    label: str
    words: tuple[str, ...]


@dataclass(frozen=True)
class PhraseCorpus:
    streams: dict[str, tuple[str, ...]]   # label -> training words
    items: tuple[Item, ...]               # held-out stimuli, labels alternate

    def write(self, directory: Path) -> Path:
        """Training streams and a manifest; returns the manifest path."""
        directory.mkdir(parents=True, exist_ok=True)
        categories = []
        for label, words in self.streams.items():
            (directory / f"{label}_train.txt").write_text(
                " ".join(words) + "\n", encoding="utf-8")
            categories.append({"label": label,
                               "training_files": [f"{label}_train.txt"],
                               "test_files": []})
        manifest = directory / "manifest.json"
        manifest.write_text(json.dumps({
            "schema_version": 1, "name": "bench-phrases",
            "tokenizer": "words",
            "split": {"unit": "words", "size": SPLIT_WORDS},
            "categories": categories}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        return manifest

    def write_items(self, directory: Path) -> None:
        """One file per held-out item, for ``chunknet categorise``."""
        for item in self.items:
            (directory / item.name).write_text(
                " ".join(item.words) + "\n", encoding="utf-8")


def phrase_corpus(workload: str, seed: int, stream_bytes: int,
                  item_count: int, min_words: int,
                  max_words: int) -> PhraseCorpus:
    """Two training streams of ``stream_bytes`` each (the same for every
    seed) and ``item_count`` held-out items drawn by ``seed`` from the same
    phrase books, their lengths spread evenly over ``min_words``..
    ``max_words`` with labels alternating."""
    sources = phrase_sources(rng_for(workload, 0, "phrases"))
    stream_rng = rng_for(workload, 0, "streams")
    streams = {src.label: tuple(src.emit(stream_rng,
                                         stream_bytes // BYTES_PER_WORD))
               for src in sources}
    item_rng = rng_for(workload, seed, "items")
    span = max(item_count - 1, 1)
    items = []
    for i in range(item_count):
        src = sources[i % len(sources)]
        length = min_words + i * (max_words - min_words) // span
        items.append(Item(f"item_{i:04d}.txt", src.label,
                          tuple(src.emit(item_rng, length))))
    return PhraseCorpus(streams, tuple(items))


def five_four_seeds(seed: int, count: int) -> list[int]:
    """The replica seeds of one sweep block, offset by ``seed``."""
    return [seed * 1000 + i for i in range(count)]
