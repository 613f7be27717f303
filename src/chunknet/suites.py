"""Built-in benchmark suites: truth-table rote learning, the nine-example
binary faces task, occluded city names, and a desk-scale synthetic
two-category text corpus.

Each suite writes its corpus files and manifest into the run directory, then
trains and classifies through ``harness.train_and_evaluate``, the path
``run-suite --manifest`` takes, so the suites exercise exactly what a
user-supplied dataset would. Five-four has no test files: it trains from its
one loaded manifest and classifies the faces directly. Each suite reports
anchor checks that a --check run turns into the exit status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .attention import categorise
from .config import RunConfig, make_dir, write_text
from .corpus import Category, SplitSpec, TestItem, load_manifest, \
    load_training_samples, write_manifest
# Nothing here calls ``train``; the benchmark's tracer patches it here.
from .harness import SuiteResult, Trainer, TrainingRun, attention_config, \
    new_memory, run_suite, train, train_and_evaluate
from .metrics import SIGNIFICANCE_THRESHOLD, binomial_at_least
from .network import MultiModalMemory
from .patterns import Pattern

# Truth table for the two-bit exclusive-or task.
XOR_ROWS = [("0 0", "F"), ("0 1", "T"), ("1 0", "T"), ("1 1", "F")]

# Nine training faces (four binary attributes) and seven transfer items of
# the classic five/four category structure, in canonical presentation order.
FIVE_FOUR_TRAINING = {
    "A": ["1110", "1010", "1011", "1101", "0111"],
    "B": ["1100", "0110", "0001", "0000"],
}
FIVE_FOUR_TRANSFER = ["1001", "1000", "1111", "0010", "0101", "0011", "0100"]
# The faces as stimuli, each checked by ``Pattern`` once, at import.
_TRANSFER_STIMULI = [(face, Pattern("visual", tuple(face)))
                     for face in FIVE_FOUR_TRANSFER]
_TRAINING_ITEMS = [TestItem(face, label, Pattern("visual", tuple(face)))
                   for label, faces in FIVE_FOUR_TRAINING.items()
                   for face in faces]
FIVE_FOUR_SWEEP_SEEDS = 50  # shuffled replicas, one per seed from 0
# Reference transfer labels the seed sweep reports agreement against.
FIVE_FOUR_REFERENCE = {
    "1001": "A", "1000": "A", "1111": "B", "0010": "B",
    "0101": "A", "0011": "B", "0100": "A",
}

OCCLUSION_WORDS = {"Liverpool": "A", "Manchester": "B"}
OCCLUSION_TESTS = {
    "A": ["Liverpooz", "Lizerzool", "zLiverpool", "zzzzLzverzool"],
    "B": ["Manchestez", "Mazchezter", "zManchester", "zzzzMznczester"],
}
# Generated occlusions classified on top of the listed ones, split evenly
# between the words.
GENERATED_OCCLUSIONS = 100


@dataclass
class SuiteReport:
    name: str
    training: TrainingRun
    result: SuiteResult
    checks: dict[str, bool] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def _write_corpus(corpus_dir: Path, name: str, tokenizer: str,
                  split: SplitSpec,
                  texts: dict[str, tuple[str, dict[str, str]]]) -> Path:
    """Write a suite's corpus and return its manifest's path. ``texts``
    maps each label, in manifest order, to its training text and its test
    texts by file stem; each becomes ``{label}_train.txt`` or ``{stem}.txt``
    with a final newline, and ``manifest.json`` names them all."""
    make_dir(corpus_dir)
    categories = []
    for label, (training, tests) in texts.items():
        train_file = corpus_dir / f"{label}_train.txt"
        write_text(train_file, training + "\n")
        test_files = [corpus_dir / f"{stem}.txt" for stem in tests]
        for test_file, text in zip(test_files, tests.values()):
            write_text(test_file, text + "\n")
        categories.append(Category(label, [train_file], test_files))
    manifest_path = corpus_dir / "manifest.json"
    write_manifest(manifest_path, name, tokenizer, split, categories)
    return manifest_path


def build_xor_manifest(corpus_dir: Path) -> Path:
    rows = {label: [stimulus for stimulus, row_label in XOR_ROWS
                    if row_label == label] for label in ("T", "F")}
    return _write_corpus(
        corpus_dir, "xor", "logic_bits", SplitSpec("words", 2),
        {label: ("\n".join(stimuli),
                 {f"test_{s.replace(' ', '')}": s for s in stimuli})
         for label, stimuli in rows.items()})


def run_xor(out_dir: Path, config: RunConfig) -> SuiteReport:
    manifest = load_manifest(build_xor_manifest(out_dir / "corpus"))
    _, training, result = train_and_evaluate(manifest, config)
    exact = all(row.correct and
                abs(row.classification.confidence(row.true_label) - 1.0) < 1e-9
                for row in result.rows)
    checks = {
        "truth_table_4_of_4": result.correct_count == 4,
        "confidence_1_per_item": exact,
    }
    return SuiteReport("xor", training, result, checks)


def build_five_four_manifest(corpus_dir: Path) -> Path:
    # Transfer items have no true category, so they are classified directly
    # rather than listed as test_files.
    return _write_corpus(
        corpus_dir, "five-four", "logic_bits", SplitSpec("words", 4),
        {label: ("\n".join(faces), {})
         for label, faces in FIVE_FOUR_TRAINING.items()})


def classify_transfer(memory: MultiModalMemory, config: RunConfig) -> dict[str, str]:
    cfg = attention_config(config)
    return {face: categorise(memory, stimulus, cfg,
                             link_weighting=config.link_weighting).top or "?"
            for face, stimulus in _TRANSFER_STIMULI}


def run_five_four(out_dir: Path, config: RunConfig) -> SuiteReport:
    """Canonical-order training plus a seed sweep over shuffled replicas;
    the suite fixes these orders, so the config's ``shuffle`` is not read.
    The training files are read once, and every run trains from those
    samples.

    The canonical run must assign A to the 1000 transfer face; the sweep
    reports per-item modal labels against the reference transfer table
    (agreement is reported, never thresholded: presentation order changes
    the outcome and no canonical order is prescribed for the full table).
    """
    samples = load_training_samples(
        load_manifest(build_five_four_manifest(out_dir / "corpus")))
    memory = new_memory(config)
    training = Trainer(memory, config).train(samples, shuffle=False)
    transfer = classify_transfer(memory, config)

    tally: dict[str, dict[str, int]] = {f: {} for f in FIVE_FOUR_TRANSFER}
    for seed in range(FIVE_FOUR_SWEEP_SEEDS):
        sweep_memory = new_memory(config)
        Trainer(sweep_memory, config).train(samples, seed=seed, shuffle=True)
        for face, label in classify_transfer(sweep_memory, config).items():
            tally[face][label] = tally[face].get(label, 0) + 1
    modal = {face: max(sorted(counts), key=counts.get)
             for face, counts in tally.items()}
    agreement = sum(modal[f] == FIVE_FOUR_REFERENCE[f]
                    for f in FIVE_FOUR_TRANSFER)

    # Evaluate the training faces themselves as a sanity table.
    result = run_suite(memory, _TRAINING_ITEMS, ["A", "B"],
                       attention_config(config),
                       link_weighting=config.link_weighting)

    checks = {"transfer_1000_is_A": transfer.get("1000") == "A"}
    extras = {
        "transfer_labels": transfer,
        "sweep_modal_labels": modal,
        "sweep_agreement": f"{agreement}/{len(FIVE_FOUR_TRANSFER)}",
        "sweep_seeds": FIVE_FOUR_SWEEP_SEEDS,
    }
    return SuiteReport("five-four", training, result, checks, extras)


def build_occlusion_manifest(corpus_dir: Path) -> Path:
    return _write_corpus(
        corpus_dir, "occlusion", "chars", SplitSpec("whole"),
        {label: (word, {f"test_{o}": o for o in OCCLUSION_TESTS[label]})
         for word, label in OCCLUSION_WORDS.items()})


def generate_occlusions(word: str, count: int,
                        rng: random.Random) -> list[str]:
    """Occluded variants: between one and ``len(word)`` noise characters
    unknown to the net are inserted at random positions, so noise is never
    more than half of the result, and the letters of the word are kept in
    order."""
    noise_alphabet = "z"
    out = []
    for _ in range(count):
        letters = list(word)
        for _ in range(rng.randint(1, len(word))):
            pos = rng.randint(0, len(letters))
            letters.insert(pos, rng.choice(noise_alphabet))
        out.append("".join(letters))
    return out


def run_occlusion(out_dir: Path, config: RunConfig) -> SuiteReport:
    manifest = load_manifest(build_occlusion_manifest(out_dir / "corpus"))
    memory, training, result = train_and_evaluate(manifest, config)

    rng = random.Random(config.seed)
    per_word = GENERATED_OCCLUSIONS // len(OCCLUSION_WORDS)
    items = [TestItem(occluded, label, Pattern("visual", tuple(occluded)))
             for word, label in OCCLUSION_WORDS.items()
             for occluded in generate_occlusions(word, per_word, rng)]
    generated = run_suite(memory, items, result.labels,
                          attention_config(config),
                          link_weighting=config.link_weighting)

    checks = {
        "listed_occlusions_8_of_8": result.correct_count == result.total == 8,
        "generated_occlusions_95pct":
            generated.correct_count >= 0.95 * generated.total,
    }
    extras = {"generated_total": generated.total,
              "generated_correct": generated.correct_count}
    return SuiteReport("occlusion", training, result, checks, extras)


# -- synthetic natural categories --------------------------------------------

def _synthetic_vocab(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(size)]


def generate_synthetic_corpus(corpus_dir: Path, seed: int,
                              stream_bytes: int = 10_000) -> Path:
    """Two training streams, plus 20 held-out test samples of 60 tokens per
    category from the same distributions.

    Every word is four characters, so a word and the space or newline after
    it take five bytes. Each training stream is ``stream_bytes`` rounded down
    to whole five-byte words, trailing newline included.

    Token distributions are disjoint-biased: each category draws mostly from
    its own vocabulary with a small shared pool mixed in. Like natural prose
    (and unlike i.i.d. token soup), the streams are built from recurring
    multi-word phrases, so held-out text reuses word sequences the trained
    chunks anchor on."""
    rng = random.Random(seed)
    shared = _synthetic_vocab("s", 60)
    vocab = {
        "alpha": _synthetic_vocab("a", 140),
        "beta": _synthetic_vocab("b", 140),
    }

    def phrase_book(own: list[str]) -> list[list[str]]:
        phrases = []
        for _ in range(40):
            length = rng.randint(4, 9)
            phrase = [rng.choice(own) for _ in range(length)]
            phrases.append(phrase)
        return phrases

    def emit(phrases: list[list[str]], token_budget: int) -> list[str]:
        tokens: list[str] = []
        while len(tokens) < token_budget:
            tokens.extend(rng.choice(phrases))
            if rng.random() < 0.3:
                tokens.append(rng.choice(shared))
        return tokens[:token_budget]

    texts = {}
    for label, own in vocab.items():
        phrases = phrase_book(own)
        stream_tokens = stream_bytes // (len(own[0]) + 1)  # word + separator
        training = " ".join(emit(phrases, stream_tokens))
        texts[label] = (training, {f"{label}_test_{i:02d}":
                                   " ".join(emit(phrases, 60))
                                   for i in range(20)})
    return _write_corpus(corpus_dir, "synthetic", "words",
                         SplitSpec("words", 20), texts)


def run_synthetic(out_dir: Path, config: RunConfig) -> SuiteReport:
    """Desk-scale two-category text classification, with the accuracy's
    significance judged by this package's own binomial machinery at the
    Bonferroni-adjusted threshold."""
    manifest = load_manifest(
        generate_synthetic_corpus(out_dir / "corpus", config.seed))
    _, training, result = train_and_evaluate(manifest, config)

    tail = binomial_at_least(result.total, result.correct_count,
                             1.0 / len(result.labels))
    checks = {"accuracy_above_chance_bonferroni":
              tail < SIGNIFICANCE_THRESHOLD}
    extras = {
        "accuracy": f"{result.correct_count}/{result.total}",
        "chance_baseline": result.chance_baseline,
        "tail_probability": tail,
        "threshold": SIGNIFICANCE_THRESHOLD,
    }
    return SuiteReport("synthetic", training, result, checks, extras)


# Built-in suite name -> runner, in the order ``run-suite --help`` lists.
SUITES = {
    "xor": run_xor,
    "five-four": run_five_four,
    "occlusion": run_occlusion,
    "synthetic": run_synthetic,
}
