"""Raw corpora in, labelled pattern streams out.

Tokenizers
----------
words         whitespace-delimited tokens; punctuation stays attached, case
              is preserved (nothing is removed from the raw text)
chars         one token per non-whitespace character
logic_bits    like chars: whitespace is ignored, every remaining character is
              one single-symbol token ("1 0 0 0" and "1000" are identical)
music_frames  plain-text score: one token per time step, a frame being the
              notes sounding together written letter+octave in ascending
              pitch order (e.g. "A3C4E4"); "|" is a measure bar
chess_rows    8 lines of 8 symbols per position (FEN-style piece letters,
              "." for empty, rank 8 first); one token per row, blank lines
              separate positions

Training streams are split into consecutive non-overlapping samples (so no
overly large chunks form): a token count for words/rows, a measure count for
music, or the whole stream. The final short remainder is kept; concatenating
the split samples reproduces the token stream exactly.

The training samples of one manifest share their tokens: each distinct token
is one ``str`` object, however often it occurs, so a corpus holds its
vocabulary once and equal tokens compare by identity. The sharing goes
through a dict that lives for one ``load_training_samples`` call, not
through ``sys.intern``, whose strings are never freed on some Pythons
(3.12.1 makes them immortal).

A dataset manifest is a small JSON file naming the tokenizer, the split unit
and the per-category training and test files. Validation happens up front:
duplicate labels or missing files are rejected before any training starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .config import read_json, read_text, write_json
from .patterns import Pattern

MANIFEST_SCHEMA_VERSION = 1

VISUAL_MODALITY = "visual"
VERBAL_MODALITY = "verbal"

_FRAME_RE = re.compile(r"^(?:[A-G][#b]?[0-9]+)+$")
_CHESS_ROW_RE = re.compile(r"^[pnbrqkPNBRQK.]{8}$")


class CorpusError(ValueError):
    """Malformed corpus input or manifest; raised before any training."""


@dataclass
class TokenStream:
    tokens: list[str]
    # Start index into ``tokens`` of each measure (music only); a measure may
    # be empty, so consecutive entries can coincide.
    measure_starts: list[int] | None = None


def tokenize_words(text: str) -> TokenStream:
    return TokenStream(tokens=text.split())


def tokenize_chars(text: str) -> TokenStream:
    return TokenStream(tokens=[ch for ch in text if not ch.isspace()])


def tokenize_music_frames(text: str) -> TokenStream:
    tokens: list[str] = []
    measure_starts = [0]
    for lineno, line in enumerate(text.splitlines(), start=1):
        for col, item in enumerate(line.split(), start=1):
            if item == "|":
                measure_starts.append(len(tokens))
                continue
            if not _FRAME_RE.match(item):
                raise CorpusError(
                    f"malformed music frame {item!r} at line {lineno}, "
                    f"field {col}")
            tokens.append(item)
    return TokenStream(tokens=tokens, measure_starts=measure_starts)


def tokenize_chess_rows(text: str) -> TokenStream:
    tokens: list[str] = []
    rows_in_position = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = line.strip()
        if not row:
            if rows_in_position not in (0, 8):
                raise CorpusError(
                    f"position ending at line {lineno} has "
                    f"{rows_in_position} rows, expected 8")
            rows_in_position = 0
            continue
        if not _CHESS_ROW_RE.match(row):
            raise CorpusError(
                f"bad chess row at line {lineno}: {row!r} "
                f"(need 8 symbols from pnbrqk/PNBRQK/.)")
        tokens.append(row)
        rows_in_position += 1
    if rows_in_position not in (0, 8):
        raise CorpusError(
            f"final position has {rows_in_position} rows, expected 8")
    return TokenStream(tokens=tokens)


TOKENIZERS = {
    "words": tokenize_words,
    "chars": tokenize_chars,
    "logic_bits": tokenize_chars,
    "music_frames": tokenize_music_frames,
    "chess_rows": tokenize_chess_rows,
}


def tokenize(kind: str, text: str) -> TokenStream:
    try:
        fn = TOKENIZERS[kind]
    except KeyError:
        raise CorpusError(f"unknown tokenizer {kind!r}") from None
    return fn(text)


# -- splitting -------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    unit: str           # words | rows | measures | whole
    size: int = 0

    def __post_init__(self):
        if self.unit not in ("words", "rows", "measures", "whole"):
            raise CorpusError(f"unknown split unit {self.unit!r}")
        if type(self.size) is not int:
            raise CorpusError(f"split size must be an integer, got "
                              f"{self.size!r}")
        if self.unit != "whole" and self.size < 1:
            raise CorpusError(f"split size must be >= 1, got {self.size}")


def split_samples(stream: TokenStream, spec: SplitSpec) -> list[list[str]]:
    """Consecutive non-overlapping sample bodies; the short tail is kept."""
    tokens = stream.tokens
    if spec.unit == "whole":
        return [list(tokens)] if tokens else []
    if spec.unit in ("words", "rows"):
        size = spec.size
        return [tokens[i:i + size] for i in range(0, len(tokens), size)]
    # measures
    starts = stream.measure_starts
    if starts is None:
        raise CorpusError("measure splitting needs a music token stream")
    bounds = starts + [len(tokens)]
    out = []
    for i in range(0, len(starts), spec.size):
        lo = bounds[i]
        hi = bounds[min(i + spec.size, len(starts))]
        if hi > lo:
            out.append(tokens[lo:hi])
    return out


# -- manifest ---------------------------------------------------------------

@dataclass
class Category:
    label: str
    training_files: list[Path]
    test_files: list[Path]


@dataclass
class DatasetManifest:
    name: str
    tokenizer: str
    split: SplitSpec
    categories: list[Category]
    attention_span: int | None = None  # dataset override, e.g. music measures


@dataclass
class Sample:
    visual: Pattern
    label: Pattern

    def __post_init__(self):
        if not self.visual:
            raise CorpusError("sample body must be non-empty")
        if len(self.label) != 1:
            raise CorpusError("sample label must be a single token")


@dataclass
class TestItem:
    item_id: str
    true_label: str
    stimulus: Pattern


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    raw = read_json(path, CorpusError, "manifest")

    problems: list[str] = []
    version = raw.get("schema_version")
    # JSON true and 1.0 compare equal to 1 in Python; neither is version 1.
    if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"unsupported manifest schema_version {version!r}"
            f" (expected {MANIFEST_SCHEMA_VERSION})")
    name = raw.get("name", path.stem)
    if type(name) is not str or not name:
        problems.append(f"name must be a string of one or more characters, "
                        f"got {name!r}")
    tokenizer = raw.get("tokenizer", "")
    if type(tokenizer) is not str or tokenizer not in TOKENIZERS:
        problems.append(f"unknown tokenizer {tokenizer!r}")
    split_raw = raw.get("split", {})
    split = None
    if type(split_raw) is not dict:
        problems.append(f"split must be a JSON object, got {split_raw!r}")
    else:
        try:
            split = SplitSpec(unit=split_raw.get("unit", "whole"),
                              size=split_raw.get("size", 0))
        except CorpusError as exc:
            problems.append(str(exc))

    categories: list[Category] = []
    seen_labels: set[str] = set()
    entries = raw.get("categories", [])
    if type(entries) is not list:
        problems.append(f"categories must be a list, got {entries!r}")
        entries = []
    for entry in entries:
        if type(entry) is not dict:
            problems.append(f"category {entry!r} is not a JSON object")
            continue
        label = entry.get("label", "")
        if type(label) is not str or not label or \
                any(ch.isspace() for ch in label):
            problems.append(f"bad category label {label!r}")
        elif label in seen_labels:
            problems.append(f"duplicate category label {label!r}")
        else:
            seen_labels.add(label)
        files = {}
        for key in ("training_files", "test_files"):
            names = entry.get(key, [])
            if type(names) is list and \
                    all(type(name) is str for name in names):
                files[key] = [path.parent / name for name in names]
            else:
                problems.append(f"category {label!r} {key} must be a list "
                                f"of file names, got {names!r}")
        training = files.get("training_files")
        test = files.get("test_files", [])
        if training == []:
            problems.append(f"category {label!r} has no training files")
        training = training or []
        for f in training + test:
            if not f.is_file():
                problems.append(f"missing file: {f}")
        categories.append(Category(label, training, test))
    if not categories:
        problems.append("manifest has no categories")
    span = raw.get("attention_span")
    if span is not None and (type(span) is not int or span < 2):
        problems.append(f"attention_span must be an integer >= 2, got "
                        f"{span!r}")
    if problems:
        raise CorpusError("; ".join(problems))
    return DatasetManifest(name=name, tokenizer=tokenizer, split=split,
                           categories=categories,
                           attention_span=span)


def write_manifest(path, name: str, tokenizer: str, split: SplitSpec,
                   categories: list[Category]) -> None:
    path = Path(path)
    write_json(path, {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "name": name,
        "tokenizer": tokenizer,
        "split": {"unit": split.unit, "size": split.size},
        "categories": [
            {
                "label": c.label,
                "training_files": [str(Path(f).relative_to(path.parent))
                                   for f in c.training_files],
                "test_files": [str(Path(f).relative_to(path.parent))
                               for f in c.test_files],
            }
            for c in categories
        ],
    })


def load_training_samples(manifest: DatasetManifest) -> list[Sample]:
    """All labelled sample pairs, in manifest order (the canonical order);
    a manifest whose training files yield none raises CorpusError."""
    samples: list[Sample] = []
    # Each distinct token, as the one str object every sample holds for it.
    shared: dict[str, str] = {}
    for category in manifest.categories:
        label = Pattern(VERBAL_MODALITY, (category.label,))
        for file in category.training_files:
            text = read_text(file, CorpusError, "training file")
            stream = tokenize(manifest.tokenizer, text)
            stream.tokens = list(map(shared.setdefault, stream.tokens,
                                     stream.tokens))
            for body in split_samples(stream, manifest.split):
                samples.append(Sample(
                    visual=Pattern(VISUAL_MODALITY, tuple(body)),
                    label=label))
    if not samples:
        raise CorpusError(f"manifest {manifest.name!r} has no training "
                          f"samples")
    return samples


def load_test_items(manifest: DatasetManifest) -> list[TestItem]:
    """One test item per test file (whole pieces are classified)."""
    items: list[TestItem] = []
    for category in manifest.categories:
        for file in category.test_files:
            text = read_text(file, CorpusError, "test file")
            stream = tokenize(manifest.tokenizer, text)
            if not stream.tokens:
                raise CorpusError(f"test file is empty: {file}")
            items.append(TestItem(
                item_id=file.stem,
                true_label=category.label,
                stimulus=Pattern(VISUAL_MODALITY, tuple(stream.tokens))))
    return items
