"""Tokenizers, sample splitting, and manifest validation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.cli import main
from chunknet.corpus import (TOKENIZERS, Category, CorpusError,
                             DatasetManifest, Sample, SplitSpec,
                             load_manifest, load_test_items,
                             load_training_samples, split_samples, tokenize,
                             tokenize_chess_rows, tokenize_music_frames,
                             tokenize_words)
from chunknet.patterns import Pattern, check_tokens
from chunknet.suites import build_xor_manifest
from test_snapshot import _JSON_VALUES, _json_kind

GOLDEN_WORDS = (
    "the quick brown fox",
    ["the", "quick", "brown", "fox"],
)


class TestWordTokenizer:
    def test_whitespace_split(self):
        assert tokenize_words(GOLDEN_WORDS[0]).tokens == GOLDEN_WORDS[1]

    def test_empty_text(self):
        assert tokenize_words("").tokens == []

    def test_punctuation_and_case_preserved(self):
        # nothing is removed from the raw text
        tokens = tokenize_words("No, Sir! he said.\n  (Twice.)").tokens
        assert tokens == ["No,", "Sir!", "he", "said.", "(Twice.)"]

    def test_determinism_golden(self):
        text = "alpha beta\n gamma\t delta  epsilon"
        assert tokenize_words(text).tokens == tokenize_words(text).tokens == \
            ["alpha", "beta", "gamma", "delta", "epsilon"]


class TestCharTokenizer:
    def test_letters(self):
        assert tokenize("chars", "Liverpool").tokens == list("Liverpool")

    def test_whitespace_dropped(self):
        assert tokenize("logic_bits", "1 0 0 0").tokens == list("1000")
        assert tokenize("logic_bits", "1000").tokens == list("1000")


class TestMusicTokenizer:
    def test_single_notes_in_sequence(self):
        stream = tokenize_music_frames("A3 | C4 | E4")
        assert stream.tokens == ["A3", "C4", "E4"]
        assert len(stream.measure_starts) == 3

    def test_chord_frame_is_one_token(self):
        assert tokenize_music_frames("A3C4E4").tokens == ["A3C4E4"]

    def test_empty_measure_adds_no_tokens(self):
        stream = tokenize_music_frames("|")
        assert stream.tokens == []
        assert len(stream.measure_starts) == 2

    def test_accidentals_and_multi_digit_octaves(self):
        assert tokenize_music_frames("C#4 Bb2 A10").tokens == \
            ["C#4", "Bb2", "A10"]

    def test_malformed_frame_reports_position(self):
        with pytest.raises(CorpusError) as err:
            tokenize_music_frames("A3 C4\nE4 H9")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line, frame, field", [
        ("A3  C4 X9", "X9", 3),     # a run of spaces holds no field
        (" A3 H1", "H1", 2),        # nor does a leading space
    ])
    def test_fields_are_counted_between_runs_of_whitespace(self, line, frame,
                                                           field):
        with pytest.raises(CorpusError, match=f"^malformed music frame "
                                              f"'{frame}' at line 1, "
                                              f"field {field}$"):
            tokenize_music_frames(line)

    def test_any_whitespace_separates_frames(self):
        stream = tokenize_music_frames("A3\tC4\u3000|\tE4 ")
        assert stream.tokens == ["A3", "C4", "E4"]
        assert stream.measure_starts == [0, 2]

    @pytest.mark.parametrize("frame", ["A\u0663", "C#\uff14", "B3E\u0b68"])
    def test_octaves_are_ascii_digits(self, frame):
        with pytest.raises(CorpusError, match="^malformed music frame"):
            tokenize_music_frames(frame)


class TestChessTokenizer:
    BOARD = "\n".join([
        "rnbqkbnr",
        "pppp.ppp",
        "........",
        "....p...",
        "....P...",
        "........",
        "PPPP.PPP",
        "RNBQKBNR",
    ])

    def test_one_token_per_row(self):
        tokens = tokenize_chess_rows(self.BOARD).tokens
        assert tokens[0] == "rnbqkbnr"
        assert tokens[2] == "........"
        assert len(tokens) == 8

    def test_positions_separated_by_blank_lines(self):
        two = self.BOARD + "\n\n" + self.BOARD
        assert len(tokenize_chess_rows(two).tokens) == 16

    def test_short_row_rejected(self):
        with pytest.raises(CorpusError):
            tokenize_chess_rows("rnbqkbn\n" + "........\n" * 7)

    def test_incomplete_position_rejected(self):
        with pytest.raises(CorpusError):
            tokenize_chess_rows("........\n........")

    def test_position_cut_short_before_a_blank_line_rejected(self):
        text = self.BOARD + "\n\n" + "........\n" * 3 + "\n" + self.BOARD
        with pytest.raises(CorpusError, match="^position ending at line 13 "
                                              "has 3 rows, expected 8$"):
            tokenize_chess_rows(text)


class TestSplitting:
    def test_word_windows_keep_the_remainder(self):
        stream = tokenize_words(" ".join(f"w{i}" for i in range(45)))
        bodies = split_samples(stream, SplitSpec("words", 20))
        assert [len(b) for b in bodies] == [20, 20, 5]

    def test_measure_windows(self):
        stream = tokenize_music_frames("A3 B3 | C4 | D4 E4")
        bodies = split_samples(stream, SplitSpec("measures", 2))
        assert bodies == [["A3", "B3", "C4"], ["D4", "E4"]]

    def test_whole(self):
        stream = tokenize_words("a b c")
        assert split_samples(stream, SplitSpec("whole")) == [["a", "b", "c"]]

    def test_lossless_concatenation(self):
        stream = tokenize_words(" ".join(f"w{i}" for i in range(53)))
        for size in (1, 7, 20, 60):
            bodies = split_samples(stream, SplitSpec("words", size))
            flat = [t for b in bodies for t in b]
            assert flat == stream.tokens

    def test_bad_split_spec(self):
        with pytest.raises(CorpusError):
            SplitSpec("words", 0)
        with pytest.raises(CorpusError):
            SplitSpec("sentences", 3)


class TestSample:
    def test_an_empty_body_is_refused(self):
        with pytest.raises(CorpusError,
                           match="^sample body must be non-empty$"):
            Sample(Pattern("visual", ()), Pattern("verbal", ("A",)))

    def test_a_label_of_two_tokens_is_refused(self):
        with pytest.raises(CorpusError,
                           match="^sample label must be a single token$"):
            Sample(Pattern("visual", ("x",)), Pattern("verbal", ("A", "B")))

    def test_an_unknown_tokenizer_is_refused_when_samples_are_read(
            self, tmp_path):
        # load_manifest refuses it first; a manifest built in code meets
        # the same refusal when its training files are tokenized.
        train = tmp_path / "A_train.txt"
        train.write_text("one two\n", encoding="utf-8")
        manifest = DatasetManifest("hand-built", "bogus", SplitSpec("whole"),
                                   [Category("A", [train], [])])
        with pytest.raises(CorpusError, match="^unknown tokenizer 'bogus'$"):
            load_training_samples(manifest)


# Texts near what the tokenizers read: music frames, bars, chess rows and
# whole positions, and any short text, each followed by whitespace that
# ``str.splitlines`` may or may not break lines at.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"
_CHESS_ROWS = st.text("pnbrqkPNBRQK.", min_size=8, max_size=8)
_TOKENIZER_TEXT = st.lists(st.tuples(
    st.one_of(st.from_regex(r"(?:[A-G][#b]?[0-9]{1,2}){1,3}", fullmatch=True),
              st.just("|"), _CHESS_ROWS,
              st.lists(_CHESS_ROWS, min_size=8, max_size=8).map("\n".join),
              st.text(max_size=3)),
    st.text(_WHITESPACE, min_size=1, max_size=2))).map(
        lambda parts: "".join(item + gap for item, gap in parts))


@settings(max_examples=500, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(TOKENIZERS)),
       text=st.one_of(_TOKENIZER_TEXT, st.text()))
def test_a_tokenizer_refuses_or_returns_tokens_a_pattern_takes(kind, text):
    try:
        tokens = tokenize(kind, text).tokens
    except CorpusError:
        return
    check_tokens(tuple(tokens))
    if kind in ("music_frames", "chess_rows"):
        assert not any(ch.isspace() for token in tokens for ch in token)


def write_manifest_doc(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def valid_doc(tmp_path):
    (tmp_path / "a.txt").write_text("one two three four", encoding="utf-8")
    (tmp_path / "b.txt").write_text("five six seven eight", encoding="utf-8")
    (tmp_path / "t.txt").write_text("one two", encoding="utf-8")
    return {
        "schema_version": 1,
        "name": "demo",
        "tokenizer": "words",
        "split": {"unit": "words", "size": 2},
        "categories": [
            {"label": "A", "training_files": ["a.txt"],
             "test_files": ["t.txt"]},
            {"label": "B", "training_files": ["b.txt"], "test_files": []},
        ],
    }


class TestManifest:
    def test_load_and_build_samples(self, tmp_path):
        manifest = load_manifest(write_manifest_doc(tmp_path,
                                                    valid_doc(tmp_path)))
        samples = load_training_samples(manifest)
        assert [s.visual.tokens for s in samples] == [
            ("one", "two"), ("three", "four"),
            ("five", "six"), ("seven", "eight")]
        assert [s.label.tokens for s in samples] == [
            ("A",), ("A",), ("B",), ("B",)]
        items = load_test_items(manifest)
        assert len(items) == 1
        assert items[0].true_label == "A"
        assert items[0].stimulus.tokens == ("one", "two")

    def test_duplicate_labels_rejected(self, tmp_path):
        doc = valid_doc(tmp_path)
        doc["categories"][1]["label"] = "A"
        with pytest.raises(CorpusError, match="duplicate"):
            load_manifest(write_manifest_doc(tmp_path, doc))

    def test_missing_file_rejected_before_training(self, tmp_path):
        doc = valid_doc(tmp_path)
        doc["categories"][0]["training_files"] = ["gone.txt"]
        with pytest.raises(CorpusError, match="missing file"):
            load_manifest(write_manifest_doc(tmp_path, doc))

    def test_unknown_schema_version_rejected(self, tmp_path):
        doc = valid_doc(tmp_path)
        doc["schema_version"] = 99
        with pytest.raises(CorpusError, match="schema_version"):
            load_manifest(write_manifest_doc(tmp_path, doc))

    def test_unknown_tokenizer_rejected(self, tmp_path):
        doc = valid_doc(tmp_path)
        doc["tokenizer"] = "phonemes"
        with pytest.raises(CorpusError, match="tokenizer"):
            load_manifest(write_manifest_doc(tmp_path, doc))

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda doc: {**doc, "split": {"unit": "words",
                                                   "size": "x"}},
                     "split size must be an integer", id="split_size_text"),
        pytest.param(lambda doc: [doc], "must be a JSON object",
                     id="top_level_list"),
        pytest.param(lambda doc: {**doc, "attention_span": 1},
                     "attention_span must be an integer >= 2", id="span_1"),
        pytest.param(lambda doc: {**doc, "attention_span": "20"},
                     "attention_span must be an integer >= 2",
                     id="span_text"),
        pytest.param(lambda doc: {**doc, "attention_span": 2.5},
                     "attention_span must be an integer >= 2",
                     id="span_fraction"),
        pytest.param(lambda doc: {**doc, "split": 5},
                     "split must be a JSON object, got 5",
                     id="split_not_an_object"),
        pytest.param(lambda doc: {**doc, "categories": ["A"]},
                     "category 'A' is not a JSON object",
                     id="category_a_string"),
        pytest.param(lambda doc: {**doc, "categories": {"A": 1}},
                     "categories must be a list",
                     id="categories_an_object"),
        pytest.param(lambda doc: {**doc, "categories": [
            {**doc["categories"][0], "training_files": "a.txt"}]},
                     "training_files must be a list of file names, got "
                     "'a.txt'$", id="training_files_a_string"),
        pytest.param(lambda doc: {**doc, "categories": [
            {**doc["categories"][0], "test_files": [3]}]},
                     r"test_files must be a list of file names, got \[3\]",
                     id="test_file_not_a_name"),
        pytest.param(lambda doc: {**doc, "categories": [
            {**doc["categories"][0], "label": ["A"]}]},
                     r"bad category label \['A'\]", id="label_a_list"),
        pytest.param(lambda doc: {**doc, "tokenizer": ["words"]},
                     "unknown tokenizer", id="tokenizer_a_list"),
        pytest.param(lambda doc: {**doc, "name": 5},
                     "name must be a string", id="name_a_number"),
        pytest.param(lambda doc: {**doc, "categories": [
            {**doc["categories"][0], "training_files": ["."]}]},
                     "missing file", id="training_file_a_directory"),
    ])
    def test_malformed_fields_rejected(self, tmp_path, corrupt, message):
        doc = corrupt(valid_doc(tmp_path))
        with pytest.raises(CorpusError, match=message):
            load_manifest(write_manifest_doc(tmp_path, doc))

    def test_integer_attention_span_kept(self, tmp_path):
        doc = {**valid_doc(tmp_path), "attention_span": 2}
        manifest = load_manifest(write_manifest_doc(tmp_path, doc))
        assert manifest.attention_span == 2

    @pytest.mark.parametrize("command", ["train", "run-suite"])
    def test_span_below_min_fetch_rejected_before_training(self, tmp_path,
                                                           capsys, command):
        doc = {**valid_doc(tmp_path), "attention_span": 2}
        manifest = write_manifest_doc(tmp_path, doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_fetch": 3}), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--manifest", str(manifest), "--config",
                str(config), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: manifest attention_span 2 is below the "
                       "config's min_fetch 3\n")
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("content, message", [
        pytest.param(b"{\xff}", "is not UTF-8 text", id="not_utf8"),
        pytest.param(None, "cannot read manifest", id="directory"),
    ])
    def test_unreadable_manifest_rejected(self, tmp_path, content, message):
        path = tmp_path / "manifest.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(CorpusError, match=message):
            load_manifest(path)


# -- every mutation of a valid manifest loads or raises CorpusError ----------

def _manifest_sites(doc):
    """(container, key) for every value of the xor manifest a mutation may
    drop or replace with a value of another JSON kind."""
    sites = [(doc, key) for key in doc]
    sites += [(doc["split"], key) for key in doc["split"]]
    for i, category in enumerate(doc["categories"]):
        sites.append((doc["categories"], i))
        sites += [(category, key) for key in category]
        sites += [(category[key], j)
                  for key in ("training_files", "test_files")
                  for j in range(len(category[key]))]
    return sites


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_mutated_manifests_load_or_raise_corpus_error(tmp_path_factory,
                                                      data):
    corpus = tmp_path_factory.getbasetemp() / "xor-corpus"
    manifest = corpus / "manifest.json"
    if not manifest.exists():
        build_xor_manifest(corpus)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    container, key = data.draw(st.sampled_from(_manifest_sites(doc)))
    if data.draw(st.booleans()):
        del container[key]
    else:
        kind = _json_kind(container[key])
        container[key] = data.draw(_JSON_VALUES.filter(
            lambda v: _json_kind(v) != kind))
    mutated = corpus / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    try:
        loaded = load_manifest(mutated)
        load_training_samples(loaded)
        load_test_items(loaded)
    except CorpusError:
        pass
