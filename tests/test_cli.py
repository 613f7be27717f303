"""End-to-end command-line behaviour and exit codes."""

import csv
import gc
import json
import re
from importlib import resources
from pathlib import Path

import pytest

from chunknet import cli, harness
from chunknet.cli import main
from chunknet.config import ConfigError, write_json
from chunknet.snapshot import load_memory, save_memory
from chunknet.suites import build_xor_manifest, generate_synthetic_corpus
from test_snapshot import V1_SNAPSHOT, V2_SNAPSHOT, V3_SNAPSHOT, \
    V4_SNAPSHOT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path():
    return str(resources.files("chunknet.data") / "human_model_pairs.csv")


class TestTrain:
    def test_xor_train_writes_model_and_log(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        out = tmp_path / "run"
        code, out_text, _ = run(capsys, "train", "--manifest", str(manifest),
                                "--out", str(out))
        assert code == 0
        assert (out / "model.json").exists()
        log = json.loads((out / "training.json").read_text())
        assert log["converged"]
        assert "converged" in out_text

    def test_bad_manifest_path_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--manifest",
                           str(tmp_path / "none.json"),
                           "--out", str(tmp_path / "o"))
        assert code == 2 and "error" in err

    def test_seed_repeat_gives_identical_snapshot_bytes(self, tmp_path,
                                                        capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(capsys, "train", "--manifest", str(manifest),
                             "--seed", "5", "--out", str(out))
            assert code == 0
            blobs.append((out / "model.json").read_bytes())
        assert blobs[0] == blobs[1]


    def test_no_shuffle_is_the_shuffle_false_config(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        config = tmp_path / "config.json"
        config.write_text('{"shuffle": false}', encoding="utf-8")
        for name, flag in (("flag", "--no-shuffle"),
                           ("file", f"--config={config}")):
            code, _, _ = run(capsys, "train", "--manifest", str(manifest),
                             flag, "--out", str(tmp_path / name))
            assert code == 0
        for name in ("model.json", "training.json", "config.json"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes(), name
        assert json.loads((tmp_path / "flag" / "config.json").read_text())[
            "shuffle"] is False


class TestCategorise:
    def _model(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        out = tmp_path / "run"
        run(capsys, "train", "--manifest", str(manifest), "--out", str(out))
        return out / "model.json"

    def test_truth_table_row(self, tmp_path, capsys):
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        code, out_text, _ = run(capsys, "categorise", "--model", str(model),
                                "--input", str(stim))
        assert code == 0
        assert out_text.splitlines()[0] == "T 1.000"

    def test_unknown_stimulus_exits_4(self, tmp_path, capsys):
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_text("7 7", encoding="utf-8")
        code, _, err = run(capsys, "categorise", "--model", str(model),
                           "--input", str(stim))
        assert code == 4 and "no-activation" in err

    def test_malformed_snapshot_exits_2(self, tmp_path, capsys):
        model = self._model(tmp_path, capsys)
        doc = json.loads(model.read_text())
        doc["networks"]["visual"]["segments"]["1"][0][1] = 999   # node 2
        model.write_text(json.dumps(doc))
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        code, out_text, err = run(capsys, "categorise", "--model",
                                  str(model), "--input", str(stim))
        assert code == 2 and out_text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "999" in err

    def test_a_span_past_the_stimulus_reads_as_its_length(self, tmp_path,
                                                           capsys):
        # A snapshot's span may be any integer of at least min_fetch; one
        # as long as the stimulus or longer gives the one whole window.
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0 1 1", encoding="utf-8")
        doc = json.loads(model.read_text(encoding="utf-8"))
        outs = []
        for span in (4, 10**30):
            doc["meta"]["attention_span"] = span
            model.write_text(json.dumps(doc), encoding="utf-8")
            code, out_text, _ = run(capsys, "categorise", "--model",
                                    str(model), "--input", str(stim))
            assert code == 0
            outs.append(out_text)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["categorise", "retrieve"])
    @pytest.mark.parametrize("content, message", [
        pytest.param(b" \n", "holds no tokens", id="empty"),
        pytest.param(b"1 \xff 0", "not UTF-8", id="not_utf8"),
    ])
    def test_unusable_input_exits_2(self, tmp_path, capsys, command,
                                    content, message):
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_bytes(content)
        code, out_text, err = run(capsys, command, "--model", str(model),
                                  "--input", str(stim))
        assert code == 2 and out_text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["categorise", "retrieve"])
    def test_input_directory_exits_2(self, tmp_path, capsys, command):
        model = self._model(tmp_path, capsys)
        code, out_text, err = run(capsys, command, "--model", str(model),
                                  "--input", str(tmp_path))
        assert code == 2 and out_text == ""
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["categorise", "retrieve",
                                         "inspect"])
    @pytest.mark.parametrize("case, message", [
        pytest.param("not_utf8", "is not UTF-8 text", id="not_utf8"),
        pytest.param("directory", "cannot read snapshot", id="directory"),
    ])
    def test_unreadable_model_exits_2(self, tmp_path, capsys, command, case,
                                      message):
        model = self._model(tmp_path, capsys)
        if case == "not_utf8":
            model.write_bytes(model.read_bytes() + b"\xff")
        else:
            model = model.parent
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        argv = [command, "--model", str(model)]
        if command != "inspect":
            argv += ["--input", str(stim)]
        code, out_text, err = run(capsys, *argv)
        assert code == 2 and out_text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_retrieve_prints_the_stored_chunk(self, tmp_path, capsys):
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        code, out_text, _ = run(capsys, "retrieve", "--model", str(model),
                                "--input", str(stim))
        assert code == 0
        assert out_text.strip() in ("1 0", "1 0 ".strip())

    @pytest.mark.parametrize("command, code, printed", [
        ("categorise", 4, ""), ("retrieve", 0, "\n")])
    def test_a_model_with_no_visual_net(self, tmp_path, capsys, command,
                                        code, printed):
        # Nothing is recognised: no activation, or an empty chunk.
        model = self._model(tmp_path, capsys)
        doc = json.loads(model.read_text())
        del doc["networks"]["visual"]
        model.write_text(json.dumps(doc))
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        assert run(capsys, command, "--model", str(model), "--input",
                   str(stim))[:2] == (code, printed)

    @pytest.mark.parametrize("command, code, printed", [
        ("categorise", 4, ""), ("retrieve", 0, "\n")])
    def test_a_visual_net_with_only_its_root(self, tmp_path, capsys, command,
                                            code, printed):
        # A net with no segments has only its root, which the code makes:
        # it recognises nothing.
        model = self._model(tmp_path, capsys)
        doc = json.loads(model.read_text())
        doc["networks"]["visual"] = {"clock_seconds": 0.0, "rows": 0,
                                     "segments": {}}
        model.write_text(json.dumps(doc))
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        assert run(capsys, command, "--model", str(model), "--input",
                   str(stim))[:2] == (code, printed)

    def test_calls_leave_no_garbage_and_no_objects_behind(self, tmp_path,
                                                          capsys):
        model = self._model(tmp_path, capsys)
        stim = tmp_path / "stim.txt"
        stim.write_text("1 0", encoding="utf-8")
        argv = ["categorise", "--model", str(model), "--input", str(stim)]
        assert main(argv) == 0      # warm-up: the shared parser is built
        capsys.readouterr()
        gc.collect()

        def tracked_after(calls):
            """Tracked objects after ``calls`` more calls and a collection,
            and the garbage that collection found."""
            for _ in range(calls):
                assert main(argv) == 0
            capsys.readouterr()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                garbage = len(gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            return len(gc.get_objects()), garbage

        # Counted after the collection: on Python 3.12 a gc.freeze() and
        # gc.unfreeze() pair leaves tracked tuples (about 7 a pair) that
        # the next collection untracks without finding garbage. Counted as
        # the growth from 10 to 60 calls: on Python 3.13 the count after
        # any number of calls is a few objects lower than before them, an
        # offset that would hide one object kept per call.
        after_10, garbage_10 = tracked_after(10)
        after_60, garbage_60 = tracked_after(50)
        assert garbage_10 == garbage_60 == 0
        assert after_60 - after_10 < 50


class TestSharedParser:
    # In order: an argparse failure, the table and then the csv format of
    # one suite, and --version twice.
    CALLS = (["categorise", "--input", "stim.txt"],
             ["run-suite", "--suite", "xor", "--format", "table",
              "--out", "{out}"],
             ["run-suite", "--suite", "xor", "--out", "{out}"],
             ["--version"],
             ["--version"])

    def _outcomes(self, tmp_path, capsys):
        """Exit code or SystemExit code, stdout, stderr, and the written
        results.csv and run.json of each call in CALLS."""
        outcomes = []
        for i, argv in enumerate(self.CALLS):
            out = tmp_path / str(i)
            try:
                code = main([arg.format(out=out) for arg in argv])
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            captured = capsys.readouterr()
            files = [(name, (out / name).read_bytes())
                     for name in ("results.csv", "run.json")
                     if (out / name).exists()]
            outcomes.append((code, captured.out, captured.err, files))
        return outcomes

    def test_calls_share_one_parser_and_carry_no_state(self, tmp_path,
                                                       capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = self._outcomes(tmp_path / "shared", capsys)
        monkeypatch.setattr(cli, "build_parser",
                            cli.build_parser.__wrapped__)
        fresh = self._outcomes(tmp_path / "fresh", capsys)
        assert shared == fresh
        failure, table, plain, version, again = shared
        assert failure[0] == "SystemExit 2"
        assert "required: --model" in failure[2]
        assert table[0] == plain[0] == 0
        assert table[1].startswith("item\t") and "correct 4/4" in table[1]
        assert "item\t" not in plain[1] and "check " in plain[1]
        assert [name for name, _ in plain[3]] == ["results.csv", "run.json"]
        assert plain[3] == table[3]
        assert version == again
        assert version[0] == "SystemExit 0"
        assert version[1].startswith("chunknet ")


class TestRunSuite:
    def test_xor_check_passes(self, tmp_path, capsys):
        code, out_text, _ = run(capsys, "run-suite", "--suite", "xor",
                                "--out", str(tmp_path / "xor"), "--check")
        assert code == 0
        assert "check truth_table_4_of_4: pass" in out_text
        results = (tmp_path / "xor" / "results.csv").read_text()
        assert "predicted" in results

    def test_manifest_mode(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        code, out_text, _ = run(capsys, "run-suite", "--manifest",
                                str(manifest), "--out",
                                str(tmp_path / "m"), "--format", "table")
        assert code == 0
        assert "correct 4/4" in out_text

    def test_results_csv_deterministic(self, tmp_path, capsys):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run(capsys, "run-suite", "--suite", "occlusion",
                             "--seed", "4", "--out", str(out))
            assert code == 0
            blobs.append(((out / "results.csv").read_bytes(),
                          (out / "run.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_manifest_attention_span_reaches_classification(self, tmp_path,
                                                            capsys):
        manifest = generate_synthetic_corpus(tmp_path / "corpus", seed=1)
        code, _, _ = run(capsys, "run-suite", "--manifest", str(manifest),
                         "--out", str(tmp_path / "span20"))
        assert code == 0
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["attention_span"] = 4
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "span4"
        code, _, _ = run(capsys, "run-suite", "--manifest", str(manifest),
                         "--out", str(out))
        assert code == 0
        rows, default = (
            list(csv.DictReader(path.read_text(encoding="utf-8")
                                .splitlines()))
            for path in (out / "results.csv",
                         tmp_path / "span20" / "results.csv"))
        assert rows != default  # the span changes some classification
        labels = ("alpha", "beta")
        for row in rows:
            stimulus = manifest.parent / f"{row['item']}.txt"
            code, out_text, _ = run(capsys, "categorise", "--model",
                                    str(out / "model.json"),
                                    "--input", str(stimulus))
            printed = dict(line.split() for line in out_text.splitlines())
            if row["predicted"] == "no-activation":
                assert code == 4 and printed == {}
                continue
            assert code == 0
            assert out_text.split()[0] == row["predicted"]
            for label in labels:
                assert abs(float(printed.get(label, 0.0))
                           - float(row[label])) <= 5e-4 + 1e-9


class TestEvalMetrics:
    def test_reference_fixture_reproduces_published_totals(self, tmp_path,
                                                           capsys):
        out = tmp_path / "eval"
        code, out_text, _ = run(capsys, "eval-metrics", "--pairs",
                                fixture_path(), "--out", str(out),
                                "--trials", "122")
        assert code == 0
        assert ("identical=15 both_match=27 tops_match=48 "
                "one_matches_top=77 single_match=107") in out_text
        with open(out / "significance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["significant"] == "true" for r in rows)
        assert all(r["n"] == "122" for r in rows)
        metrics_rows = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics_rows) == 124  # header + 123 comparisons

    def test_single_identical_pair_row(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "participant,item,human_top,human_second,model_top,model_second\n"
            "P1,x,Bach,Mozart,Bach,Mozart\n", encoding="utf-8")
        out = tmp_path / "eval"
        code, out_text, _ = run(capsys, "eval-metrics", "--pairs",
                                str(pairs), "--out", str(out))
        assert code == 0
        body = (out / "metrics.csv").read_text().splitlines()[1]
        assert body.endswith("1,1,1,1,1")

    def test_empty_fixture_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("participant,item,human_top,model_top\n",
                         encoding="utf-8")
        code, _, err = run(capsys, "eval-metrics", "--pairs", str(pairs),
                           "--out", str(tmp_path / "e"))
        assert code == 2 and "error" in err


class TestInspect:
    def test_reports_node_and_link_counts(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        out = tmp_path / "run"
        run(capsys, "train", "--manifest", str(manifest), "--out", str(out))
        code, out_text, _ = run(capsys, "inspect", "--model",
                                str(out / "model.json"), "--nodes")
        assert code == 0
        assert "[visual] nodes=5" in out_text

    def test_a_snapshot_without_meta_names_its_default_tokenizer(
            self, tmp_path, capsys):
        memory, _ = load_memory(_xor_model(tmp_path))
        model = tmp_path / "bare.json"
        save_memory(model, memory)
        assert json.loads(model.read_text())["meta"] == {}
        capsys.readouterr()
        code, out_text, _ = run(capsys, "inspect", "--model", str(model))
        assert code == 0
        assert out_text.startswith("snapshot schema v5; tokenizer words; "
                                   "label modality verbal\n")
        # categorise tokenizes the same file with that tokenizer
        code, out_text, _ = run(capsys, *_query(tmp_path, model))
        assert code == 0 and out_text.startswith("T ")

    def test_old_snapshot_rejected(self, tmp_path, capsys):
        manifest = build_xor_manifest(tmp_path / "corpus")
        out = tmp_path / "run"
        run(capsys, "train", "--manifest", str(manifest), "--out", str(out))
        doc = json.loads((out / "model.json").read_text())
        doc["schema_version"] = 0
        (out / "model.json").write_text(json.dumps(doc))
        code, _, err = run(capsys, "inspect", "--model",
                           str(out / "model.json"))
        assert code == 2 and "schema_version" in err


# -- every bad input: its exit code and one error line -----------------------

def _xor_manifest(tmp_path):
    return build_xor_manifest(tmp_path / "corpus")


def _xor_model(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(_xor_manifest(tmp_path)),
                 "--out", str(out)]) == 0
    return out / "model.json"


def _query(tmp_path, model, command="categorise", stimulus=b"1 0"):
    argv = [command, "--model", str(model)]
    if command != "inspect":
        stim = tmp_path / "stim.txt"
        stim.write_bytes(stimulus)
        argv += ["--input", str(stim)]
    return argv


def _model_edit(change, command="categorise"):
    """A query on a trained xor model whose document ``change`` edits."""
    def setup(tmp_path):
        model = _xor_model(tmp_path)
        doc = json.loads(model.read_text())
        change(doc)
        model.write_text(json.dumps(doc))
        return _query(tmp_path, model, command)
    return setup


def _meta(field, value, command="categorise"):
    return _model_edit(lambda doc: doc["meta"].update({field: value}),
                       command)


def _bad_input(stimulus):
    def setup(tmp_path):
        return _query(tmp_path, _xor_model(tmp_path), stimulus=stimulus)
    return setup


def _input_directory(tmp_path):
    return ["categorise", "--model", str(_xor_model(tmp_path)),
            "--input", str(tmp_path)]


def _bad_manifest(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{", encoding="utf-8")
    return ["train", "--manifest", str(manifest), "--out", str(tmp_path)]


def _nan_manifest(tmp_path):
    """An xor manifest holding NaN under a key the loader ignores."""
    manifest = _xor_manifest(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["note"] = float("nan")
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    return ["train", "--manifest", str(manifest), "--out",
            str(tmp_path / "out")]


def _manifest_field(field, value):
    """An xor manifest whose ``field`` holds ``value``."""
    def setup(tmp_path):
        manifest = _xor_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        doc[field] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        return ["train", "--manifest", str(manifest), "--out",
                str(tmp_path / "out")]
    return setup


def _config_file(text, command="train"):
    def setup(tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        return [command, "--manifest", str(_xor_manifest(tmp_path)),
                "--config", str(config), "--out", str(tmp_path / "out")]
    return setup


def _config_directory(command):
    def setup(tmp_path):
        return [command, "--manifest", str(_xor_manifest(tmp_path)),
                "--config", str(tmp_path), "--out", str(tmp_path / "out")]
    return setup


def _old_snapshot(doc):
    def setup(tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        return _query(tmp_path, model)
    return setup


def _array_snapshot(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps([V1_SNAPSHOT]), encoding="utf-8")
    return _query(tmp_path, model)


def _deep_snapshot(tmp_path):
    """A query on a model file of 200,000 nested arrays."""
    model = tmp_path / "deep.json"
    model.write_text("[" * 200_000, encoding="utf-8")
    return _query(tmp_path, model)


def _deep_manifest(tmp_path):
    """A train run on a manifest of 100,000 nested objects."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"a":' * 100_000, encoding="utf-8")
    return ["train", "--manifest", str(manifest), "--out",
            str(tmp_path / "out")]


def _non_utf8_data_file(name, command):
    def setup(tmp_path):
        manifest = _xor_manifest(tmp_path)
        with open(manifest.parent / name, "ab") as fh:
            fh.write(b"\xff\n")
        return [command, "--manifest", str(manifest), "--out",
                str(tmp_path / "o")]
    return setup


def _blank_training_files(command):
    """A ``command`` run on an xor manifest whose two training files hold
    only whitespace."""
    def setup(tmp_path):
        manifest = _xor_manifest(tmp_path)
        for label in ("T", "F"):
            (manifest.parent / f"{label}_train.txt").write_text(
                " \n\t\n", encoding="utf-8")
        return [command, "--manifest", str(manifest), "--out",
                str(tmp_path / "o")]
    return setup


def _pairs(data, *options):
    """An eval-metrics run on a pairs file holding ``data``."""
    def setup(tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(data)
        return ["eval-metrics", "--pairs", str(pairs), "--out",
                str(tmp_path / "eval"), *options]
    return setup


IDENTICAL_PAIRS = (b"human_top,human_second,model_top,model_second\n"
                   b"Bach,Mozart,Bach,Mozart\nBach,Mozart,Bach,Mozart\n")


def _missing_input(tmp_path):
    return ["categorise", "--model", str(_xor_model(tmp_path)),
            "--input", str(tmp_path / "missing.txt")]


def _pairs_directory(tmp_path):
    return ["eval-metrics", "--pairs", str(tmp_path), "--out",
            str(tmp_path / "eval")]


def _missing_pairs(tmp_path):
    return ["eval-metrics", "--pairs", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "eval")]


def _out_file(command):
    """A ``command`` run whose ``--out`` names an existing file."""
    def setup(tmp_path):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        if command == "eval-metrics":
            return [command, "--pairs", fixture_path(), "--out", str(out)]
        if command == "run-suite":
            return [command, "--suite", "xor", "--out", str(out)]
        return [command, "--manifest", str(_xor_manifest(tmp_path)),
                "--out", str(out)]
    return setup


def _out_entry_taken(command, name, kind="directory"):
    """A ``command`` run whose output path ``name`` under ``--out`` is
    taken by a directory or a file of that name, so that writing there
    fails once the work is done."""
    def setup(tmp_path):
        argv = _out_file(command)(tmp_path)
        out = tmp_path / "out"
        taken = out / name
        taken.parent.mkdir(parents=True)
        if kind == "directory":
            taken.mkdir()
        else:
            taken.write_text("", encoding="utf-8")
        return [*argv[:-1], str(out)]
    return setup


def _blank_test_file(tmp_path):
    """A run-suite on an xor manifest whose test file ``test_10.txt``
    holds only whitespace."""
    manifest = _xor_manifest(tmp_path)
    (manifest.parent / "test_10.txt").write_text(" \n", encoding="utf-8")
    return ["run-suite", "--manifest", str(manifest), "--out",
            str(tmp_path / "o")]


def _set_parent(doc):
    # node 2, the first row of segment "1", which the stimulus "1 0" reaches
    doc["networks"]["visual"]["segments"]["1"][0][1] = 999


def _root_row(doc):
    doc["networks"]["visual"]["segments"]["1"].insert(
        0, [0, None, "", "", False, {}])


def _negative_clock(doc):
    doc["networks"]["visual"]["clock_seconds"] = -5


@pytest.mark.parametrize("setup, code, message", [
    pytest.param(_bad_manifest, 2, "manifest is not valid JSON",
                 id="bad_manifest"),
    pytest.param(_nan_manifest, 2,
                 "manifest is not valid JSON: NaN is not a JSON value",
                 id="manifest_nan"),
    pytest.param(_deep_manifest, 2, "manifest is not valid JSON: maximum "
                 "recursion depth exceeded", id="manifest_nested_too_deeply"),
    pytest.param(_deep_snapshot, 2, "snapshot is not valid JSON: maximum "
                 "recursion depth exceeded", id="snapshot_nested_too_deeply"),
    pytest.param(_config_file("[" * 200_000), 2, "config is not valid JSON: "
                 "maximum recursion depth exceeded",
                 id="config_nested_too_deeply"),
    *(pytest.param(_manifest_field("name", name), 2,
                   f"name must be a string of one or more characters, got "
                   f"{re.escape(repr(name))}$", id=f"manifest_name_{id_}")
      for name, id_ in ((0, "0"), (False, "false"), ([], "list"),
                        ({}, "object"), ("", "empty"), (None, "null"))),
    # JSON true and 1.0 equal 1 in Python, and neither is version 1.
    *(pytest.param(_manifest_field("schema_version", version), 2,
                   f"unsupported manifest schema_version {version!r} "
                   r"\(expected 1\)$", id=f"manifest_version_{id_}")
      for version, id_ in ((True, "true"), (1.0, "1.0"))),
    pytest.param(_config_file('{"stm_sizes": 5}'), 2, "stm_sizes",
                 id="bad_config"),
    pytest.param(_model_edit(_set_parent), 2, "node 2 names parent 999",
                 id="snapshot_bad_parent"),
    pytest.param(_model_edit(_root_row, "retrieve"), 2,
                 "'visual' net: node 0 field 'parent' holds None",
                 id="snapshot_root_row"),
    pytest.param(_model_edit(_negative_clock, "inspect"), 2,
                 "'visual' net field 'clock_seconds' must be a finite number "
                 ">= 0, got -5$", id="snapshot_negative_clock_inspect"),
    pytest.param(_old_snapshot(V1_SNAPSHOT), 2, "retrain the model",
                 id="v1_snapshot"),
    pytest.param(_old_snapshot(V2_SNAPSHOT), 2, "retrain the model",
                 id="v2_snapshot"),
    pytest.param(_old_snapshot(V3_SNAPSHOT), 2, "snapshot schema_version 3 "
                 r"is not supported \(this build reads version 5\); retrain "
                 "the model with 'chunknet train'$", id="v3_snapshot"),
    pytest.param(_old_snapshot(V4_SNAPSHOT), 2, "snapshot schema_version 4 "
                 r"is not supported \(this build reads version 5\); retrain "
                 "the model with 'chunknet train'$", id="v4_snapshot"),
    pytest.param(_array_snapshot, 2, "snapshot must be a JSON object",
                 id="array_snapshot"),
    pytest.param(_meta("config", 5), 2, "'config' holds 5",
                 id="meta_config_a_number"),
    pytest.param(_meta("config", 5, "retrieve"), 2, "'config' holds 5",
                 id="meta_config_a_number_retrieve"),
    pytest.param(_meta("config", 5, "inspect"), 2, "'config' holds 5",
                 id="meta_config_a_number_inspect"),
    pytest.param(_config_file('{"stm_size": "x"}'), 2,
                 "config.json: config field 'stm_size' must be an integer, "
                 "got 'x'", id="config_text_for_int"),
    pytest.param(_config_file('{"max_epochs": 2.5}', "run-suite"), 2,
                 "config.json: config field 'max_epochs' must be an integer, "
                 "got 2.5", id="config_float_for_int"),
    pytest.param(_config_file('{"seed": true}'), 2,
                 "config.json: config field 'seed' must be an integer, "
                 "got True", id="config_bool_for_int"),
    pytest.param(_config_file('{"shuffle": "no"}'), 2,
                 "config.json: config field 'shuffle' must be true or false, "
                 "got 'no'", id="config_text_for_bool"),
    pytest.param(_config_file('{"seconds_per_update": "2"}'), 2,
                 "config.json: config field 'seconds_per_update' must be a "
                 "number, got '2'", id="config_text_for_float"),
    pytest.param(_config_file('{"stm_pairing": 1}'), 2,
                 "config.json: config field 'stm_pairing' must be a string, "
                 "got 1", id="config_int_for_str"),
    *(pytest.param(_config_file(json.dumps({field: value})), 2, message,
                   id=f"config_range_{field}")
      for field, value, message in (
          ("stm_size", 12, r"stm_size must be in \[2, 9\], got 12$"),
          ("chunk_probability", 1.5,
           r"chunk_probability must be in \[0, 1\]$"),
          ("attention_span", 1, "attention_span must be >= 2$"),
          ("attention_step", 0, "attention_step must be >= 1$"),
          ("min_fetch", 30, "need 2 <= min_fetch <= attention_span$"),
          ("stm_pairing", "diagonal", "unknown stm_pairing 'diagonal'$"),
          ("link_weighting", "additive",
           "unknown link_weighting 'additive'$"),
          ("max_epochs", 0,
           "max_epochs and node_ceiling_factor must be >= 1$"))),
    pytest.param(_config_file('{"max_epochs": 1}'), 3,
                 "no convergence within 1 epochs$", id="no_convergence"),
    pytest.param(_config_file('{"max_epochs": 1}', "run-suite"), 3,
                 "no convergence within 1 epochs$",
                 id="no_convergence_run_suite"),
    pytest.param(_config_file('{"seconds_per_update": -5}'), 2,
                 "config.json: config field 'seconds_per_update' must be a "
                 "finite number >= 0, got -5", id="config_negative_seconds"),
    pytest.param(_config_file('{"seconds_per_new_chunk": 1e999}'), 2,
                 "config.json: config field 'seconds_per_new_chunk' must be a "
                 "finite number >= 0, got inf", id="config_seconds_overflow"),
    pytest.param(_config_file('{"seconds_per_new_chunk": 1%s}' % ("0" * 400)),
                 2, "config.json: config field 'seconds_per_new_chunk' must be "
                 r"a finite number >= 0, got 10{17}\.\.\.0{19}$",
                 id="config_seconds_past_the_largest_float"),
    # the simulated clock overflows to an infinity: training stops at the
    # end of that epoch
    *(pytest.param(_config_file('{"seconds_per_new_chunk": 1e308}', command),
                   2, r"error: the simulated clock overflowed in epoch 1; "
                   r"seconds_per_new_chunk 1e\+308 and seconds_per_update 2 "
                   r"are too large$",
                   id=f"clock_overflow_{id_}")
      for command, id_ in (("train", "train"), ("run-suite", "run_suite"))),
    pytest.param(_config_file('{"bogus": 1}'), 2,
                 r"^error: unknown config keys: \['bogus'\]$",
                 id="config_unknown_key"),
    pytest.param(_config_file('{"seconds_per_new_chunk": NaN}'), 2,
                 "config is not valid JSON: NaN is not a JSON value",
                 id="config_nan"),
    pytest.param(_config_file('{"seconds_per_update": -Infinity}',
                              "run-suite"), 2,
                 "config is not valid JSON: -Infinity is not a JSON value",
                 id="config_minus_infinity"),
    pytest.param(_config_file(b'{"seed": 1}\xff'), 2,
                 r"config .*config\.json is not UTF-8 text",
                 id="config_not_utf8"),
    pytest.param(_config_directory("train"), 2,
                 "cannot read config .*: Is a directory",
                 id="config_directory_train"),
    pytest.param(_config_directory("run-suite"), 2,
                 "cannot read config .*: Is a directory",
                 id="config_directory_run_suite"),
    pytest.param(_meta("config", {"seconds_per_update": -1}, "inspect"), 2,
                 "meta field 'config': config field 'seconds_per_update' must "
                 "be a finite number >= 0, got -1",
                 id="meta_config_negative_seconds"),
    pytest.param(_meta("config", {"seconds_per_new_chunk": float("nan")}), 2,
                 "snapshot is not valid JSON: NaN is not a JSON value",
                 id="meta_config_nan"),
    pytest.param(_meta("config", {"seconds_per_update": float("inf")},
                       "retrieve"), 2,
                 "snapshot is not valid JSON: Infinity is not a JSON value",
                 id="meta_config_infinity"),
    pytest.param(_meta("config", {"stm_size": "x"}), 2,
                 "meta field 'config': config field 'stm_size' must be an "
                 "integer, got 'x'", id="meta_config_bad_value"),
    pytest.param(_meta("config", {"max_epochs": 2.5}, "inspect"), 2,
                 "meta field 'config': config field 'max_epochs' must be an "
                 "integer, got 2.5", id="meta_config_float_for_int"),
    pytest.param(_meta("config", {"shuffle": "no"}, "retrieve"), 2,
                 "meta field 'config': config field 'shuffle' must be true "
                 "or false, got 'no'", id="meta_config_text_for_bool"),
    pytest.param(_meta("config", {"bogus": 1}, "inspect"), 2,
                 r"^error: snapshot meta field 'config': unknown config "
                 r"keys: \['bogus'\]$", id="meta_config_unknown_key"),
    pytest.param(_meta("config", {"link_weighting": None}), 2,
                 "meta field 'config': config field 'link_weighting' must be "
                 "a string, got None", id="meta_config_null_for_str"),
    pytest.param(_meta("tokenizer", ["words"]), 2,
                 r"'tokenizer' holds \['words'\]", id="meta_tokenizer_a_list"),
    pytest.param(_meta("tokenizer", "phonemes"), 2,
                 "'tokenizer' holds 'phonemes'", id="meta_tokenizer_unknown"),
    pytest.param(_meta("attention_span", "x"), 2,
                 "'attention_span' holds 'x'", id="meta_span_text"),
    pytest.param(_meta("attention_span", 1), 2,
                 "'attention_span' holds 1", id="meta_span_1"),
    pytest.param(_meta("attention_span", 0), 2,
                 "'attention_span' holds 0", id="meta_span_0"),
    pytest.param(_meta("attention_span", True), 2,
                 "'attention_span' holds True", id="meta_span_true"),
    pytest.param(_non_utf8_data_file("T_train.txt", "train"), 2,
                 "T_train.txt is not UTF-8 text", id="train_file_not_utf8"),
    pytest.param(_non_utf8_data_file("T_train.txt", "run-suite"), 2,
                 "T_train.txt is not UTF-8 text",
                 id="train_file_not_utf8_run_suite"),
    pytest.param(_non_utf8_data_file("test_10.txt", "run-suite"), 2,
                 "test_10.txt is not UTF-8 text",
                 id="test_file_not_utf8_run_suite"),
    pytest.param(_blank_training_files("train"), 2,
                 "manifest 'xor' has no training samples$",
                 id="train_files_blank"),
    pytest.param(_blank_training_files("run-suite"), 2,
                 "manifest 'xor' has no training samples$",
                 id="train_files_blank_run_suite"),
    pytest.param(_blank_test_file, 2, r"test file is empty: .*test_10\.txt$",
                 id="test_file_empty_run_suite"),
    pytest.param(_bad_input(b" \n"), 2, "holds no tokens", id="input_empty"),
    pytest.param(_bad_input(b"1 \xff 0"), 2, "not UTF-8", id="input_not_utf8"),
    pytest.param(_input_directory, 2, "cannot read", id="input_directory"),
    pytest.param(_missing_input, 2, r"input not found: .*missing\.txt",
                 id="input_missing"),
    pytest.param(_pairs(b"human_top,model_top\n\xff,B\n"), 2,
                 "pairs.csv is not UTF-8 text", id="pairs_not_utf8"),
    pytest.param(_pairs(b"human_top,human_second\nBach,Mozart\n"), 2,
                 "pairs.csv: need columns human_top/model_top",
                 id="pairs_without_model_top"),
    pytest.param(_pairs(b"human_top,model_top\nBach," + b"x" * 140_000
                        + b"\n"), 2,
                 r"pairs\.csv line 2: field larger than field limit "
                 r"\(131072\)$", id="pairs_field_past_the_csv_limit"),
    pytest.param(_pairs_directory, 2, "cannot read .*: Is a directory",
                 id="pairs_directory"),
    pytest.param(_missing_pairs, 2, r"pairs file not found: .*missing\.csv",
                 id="pairs_missing"),
    pytest.param(_pairs(b"human_top,model_top\n,\n,\n"), 2,
                 "pairs.csv line 2: human_top or model_top is empty",
                 id="pairs_blank_rows"),
    pytest.param(_pairs(b"human_top,model_top\nBach,Bach\n,Bach\n"), 2,
                 "pairs.csv line 3: human_top or model_top is empty",
                 id="pairs_blank_human_top"),
    pytest.param(_pairs(IDENTICAL_PAIRS + b"Bach\n"), 2,
                 "pairs.csv line 4: human_top or model_top is empty",
                 id="pairs_short_row"),
    pytest.param(_pairs(IDENTICAL_PAIRS + b"Bach,Bach,Bach,Mozart\n"), 2,
                 "pairs.csv line 4: second choice must differ from the top "
                 "choice", id="pairs_second_repeats_top"),
    pytest.param(_pairs(IDENTICAL_PAIRS, "--labels", "1"), 2,
                 "--labels must be at least 2, got 1", id="labels_1"),
    pytest.param(_pairs(IDENTICAL_PAIRS, "--trials", "-3"), 2,
                 "--trials must be at least 1, got -3", id="trials_negative"),
    pytest.param(_pairs(IDENTICAL_PAIRS, "--trials", "0"), 2,
                 "--trials must be at least 1, got 0", id="trials_0"),
    pytest.param(_pairs(IDENTICAL_PAIRS, "--trials", "1"), 2,
                 "--trials 1 is below the identical total 2$",
                 id="trials_below_a_total"),
    pytest.param(_pairs(b"human_top,human_second,model_top,model_second\n"
                        + b"Bach,Mozart,Bach,Haydn\n" * 3, "--trials", "2"),
                 2, "--trials 2 is below the tops_match total 3$",
                 id="trials_below_the_tops_match_total"),
    pytest.param(_out_file("train"), 2,
                 "cannot create output directory .*taken: File exists",
                 id="out_file_train"),
    pytest.param(_out_file("run-suite"), 2,
                 "cannot create output directory .*taken: File exists",
                 id="out_file_run_suite"),
    pytest.param(_out_file("eval-metrics"), 2,
                 "cannot create output directory .*taken: File exists",
                 id="out_file_eval_metrics"),
    *(pytest.param(_out_entry_taken(command, name), 2,
                   f"cannot write output file .*out/{re.escape(name)}: Is a "
                   f"directory$", id=f"out_{id_}_a_directory")
      for command, name, id_ in (
          ("train", "model.json", "model_json"),
          ("train", "training.json", "training_json"),
          ("run-suite", "results.csv", "results_csv"),
          ("eval-metrics", "metrics.csv", "metrics_csv"),
          ("run-suite", "corpus/T_train.txt", "suite_training_file"))),
    pytest.param(_out_entry_taken("run-suite", "corpus", "file"), 2,
                 "cannot create output directory .*out/corpus: File exists$",
                 id="out_suite_corpus_a_file"),
])
def test_exit_code_table(tmp_path, capsys, setup, code, message):
    argv = setup(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert re.search(message, captured.err)


def test_no_output_file_holds_nan_or_an_infinity(tmp_path, capsys):
    argv = _config_file('{"seconds_per_new_chunk": 1e308}')(tmp_path)
    assert main(argv) == 2
    assert list((tmp_path / "out").iterdir()) == []
    for value in (float("inf"), float("-inf"), float("nan")):
        path = tmp_path / "training.json"
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot write output file {path}: Out of range float "
                f"values are not JSON compliant: {value!r}")):
            write_json(path, {"simulated_time_seconds": [1.5, value]})
        assert not path.exists()


def test_a_suite_whose_clock_overflows_writes_only_its_corpus(tmp_path,
                                                              capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seconds_per_new_chunk": 1e308}', encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "run-suite", "--suite", "xor",
                            "--config", str(config), "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: the simulated clock overflowed in epoch 1;")
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["corpus"]


def test_a_measure_split_of_a_non_music_stream_exits_2(tmp_path, capsys):
    manifest = _xor_manifest(tmp_path)     # the logic_bits tokenizer
    doc = json.loads(manifest.read_text())
    doc["split"] = {"unit": "measures", "size": 1}
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "train", "--manifest", str(manifest),
                            "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == "error: measure splitting needs a music token stream\n"
    assert list(out.iterdir()) == []


def test_a_failed_suite_check_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"chunk_probability": 0}', encoding="utf-8")
    code, out, err = run(capsys, "run-suite", "--suite", "xor", "--config",
                         str(config), "--out", str(tmp_path / "out"),
                         "--check")
    assert code == 1 and err == ""
    assert "check truth_table_4_of_4: FAIL\n" in out


def test_int_config_values_load_where_numbers_are_expected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"chunk_probability": 1, "seconds_per_update": 3}',
                      encoding="utf-8")
    code, _, err = run(capsys, "run-suite", "--suite", "xor", "--config",
                       str(config), "--out", str(tmp_path / "out"), "--check")
    assert code == 0 and err == ""


def test_bad_test_file_exits_2_before_training(tmp_path, capsys,
                                               monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the test files "
                             "were read")
    # manifest mode trains through harness.train_and_evaluate
    monkeypatch.setattr(harness, "train", no_training)
    argv = _non_utf8_data_file("test_10.txt", "run-suite")(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "test_10.txt is not UTF-8" in err
    assert not (tmp_path / "o" / "model.json").exists()


def test_out_file_exits_2_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started before --out was checked")
    monkeypatch.setattr(cli, "train", no_training)
    code, out, err = run(capsys, *_out_file("train")(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot create output directory")
