"""Golden outputs of ``run-suite``, ``train`` and ``eval-metrics``: every
built-in suite at two seeds, with the corpus files each suite writes, manifest
mode and ``train`` on a synthetic corpus, and ``eval-metrics`` on the shipped
pairs file, run through ``cli.main`` with each output pinned by its sha256
prefix.

A change that alters a classification, a confidence, a training log, a
printed line or a snapshot byte fails here; a refactor of the
train-and-classify path must leave every hash as it is."""

import hashlib
from importlib import resources

import pytest

from chunknet.cli import main
from chunknet.suites import generate_synthetic_corpus


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode("utf-8")


# (suite, seed) -> results.csv, run.json, stdout; seed 3 prints the table.
SUITE_HASHES = {
    ("xor", 0): ("ddb7df1104fe0cf3", "5f04c25c74246e05", "61db4b56c7c0af23"),
    ("xor", 3): ("ddb7df1104fe0cf3", "b06177d1be8ccb32", "0a81cc2af9f2c26f"),
    ("five-four", 0): ("4c823dfa4830b46f", "ab68193d87c6f526",
                       "d296eae480f5414a"),
    ("five-four", 3): ("4c823dfa4830b46f", "3fadd52dc2d87d53",
                       "b6d5823e58e199dd"),
    ("occlusion", 0): ("8d9aa3e4eabcf064", "80a928eb66b225ae",
                       "98d38f777c77f19b"),
    ("occlusion", 3): ("8d9aa3e4eabcf064", "62e307959e9d9bfb",
                       "96f7b787bd53b41a"),
    ("synthetic", 0): ("6cd692a0d1a650ae", "2249d60ea6370487",
                       "32ad73e9115df593"),
    ("synthetic", 3): ("1aa3c9796935aa3e", "7f41cf26be5027f8",
                       "1fbd565f9e73f133"),
}


@pytest.mark.parametrize("suite, seed", sorted(SUITE_HASHES))
def test_suite_outputs(tmp_path, capsys, suite, seed):
    out = tmp_path / "out"
    argv = ["run-suite", "--suite", suite, "--seed", str(seed),
            "--out", str(out)]
    if seed == 3:
        argv += ["--format", "table"]
    stdout = run_cli(capsys, *argv)
    assert (digest((out / "results.csv").read_bytes()),
            digest((out / "run.json").read_bytes()),
            digest(stdout)) == SUITE_HASHES[suite, seed]


def tree_digest(root):
    """One digest over every file under ``root``, by relative path and
    bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                 .encode("utf-8"))
        h.update(data)
    return h.hexdigest()[:16]


# (suite, seed) -> digest of every file the suite writes under out/corpus,
# manifest.json included.
CORPUS_HASHES = {
    ("xor", 0): "8c24078574a7e0a2",
    ("five-four", 0): "0deaf98f206f100e",
    ("occlusion", 0): "d836015a8d6d6d25",
    ("synthetic", 0): "fd31d327fe2065b1",
    ("synthetic", 3): "9bc490d4b721de67",
}


@pytest.mark.parametrize("suite, seed", sorted(CORPUS_HASHES))
def test_suite_corpus_files(tmp_path, capsys, suite, seed):
    out = tmp_path / "out"
    run_cli(capsys, "run-suite", "--suite", suite, "--seed", str(seed),
            "--out", str(out))
    assert tree_digest(out / "corpus") == CORPUS_HASHES[suite, seed]


def test_eval_metrics_outputs(tmp_path, capsys):
    pairs = resources.files("chunknet.data") / "human_model_pairs.csv"
    out = tmp_path / "eval"
    stdout = run_cli(capsys, "eval-metrics", "--pairs", str(pairs),
                     "--out", str(out), "--trials", "122")
    assert (digest((out / "metrics.csv").read_bytes()),
            digest((out / "significance.csv").read_bytes()),
            digest(stdout)) == ("e0fedfdf1b2797c4", "b5d169a97361a0e5",
                                "b9e7d4f1a1e15398")


def test_manifest_mode_and_train_outputs(tmp_path, capsys):
    manifest = str(generate_synthetic_corpus(tmp_path / "corpus", seed=1))
    suite_out = tmp_path / "suite"
    stdout = run_cli(capsys, "run-suite", "--manifest", manifest,
                     "--out", str(suite_out))
    assert stdout == b"correct 30/40\n"
    table = run_cli(capsys, "run-suite", "--manifest", manifest,
                    "--out", str(tmp_path / "table"), "--format", "table")
    assert digest(table) == "be4cb3b656f58281"
    train_out = tmp_path / "train"
    run_cli(capsys, "train", "--manifest", manifest, "--out", str(train_out))
    # model.json was re-recorded for snapshot schema v4: the v3 file with
    # each row's id in front and each net's rows grouped into segments; and
    # again when each segment went on a line of its own, a tab before each
    # row, which leaves the document as it was; and for schema v5, which
    # adds each net's row count.
    assert {name: digest((suite_out / name).read_bytes())
            for name in ("model.json", "results.csv", "run.json")} == {
        "model.json": "2018e936b6415e10",
        "results.csv": "ccce25bb24c77caf",
        "run.json": "2d12c40b69170d28"}
    assert {name: digest((train_out / name).read_bytes())
            for name in ("model.json", "training.json", "config.json")} == {
        "model.json": "2018e936b6415e10",
        "training.json": "7a7d3c0ed39c67fe",
        "config.json": "1824966a915217ab"}


def test_five_four_reads_no_shuffle_from_the_config(tmp_path, capsys):
    # The suite fixes its own presentation orders, one unshuffled run and
    # then one shuffled replica per sweep seed, so a config that turns
    # shuffling off changes no output byte.
    config = tmp_path / "config.json"
    config.write_text('{"shuffle": false}', encoding="utf-8")
    outputs = []
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / f"out{len(outputs)}"
        stdout = run_cli(capsys, "run-suite", "--suite", "five-four",
                         "--out", str(out), *extra)
        outputs.append(((out / "results.csv").read_bytes(),
                        (out / "run.json").read_bytes(), stdout))
    assert outputs[0] == outputs[1]
    assert tuple(digest(data) for data in outputs[1]) == \
        SUITE_HASHES["five-four", 0]
