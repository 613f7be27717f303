"""Golden outputs of ``run-suite`` and ``train``: every built-in suite at
two seeds, and manifest mode and ``train`` on a synthetic corpus, run
through ``cli.main`` with each output pinned by its sha256 prefix.

A change that alters a classification, a confidence, a training log, a
printed line or a snapshot byte fails here; a refactor of the
train-and-classify path must leave every hash as it is."""

import hashlib

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
    assert {name: digest((suite_out / name).read_bytes())
            for name in ("model.json", "results.csv", "run.json")} == {
        "model.json": "ec8c7d3afcfb618d",
        "results.csv": "ccce25bb24c77caf",
        "run.json": "2d12c40b69170d28"}
    assert {name: digest((train_out / name).read_bytes())
            for name in ("model.json", "training.json", "config.json")} == {
        "model.json": "ec8c7d3afcfb618d",
        "training.json": "7a7d3c0ed39c67fe",
        "config.json": "1824966a915217ab"}
