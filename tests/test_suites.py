"""Built-in benchmark suites and their anchors."""

from pathlib import Path

from chunknet.config import RunConfig
from chunknet.suites import (FIVE_FOUR_REFERENCE, FIVE_FOUR_TRANSFER,
                             generate_occlusions, generate_synthetic_corpus,
                             run_five_four, run_occlusion, run_xor)
import random

from chunknet import corpus
from chunknet.corpus import load_manifest, load_training_samples


def test_xor_truth_table(tmp_path):
    report = run_xor(tmp_path, RunConfig())
    assert report.all_checks_pass
    assert report.result.correct_count == 4
    assert report.training.converged
    # rote structure: four visual chunks, two labels, four pure link pairs
    assert report.training.node_counts["visual"] == 5
    assert report.training.node_counts["verbal"] == 3


def test_five_four_anchor_and_sweep(tmp_path):
    report = run_five_four(tmp_path, RunConfig())
    assert report.checks["transfer_1000_is_A"]
    transfer = report.extras["transfer_labels"]
    assert set(transfer) == set(FIVE_FOUR_TRANSFER)
    assert all(v in ("A", "B") for v in transfer.values())
    modal = report.extras["sweep_modal_labels"]
    agreement = sum(modal[f] == FIVE_FOUR_REFERENCE[f]
                    for f in FIVE_FOUR_TRANSFER)
    assert report.extras["sweep_agreement"] == \
        f"{agreement}/{len(FIVE_FOUR_TRANSFER)}"


def test_five_four_reads_each_training_file_once(tmp_path, monkeypatch):
    # The canonical run and the 50 sweep replicas train from one loaded
    # set of samples: each training file is read and tokenized once.
    reads = []
    read_text = corpus.read_text

    def counted(path, *args):
        reads.append(Path(path).name)
        return read_text(path, *args)
    monkeypatch.setattr(corpus, "read_text", counted)
    run_five_four(tmp_path, RunConfig())
    assert reads
    assert sorted(reads) == ["A_train.txt", "B_train.txt"]


def test_occlusion_suite(tmp_path):
    report = run_occlusion(tmp_path, RunConfig())
    assert report.all_checks_pass
    by_id = {row.item_id: row for row in report.result.rows}
    for occluded in ("Liverpooz", "Lizerzool", "zLiverpool",
                     "zzzzLzverzool"):
        assert by_id[f"test_{occluded}"].predicted == "A"


def test_generated_occlusions_preserve_the_word():
    rng = random.Random(5)
    for occluded in generate_occlusions("Liverpool", 200, rng):
        # the full letter subsequence is intact
        it = iter(occluded)
        assert all(ch in it for ch in "Liverpool")
        noise = len(occluded) - len("Liverpool")
        assert noise / len(occluded) <= 0.5 + 1e-9


def test_synthetic_corpus_shape(tmp_path):
    manifest_path = generate_synthetic_corpus(tmp_path, seed=0)
    manifest = load_manifest(manifest_path)
    assert [c.label for c in manifest.categories] == ["alpha", "beta"]
    for category in manifest.categories:
        assert len(category.test_files) == 20
        stream = category.training_files[0].read_text(encoding="utf-8")
        assert len(stream) >= 9_000  # about 10 KB per stream
        assert len(stream) <= 10_000
    samples = load_training_samples(manifest)
    assert all(len(s.visual) <= 20 for s in samples)

    large = load_manifest(generate_synthetic_corpus(
        tmp_path / "large", seed=0, stream_bytes=100_000))
    for category in large.categories:
        size = category.training_files[0].stat().st_size
        assert 90_000 <= size <= 100_000  # about 100 KB per stream


def test_suite_runs_are_deterministic(tmp_path):
    digests = []
    for name in ("one", "two"):
        out = Path(tmp_path) / name
        report = run_xor(out, RunConfig(seed=3))
        rows = [(r.item_id, r.predicted,
                 tuple(r.classification.entries)) for r in report.result.rows]
        digests.append((rows, report.training.to_dict()))
    assert digests[0] == digests[1]
