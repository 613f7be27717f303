"""Tests of the benchmark's own machinery (inputs, statistics, tracing,
normalisation). Run with ``PYTHONPATH=src python -m pytest bench``."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

import inputs
import layers
from benchmark import inputs_fingerprint
from hostspeed import HostMeter, Timing
from percentiles import TooFewSamples, min_samples, percentile
from spans import Tracer
from workloads import FiveFourSweep, Run

BENCH = Path(__file__).resolve().parent


def _corpus_fingerprint(tmp_path: Path, name: str, seed: int) -> str:
    corpus = inputs.phrase_corpus("build-and-query", seed, 2_000, 6, 5, 9)
    corpus.write(tmp_path / name)
    corpus.write_items(tmp_path / name)
    return inputs_fingerprint(tmp_path / name)


def _five_four_fingerprint(tmp_path: Path, name: str, seed: int) -> str:
    workload = FiveFourSweep(seed)
    workload.REPLICAS = 3
    run = Run(HostMeter())
    state = workload.setup(run, tmp_path / name)
    outcome = workload.round(run, state, 0)
    assert run.failed == 0
    return hashlib.sha256("\n".join(outcome.predictions).encode()).hexdigest()


def test_same_seed_same_inputs_and_fingerprints(tmp_path):
    assert _corpus_fingerprint(tmp_path, "a", 3) == \
        _corpus_fingerprint(tmp_path, "b", 3)
    assert _five_four_fingerprint(tmp_path, "a", 3) == \
        _five_four_fingerprint(tmp_path, "b", 3)


def test_different_seed_different_inputs(tmp_path):
    assert _corpus_fingerprint(tmp_path, "a", 3) != \
        _corpus_fingerprint(tmp_path, "b", 4)
    assert inputs.five_four_seeds(3, 20) != inputs.five_four_seeds(4, 20)


def test_corpus_shape():
    corpus = inputs.phrase_corpus("classify-long", 0, 10_000, 8, 20, 120)
    for words in corpus.streams.values():
        assert len(" ".join(words)) + 1 == 10_000
    assert [len(item.words) for item in corpus.items] == \
        [20, 34, 48, 62, 77, 91, 105, 120]
    assert [item.label for item in corpus.items[:2]] == list(inputs.LABELS)
    # every seed trains the same model and asks it different questions
    other = inputs.phrase_corpus("classify-long", 1, 10_000, 8, 20, 120)
    assert other.streams == corpus.streams
    assert other.items != corpus.items


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)
    assert percentile(range(200), 95) == 189
    with pytest.raises(TooFewSamples):
        percentile(range(199), 95)
    assert min_samples(90) == 100
    assert min_samples(95) == 200


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = Tracer(clock=lambda: next(ticks))

    def a():
        tracer.call("b", lambda: None)

    def root():
        tracer.call("a", a)
        tracer.call("c", lambda: None)

    tracer.call("root", root)
    assert tracer.self_times() == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.durations("a") == [3]


def test_patch_reaches_every_binding_and_restores():
    from chunknet import network, patterns
    original = patterns.difference
    tracer = Tracer()
    layers.install(tracer)
    assert network.difference is patterns.difference is not original
    tracer.restore()
    assert network.difference is patterns.difference is original


def test_normaliser_is_raw_times_nominal_over_measured():
    assert Timing(3.0, 0.5).norm == 1.5
    clock = count(0.0, 0.5)
    meter = HostMeter(every_s=0.0, nominal_s=2.0, kernel=lambda: None,
                      clock=lambda: next(clock))
    # each kernel run reads the clock twice (0.5 s), each edge once more
    timing = meter.finish(meter.stop(meter.start()))
    assert timing.speed == 2.0 / 0.5
    assert timing.norm == timing.raw * 2.0 / 0.5


def test_each_slice_is_normalised_by_the_kernel_runs_around_it():
    now = [0.0]
    durations = iter([1.0, 3.0, 1.0])

    def kernel():
        now[0] += next(durations)
    meter = HostMeter(every_s=0.0, nominal_s=1.0, kernel=kernel,
                      clock=lambda: now[0])
    mark = meter.start()           # kernel 1 s
    now[0] += 2.0                  # work at the speed of 1 s kernels
    meter.tick()                   # kernel 3 s
    now[0] += 4.0                  # work between a 3 s and a 1 s kernel
    timing = meter.finish(meter.stop(mark))
    assert timing.raw == 6.0
    assert timing.norm == 2.0 * 2 / (1 + 3) + 4.0 * 2 / (3 + 1)


def test_layer_map_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert spec["per_layer"] == [
        {"name": m["metric"], "unit": m["unit"], "better": m["better"]}
        for m in layer_map["layers"]]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "five-four-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
