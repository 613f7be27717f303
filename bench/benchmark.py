"""One benchmark run: set-ups, measured rounds, checks and the report.

See ``run.py`` for the command line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import time
from pathlib import Path
from statistics import median

import layers
from hostspeed import KERNEL_NOMINAL_S, HostMeter
from spans import Tracer
from percentiles import percentile
from workloads import (WORKLOADS, Run, check_snapshot,
                       install_ticks, sha256_file)


def inputs_fingerprint(directory: Path) -> str:
    """sha256 over the input files of one set-up; what the program wrote
    (under ``model*`` and ``suite``) is left out."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory)
        if path.is_file() and not any(p.startswith(("model", "suite"))
                                      for p in rel.parts):
            digest.update(str(rel).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_rounds(workload, run, state, seconds: float, min_rounds: int,
                   metric: str, round_fn=None):
    """Identical rounds until the next one would end past ``seconds``."""
    round_fn = round_fn or workload.round
    outcomes = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        with run.timed(metric):
            outcomes.append(round_fn(run, state, len(outcomes)))
        took = time.perf_counter() - t0
        if len(outcomes) >= min_rounds and \
                time.perf_counter() - begin + took > seconds:
            return outcomes


def check_outcomes(workload, run, state, outcomes) -> None:
    for outcome in outcomes:
        workload.check(run, state, outcome)
    first = outcomes[0]
    for snapshot in first.snapshots:
        check_snapshot(run, snapshot)
    run.fingerprints["predictions"] = hashlib.sha256(
        "\n".join(first.predictions).encode()).hexdigest()
    run.fingerprints["snapshot"] = ",".join(
        sha256_file(p) for p in first.snapshots) or "-"
    run.check("rounds_identical", all(
        o.predictions == first.predictions
        and [sha256_file(p) for p in o.snapshots]
        == [sha256_file(p) for p in first.snapshots]
        for o in outcomes[1:]))


def summarise(run, name: str, scale: float, q: float | None = None):
    """(value, raw, speed, n) of a metric: the median, or the q-th
    percentile, of its normalised samples and of its raw samples."""
    timings = run.timings(name)
    norms = [t.norm * scale for t in timings]
    raws = [t.raw * scale for t in timings]
    if q is None:
        value, raw = median(norms), median(raws)
    else:
        value, raw = percentile(norms, q), percentile(raws, q)
    return value, raw, value / raw, len(timings)


def end_to_end(run, outcomes, peak_rss_mb: float) -> list[tuple]:
    """Rows of (metric, value, unit, raw, speed, n)."""
    rows = []
    for metric, source, unit, scale, q in (
            ("setup_s", "setup_s", "s", 1, None),
            ("run_s", "run_s", "s", 1, None),
            ("train_s", "train_s", "s", 1, None),
            ("query_ms.p50", "query_ms", "ms", 1e3, None),
            ("query_ms.p90", "query_ms", "ms", 1e3, 90),
            ("categorise_ms.p50", "categorise_ms", "ms", 1e3, None),
            ("categorise_ms.p95", "categorise_ms", "ms", 1e3, 95)):
        value, raw, speed, n = summarise(run, source, scale, q)
        rows.append((metric, value, unit, raw, speed, n))
    graded = sum(o.graded for o in outcomes)
    correct = sum(o.correct for o in outcomes)
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", None, None, 1))
    rows.append(("accuracy", correct / graded, "share", None, None, graded))
    return rows


def print_rows(rows) -> None:
    print(f"{'metric':<40} {'value':>14} {'unit':<6} {'raw':>12} "
          f"{'speed':>7} {'n':>7}")
    for metric, value, unit, raw, speed, n in rows:
        raw_s = f"{raw:12.4f}" if raw is not None else f"{'-':>12}"
        speed_s = f"{speed:7.3f}" if speed is not None else f"{'-':>7}"
        print(f"{metric:<40} {value:14.4f} {unit:<6} {raw_s} {speed_s} "
              f"{n:>7}")


def traced_phase(workload, run, state, min_rounds: int):
    """Rounds under the tracer; returns (tracer, counts, outcomes)."""
    tracer = Tracer()
    counts = layers.install(tracer)
    run.meter.on_kernel = lambda kernel: tracer.call(layers.KERNEL, kernel)

    def traced_round(run, state, index):
        return tracer.call(layers.ROUND, workload.round, run, state, index)
    try:
        outcomes = measure_rounds(workload, run, state, 0.0, min_rounds,
                                  "traced_run_s", traced_round)
    finally:
        run.meter.on_kernel = None
        tracer.restore()
    run.meter.run_kernel()
    return tracer, counts, outcomes


def per_round(timings) -> tuple[float, float]:
    """Mean raw seconds per round and the median host speed of the rounds;
    self times are scaled by the same speed, so they add up to
    the product."""
    return (sum(t.raw for t in timings) / len(timings),
            median(t.speed for t in timings))


def per_layer(workload, run, state, tracer, counts, rounds) -> list[tuple]:
    raw, speed = per_round(run.timings("run_s"))
    untraced = raw * speed
    raw, speed = per_round(run.timings("traced_run_s"))
    traced_s = raw * speed
    if not counts.nets:
        counts.nets = workload.resident_nets(state)
    metrics = layers.layer_metrics(tracer, counts, rounds, speed)
    self_s = tracer.self_times()
    self_sum = sum(v for k, v in self_s.items() if k != layers.KERNEL)
    metrics["trace.run_s"] = traced_s
    metrics["trace.self_sum_s"] = self_sum * speed / rounds
    metrics["trace.overhead_ratio"] = traced_s / untraced
    metrics["trace.spans"] = len(tracer) / rounds
    return [(m["metric"], metrics[m["metric"]], m["unit"], None, None, rounds)
            for m in layers.LAYER_MAP]


def print_self_times(tracer, rounds: int, speed: float) -> None:
    """Self time per round of every span name; the total is the traced
    round time the per-layer metrics divide up."""
    self_s = tracer.self_times()
    print("self time per round, by span (normalised ms):")
    for span, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if span != layers.KERNEL:
            print(f"  {span:<38} {seconds * speed * 1e3 / rounds:14.4f}")
    total = sum(v for k, v in self_s.items() if k != layers.KERNEL)
    print(f"  {'total':<38} {total * speed * 1e3 / rounds:14.4f}")


def main(name: str, seed: int, seconds: float, trace: bool,
         out: Path) -> int:
    """One run of workload ``name``; prints the report, returns the exit
    code."""
    workload = WORKLOADS[name](seed)
    workdir = out / f"work-{name}-{seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    meter = HostMeter()
    run = Run(meter)
    untick = install_ticks(meter)
    try:
        fingerprints = []
        for _ in range(workload.SETUPS):
            state = workload.setup(run, workdir / "setup")
            fingerprints.append(inputs_fingerprint(workdir / "setup"))
        run.fingerprints["inputs"] = fingerprints[0]
        run.check("setups_identical", len(set(fingerprints)) == 1)

        min_rounds = workload.MIN_ROUNDS
        outcomes = measure_rounds(workload, run, state, seconds,
                                  min_rounds, "run_s")
        untraced_rounds = len(outcomes)
        # Set-up and measured rounds only, before checks and summaries.
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        meter.run_kernel()
        if trace:
            tracer, counts, traced = traced_phase(workload, run, state,
                                                  min_rounds)
            outcomes += traced
        check_outcomes(workload, run, state, outcomes)
        if trace:
            rows = per_layer(workload, run, state, tracer, counts,
                             len(traced))
            tracer.write(out / "spans" / f"{name}-seed{seed}")
        else:
            rows = end_to_end(run, outcomes, peak_rss_mb)
    finally:
        untick()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  closed loop, 1 process, "
          f"1 thread  rounds {untraced_rounds} untraced"
          + (f" + {len(traced)} traced" if trace else ""))
    print(f"host speed {meter.speed():.3f} (kernel nominal "
          f"{KERNEL_NOMINAL_S * 1e3:.3f} ms; {len(meter.samples)} kernel "
          f"runs, mean {1e3 * sum(meter.samples) / len(meter.samples):.3f} "
          f"ms); values = raw x speed")
    print_rows(rows)
    if trace:
        print_self_times(tracer, len(traced),
                         per_round(run.timings("traced_run_s"))[1])
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':<40} {error_rate:14.4f} share  "
          f"({run.failed} failed of {run.attempted} attempted)")
    agreement = workload.sweep_agreement(outcomes[0]) or "n/a"
    print(f"{'sweep_agreement':<40} {agreement:>14}")
    for key, value in run.fingerprints.items():
        print(f"fingerprint {key:<12} {value}")
    for key, ok in run.checks.items():
        print(f"check {key}: {'pass' if ok else 'FAIL'}")
    correct = all(run.checks.values()) and run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, value, unit, *_ in rows}}))
    return 0

