"""The benchmark's three workloads and the bookkeeping they share.

Each workload is a closed loop in one process and one thread: an operation
starts when the previous one has returned. A workload sets itself up
``SETUPS`` times (the median is ``setup_s``), then repeats identical rounds
of work. Every timed operation is bracketed by :class:`hostspeed.HostMeter`
so its time can be normalised to host speed; checks and fingerprints run
outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import shutil
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from chunknet import attention, cli, corpus, harness, suites
from chunknet.config import RunConfig
from chunknet.corpus import TestItem
from chunknet.network import MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory, load_memory

import inputs
from hostspeed import HostMeter, Timing

EXIT_OK, EXIT_NO_ACTIVATION = 0, 4


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What one round produced, for the checks made after it."""

    predictions: list[str] = field(default_factory=list)
    snapshots: list[Path] = field(default_factory=list)
    correct: int = 0
    graded: int = 0
    labels: Counter = field(default_factory=Counter)   # five-four modal tally


class Run:
    """Timings, failure counts, checks and fingerprints of one run."""

    def __init__(self, meter: HostMeter):
        self.meter = meter
        self.pending: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.fingerprints: dict[str, str] = {}

    @contextlib.contextmanager
    def timed(self, metric: str, per: int = 1):
        """Time the block as one sample of ``metric``: the block's time
        divided by ``per``, the number of operations it holds."""
        mark = self.meter.start()
        try:
            yield
        finally:
            self.pending[metric].append((self.meter.stop(mark), per))

    def timings(self, metric: str) -> list[Timing]:
        out = []
        for pending, per in self.pending[metric]:
            t = self.meter.finish(pending)
            out.append(Timing(t.raw / per, t.speed))
        return out

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += 1
            print(f"failed: {what}\n{traceback.format_exc()}", flush=True)
            return None

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def install_ticks(meter: HostMeter):
    """Run the kernel from inside training, between presentations; returns
    the function that takes the hook out again."""
    original = harness.Trainer.present

    def present(self, sample):
        meter.tick()
        return original(self, sample)
    harness.Trainer.present = present

    def undo():
        harness.Trainer.present = original
    return undo


def cli_call(argv: list[str]) -> tuple[int, str]:
    """``chunknet`` in-process: exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def timed_cli(run: Run, metric: str, argv: list[str],
              valid=(EXIT_OK,)) -> tuple[int, str] | None:
    """One timed ``chunknet`` command, counted as an operation: an exception
    or an exit code outside ``valid`` is a failure, and gives None."""
    def call():
        with run.timed(metric):
            return cli_call(argv)
    result = run.attempt(" ".join(argv[:1] + argv[-1:]), call)
    if result is not None and result[0] not in valid:
        run.failed += 1
        print(f"failed: chunknet {' '.join(argv)} exited {result[0]}",
              flush=True)
        return None
    return result


def query(run: Run, model: Path, stimulus: Path, true_label: str | None,
          outcome: Outcome) -> str | None:
    """One timed ``chunknet categorise``; exit 4 (no activation) is a valid
    answer."""
    result = timed_cli(run, "query_ms", ["categorise", "--model", str(model),
                                         "--input", str(stimulus)],
                       valid=(EXIT_OK, EXIT_NO_ACTIVATION))
    if result is None:
        return None
    code, out = result
    top = out.split()[0] if code == EXIT_OK and out.split() else None
    outcome.predictions.append(f"{stimulus.name}\t{code}\t{out.strip()}")
    if true_label is not None:
        outcome.graded += 1
        outcome.correct += int(top == true_label)
    return top


def check_snapshot(run: Run, path: Path) -> None:
    """A saved snapshot reloads to byte-identical ``dump_memory`` output."""
    memory, meta = load_memory(path)
    run.check("snapshot_reload_identical",
              dump_memory(memory, meta) == path.read_text(encoding="utf-8"))


class Workload:
    name = ""
    SETUPS = 3               # setup_s is the median over this many set-ups
    MIN_ROUNDS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.config = RunConfig()

    def setup(self, run: Run, directory: Path):
        raise NotImplementedError

    def round(self, run: Run, state, index: int) -> Outcome:
        raise NotImplementedError

    def check(self, run: Run, state, outcome: Outcome) -> None:
        """Checks of one round beyond the snapshot reload."""

    def sweep_agreement(self, outcome: Outcome) -> str | None:
        """Modal transfer labels matching the reference table, five-four
        only."""
        return None

    def resident_nets(self, state) -> list:
        """Trained nets a round uses without training them itself."""
        return []


def _timed_setup(run: Run, directory: Path, body):
    if directory.exists():
        shutil.rmtree(directory)
    gc.collect()
    with run.timed("setup_s"):
        state = body(directory)
    return state


class BuildAndQuery(Workload):
    name = "build-and-query"
    SETUPS = 5
    STREAM_BYTES = 100_000
    QUERIES = 200            # query_ms.p90 and categorise_ms.p95 need 200
    QUERY_WORDS = (55, 65)   # 10-40 word queries leave 57% unactivated

    def setup(self, run, directory):
        def body(d):
            corpus = inputs.phrase_corpus(self.name, self.seed,
                                          self.STREAM_BYTES, self.QUERIES,
                                          *self.QUERY_WORDS)
            return corpus, corpus.write(d)
        corpus, manifest = _timed_setup(run, directory, body)
        # Writing 200 small files takes 10-100 ms on a shared file system;
        # they are query inputs, so set-up time leaves them out.
        corpus.write_items(directory)
        return corpus, manifest

    def round(self, run, state, index):
        corpus, manifest = state
        outcome = Outcome()
        out = manifest.parent / f"model{index}"
        if timed_cli(run, "train_s", ["train", "--manifest", str(manifest),
                                      "--out", str(out)]) is None:
            return outcome
        model = out / "model.json"
        outcome.snapshots.append(model)
        with _split_categorise(run):
            for item in corpus.items:
                query(run, model, manifest.parent / item.name, item.label,
                      outcome)
        return outcome


@contextlib.contextmanager
def _split_categorise(run: Run):
    """Time the ``categorise`` inside each CLI query as its own sample."""
    original = cli.categorise

    def timed_categorise(*args, **kwargs):
        with run.timed("categorise_ms"):
            return original(*args, **kwargs)
    cli.categorise = timed_categorise
    try:
        yield
    finally:
        cli.categorise = original


class ClassifyLong(Workload):
    name = "classify-long"
    STREAM_BYTES = 10_000
    STIMULI = 200            # categorise_ms.p95 needs 200 samples
    STIMULUS_WORDS = (20, 120)

    @staticmethod
    def queried(index: int) -> bool:
        """Half the stimuli also go through the CLI (query_ms.p90 needs 100):
        pairs 0-1, 4-5, ... so both labels and every length are asked."""
        return index // 2 % 2 == 0

    def setup(self, run, directory):
        def body(d):
            corpus = inputs.phrase_corpus(self.name, self.seed,
                                          self.STREAM_BYTES, self.STIMULI,
                                          *self.STIMULUS_WORDS)
            manifest = corpus.write(d)
            with run.timed("train_s"):
                code, _ = cli_call(["train", "--manifest", str(manifest),
                                    "--out", str(d / "model")])
            if code != EXIT_OK:
                raise RuntimeError(f"chunknet train exited {code}")
            model = d / "model" / "model.json"
            memory, meta = load_memory(model)
            stimuli = [Pattern("visual", item.words) for item in corpus.items]
            return corpus, model, memory, meta, stimuli
        state = _timed_setup(run, directory, body)
        state[0].write_items(directory)
        return state

    def round(self, run, state, index):
        corpus, model, memory, meta, stimuli = state
        cfg = harness.attention_config(self.config,
                                       span_override=meta["attention_span"])
        outcome = Outcome(snapshots=[model])
        tops = {}
        for item, stimulus in zip(corpus.items, stimuli):
            def one():
                with run.timed("categorise_ms"):
                    return attention.categorise(memory, stimulus, cfg)
            cls = run.attempt(f"categorise {item.name}", one)
            if cls is None:
                continue
            tops[item.name] = cls.top
            outcome.graded += 1
            outcome.correct += int(cls.top == item.label)
            outcome.predictions.append(
                f"{item.name}\t{cls.top}\t"
                + " ".join(f"{lbl}:{conf:.6f}" for lbl, conf in cls.entries))
        directory = model.parent.parent
        for i, item in enumerate(corpus.items):
            if self.queried(i):
                top = query(run, model, directory / item.name, None,
                            Outcome())
                run.check("cli_matches_resident_model",
                          tops.get(item.name) == top)
        return outcome

    def resident_nets(self, state):
        return [state[2].net("visual")]


class FiveFourSweep(Workload):
    name = "five-four-sweep"
    REPLICAS = 100           # averages out how long each replica trains
    MIN_ROUNDS = 7           # 16 queries a round; query_ms.p90 needs 100
    TRANSFER = suites.FIVE_FOUR_TRANSFER
    # The training faces are the items with a true label: accuracy.
    TRAINING_FACES = [TestItem(face, label, Pattern("visual", tuple(face)))
                      for label, faces in suites.FIVE_FOUR_TRAINING.items()
                      for face in faces]

    def setup(self, run, directory):
        def body(d):
            # The suite itself (canonical run plus its own 50-seed sweep,
            # with the 1000 -> A anchor check), then the canonical snapshot
            # the queries use.
            code, _ = cli_call(["run-suite", "--suite", "five-four",
                                "--check", "--out", str(d / "suite")])
            run.check("run_suite_five_four_check", code == EXIT_OK)
            manifest = d / "suite" / "corpus" / "manifest.json"
            code, _ = cli_call(["train", "--manifest", str(manifest),
                                "--no-shuffle", "--out", str(d / "model")])
            if code != EXIT_OK:
                raise RuntimeError(f"chunknet train exited {code}")
            return d / "model" / "model.json"
        model = _timed_setup(run, directory, body)
        seeds = inputs.five_four_seeds(self.seed, self.REPLICAS)
        (directory / "seeds.txt").write_text(
            " ".join(map(str, seeds)) + "\n", encoding="utf-8")
        faces = directory / "faces"
        faces.mkdir()
        for face in self.TRANSFER + [i.item_id for i in self.TRAINING_FACES]:
            (faces / f"{face}.txt").write_text(face + "\n", encoding="utf-8")
        return seeds, model, faces

    def _replica(self, run: Run, directory: Path, seed: int,
                 outcome: Outcome) -> None:
        with run.timed("train_s"):
            manifest = corpus.load_manifest(
                suites.build_five_four_manifest(directory))
            memory = MultiModalMemory(
                seconds_per_new_chunk=self.config.seconds_per_new_chunk,
                seconds_per_update=self.config.seconds_per_update)
            harness.train(memory, manifest, self.config, seed=seed,
                          shuffle=True)
        # One sample per replica: its mean time per classified face.
        with run.timed("categorise_ms",
                       per=len(self.TRANSFER) + len(self.TRAINING_FACES)):
            transfer = suites.classify_transfer(memory, self.config)
            result = harness.run_suite(
                memory, self.TRAINING_FACES, ["A", "B"],
                harness.attention_config(self.config),
                link_weighting=self.config.link_weighting)
        outcome.graded += result.total
        outcome.correct += result.correct_count
        for face, label in transfer.items():
            outcome.labels[(face, label)] += 1
        outcome.predictions.append(
            f"{seed}\t" + " ".join(f"{f}:{transfer[f]}"
                                   for f in suites.FIVE_FOUR_TRANSFER))

    def round(self, run, state, index):
        seeds, model, faces = state
        outcome = Outcome(snapshots=[model])
        directory = model.parent.parent / "replica"
        for seed in seeds:
            run.attempt(f"replica {seed}", self._replica, run, directory,
                        seed, outcome)
        for face in self.TRANSFER:
            top = query(run, model, faces / f"{face}.txt", None, outcome)
            if face == "1000":
                run.check("canonical_1000_is_A", top == "A")
        for item in self.TRAINING_FACES:
            query(run, model, faces / f"{item.item_id}.txt", item.true_label,
                  outcome)
        return outcome

    def check(self, run, state, outcome):
        # classify_transfer reports "?" for a face no chunk voted on
        run.check("transfer_labels_valid",
                  all(label in ("A", "B", "?") for _, label in outcome.labels))

    def sweep_agreement(self, outcome):
        modal = {}
        for face in suites.FIVE_FOUR_TRANSFER:
            counts = {label: n for (f, label), n in outcome.labels.items()
                      if f == face}
            modal[face] = max(sorted(counts), key=lambda k: counts[k]) \
                if counts else "?"
        agree = sum(modal[f] == suites.FIVE_FOUR_REFERENCE[f]
                    for f in suites.FIVE_FOUR_TRANSFER)
        return f"{agree}/{len(suites.FIVE_FOUR_TRANSFER)}"


WORKLOADS = {w.name: w for w in (BuildAndQuery, ClassifyLong, FiveFourSweep)}
