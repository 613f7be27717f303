"""Command-line entry point.

Commands: train, categorise, retrieve, run-suite, eval-metrics, inspect.
Exit codes: 0 success; 2 bad input (manifest, config, file formats);
3 training did not converge; 4 no activation for the given stimulus;
1 failed --check assertions or internal errors.

The commands raise their errors; ``main`` is the one place an error becomes
an exit code and a single ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from . import __version__
from .attention import categorise, retrieve
from .config import ConfigError, load_config, read_text, write_json
from .corpus import TOKENIZERS, CorpusError, load_manifest, tokenize
from .harness import TrainingError, attention_config, new_memory, train, \
    train_and_evaluate
from .metrics import (METRIC_NAMES, MetricsError, PredictionPair, score_pair,
                      significance_report, sum_rows)
from .patterns import Pattern
from .snapshot import SNAPSHOT_SCHEMA_VERSION, SnapshotError, load_memory, \
    save_memory
from .suites import SUITES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NO_ACTIVATION = 4


def _write_csv(path: Path, rows) -> None:
    """Write ``rows``, the header row first, to the CSV file at ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_run(out_dir: Path, result, doc: dict, output_format: str) -> None:
    """A run-suite run's results.csv (one row per test item: id, one
    confidence column per label, the predicted label, and a correct flag)
    and its run.json, ``doc``; ``--format table`` prints the rows too."""
    _write_csv(out_dir / "results.csv", [
        ["item", *result.labels, "predicted", "correct"],
        *([row.item_id, *(f"{row.classification.confidence(lbl):.6f}"
                          for lbl in result.labels),
           row.predicted or "no-activation", str(row.correct).lower()]
          for row in result.rows)])
    write_json(out_dir / "run.json", doc)
    if output_format != "table":
        return
    print("\t".join(["item", *result.labels, "predicted", "ok"]))
    for row in result.rows:
        confs = [f"{row.classification.confidence(lbl):.3f}"
                 for lbl in result.labels]
        print("\t".join([row.item_id, *confs,
                         row.predicted or "no-activation",
                         "y" if row.correct else "n"]))
    print(f"correct {result.correct_count}/{result.total} "
          f"(chance baseline {result.chance_baseline:g})")


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, created before any work so that a path
    naming a file fails fast; raises ConfigError when it cannot be
    created."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror}") from None
    return out_dir


def _run_config(args):
    """The ``--config`` file, or the defaults, with ``--seed`` applied."""
    return load_config(args.config, overrides={"seed": args.seed}
                       if args.seed is not None else None)


def _load_manifest(path, config):
    """The manifest at ``path``, checked against the run config before any
    training starts; raises CorpusError."""
    manifest = load_manifest(path)
    span = manifest.attention_span
    if span is not None and span < config.min_fetch:
        raise CorpusError(f"manifest attention_span {span} is below the "
                          f"config's min_fetch {config.min_fetch}")
    return manifest


def _snapshot_meta(manifest, config) -> dict:
    """The snapshot meta that categorise and retrieve read back."""
    return {
        "manifest": manifest.name,
        "tokenizer": manifest.tokenizer,
        "attention_span": manifest.attention_span or config.attention_span,
        "config": config.to_dict(),
    }


def cmd_train(args) -> int:
    out_dir = _out_dir(args.out)
    config = _run_config(args)
    manifest = _load_manifest(args.manifest, config)
    memory = new_memory(config)
    run = train(memory, manifest, config,
                shuffle=False if args.no_shuffle else None)
    save_memory(out_dir / "model.json", memory,
                _snapshot_meta(manifest, config))
    write_json(out_dir / "training.json", run.to_dict())
    write_json(out_dir / "config.json", config.to_dict())
    print(f"converged after {run.epoch_count} epochs; "
          f"nodes {run.node_counts}; "
          f"simulated {run.simulated_time_seconds:g} s")
    print(f"model written to {out_dir / 'model.json'}")
    return EXIT_OK


def _load_model(path):
    """The memory, meta block and run config of a snapshot. Raises
    SnapshotError unless each meta field the commands read is absent or
    usable."""
    memory, meta = load_memory(path)
    stored = meta.get("config", {})
    if type(stored) is not dict:
        raise SnapshotError(f"snapshot meta field 'config' holds {stored!r}; "
                            f"it must be a JSON object")
    try:
        config = load_config(None, overrides=stored)
    except ConfigError as exc:
        raise SnapshotError(f"snapshot meta field 'config': {exc}") from None
    tokenizer = meta.get("tokenizer", "words")
    if type(tokenizer) is not str or tokenizer not in TOKENIZERS:
        raise SnapshotError(f"snapshot meta field 'tokenizer' holds "
                            f"{tokenizer!r}, which is not a tokenizer")
    span = meta.get("attention_span")
    if span is not None and \
            (type(span) is not int or span < config.min_fetch):
        raise SnapshotError(f"snapshot meta field 'attention_span' holds "
                            f"{span!r}; it must be an integer of at least "
                            f"min_fetch {config.min_fetch}")
    return memory, meta, config


def _load_query(args):
    """The model, its meta and config, and the ``--input`` stimulus of a
    categorise or retrieve command; raises the errors that exit 2."""
    memory, meta, config = _load_model(args.model)
    text = read_text(args.input, CorpusError, "input")
    stream = tokenize(meta.get("tokenizer", "words"), text)
    if not stream.tokens:
        raise CorpusError(f"{args.input} holds no tokens")
    return memory, meta, config, Pattern("visual", tuple(stream.tokens))


def cmd_categorise(args) -> int:
    memory, meta, config, stimulus = _load_query(args)
    cfg = attention_config(config,
                           span_override=meta.get("attention_span"))
    cls = categorise(memory, stimulus, cfg,
                     link_weighting=config.link_weighting)
    if cls.no_activation:
        print("no-activation: no trained chunk voted for this stimulus",
              file=sys.stderr)
        return EXIT_NO_ACTIVATION
    for label, conf in cls.entries:
        print(f"{label} {conf:.3f}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    memory, _, _, stimulus = _load_query(args)
    net = memory.nets.get(stimulus.modality)
    print("" if net is None else retrieve(net, stimulus).to_line())
    return EXIT_OK


def cmd_run_suite(args) -> int:
    out_dir = _out_dir(args.out)
    config = _run_config(args)
    if args.suite:
        report = SUITES[args.suite](out_dir, config)
        _write_run(out_dir, report.result,
                   {"suite": report.name,
                    "training": report.training.to_dict(),
                    "checks": report.checks, "extras": report.extras},
                   args.format)
        for name, ok in report.checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
        for key, value in report.extras.items():
            print(f"{key}: {value}")
        if args.check and not report.all_checks_pass:
            return EXIT_FAIL
        return EXIT_OK
    # manifest mode: the test files are read before training starts
    manifest = _load_manifest(args.manifest, config)
    memory, run, result = train_and_evaluate(manifest, config)
    save_memory(out_dir / "model.json", memory,
                _snapshot_meta(manifest, config))
    _write_run(out_dir, result,
               {"manifest": manifest.name, "training": run.to_dict(),
                "correct": result.correct_count, "total": result.total,
                "chance_baseline": result.chance_baseline},
               args.format)
    if args.format != "table":
        print(f"correct {result.correct_count}/{result.total}")
    return EXIT_OK


def _read_pairs_csv(path):
    """Rows of (participant, item, human pair, model pair) from a CSV with
    the human_top/human_second/model_top/model_second columns; raises
    MetricsError, also for a row whose human_top or model_top is empty or
    missing, or whose second choice repeats its top, or that the CSV reader
    refuses, naming its line."""
    text = read_text(path, MetricsError, "pairs file")
    rows = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        records = [(reader.line_num, record) for record in reader]
    except csv.Error as exc:    # ``reader.reader`` counts the failed line
        raise MetricsError(f"{path} line {reader.reader.line_num}: "
                           f"{exc}") from None
    needed = {"human_top", "model_top"}
    if reader.fieldnames is None or \
            not needed.issubset(reader.fieldnames):
        raise MetricsError(
            f"{path}: need columns human_top/model_top "
            f"(optionally human_second/model_second)")
    for line, record in records:
        if not record["human_top"] or not record["model_top"]:
            raise MetricsError(f"{path} line {line}: human_top "
                               f"or model_top is empty")
        try:
            human = PredictionPair(record["human_top"],
                                   record.get("human_second") or None)
            model = PredictionPair(record["model_top"],
                                   record.get("model_second") or None)
        except MetricsError as exc:
            raise MetricsError(f"{path} line {line}: {exc}") from None
        rows.append((record.get("participant", ""),
                     record.get("excerpt") or record.get("item", ""),
                     human, model))
    if not rows:
        raise MetricsError(f"{path}: no comparison rows")
    return rows


def cmd_eval_metrics(args) -> int:
    out_dir = _out_dir(args.out)
    if args.labels < 2:
        raise MetricsError(f"--labels must be at least 2, got {args.labels}")
    if args.trials is not None and args.trials < 1:
        raise MetricsError(f"--trials must be at least 1, got {args.trials}")
    pairs = _read_pairs_csv(args.pairs)
    scored = [(participant, item, score_pair(human, model))
              for participant, item, human, model in pairs]
    totals = sum_rows([row for _, _, row in scored])
    n = len(scored) if args.trials is None else args.trials
    for metric in METRIC_NAMES:
        if totals[metric] > n:
            raise MetricsError(f"--trials {n} is below the {metric} total "
                               f"{totals[metric]}")
    lines = significance_report(totals, n=n, label_count=args.labels,
                                rule=args.rule)
    _write_csv(out_dir / "metrics.csv", [
        ["participant", "item", *METRIC_NAMES],
        *([participant, item, *row.as_tuple()]
          for participant, item, row in scored)])
    _write_csv(out_dir / "significance.csv", [
        ["metric", "k", "n", "chance_p", "tail_probability", "threshold",
         "significant"],
        *([line.metric, line.k, line.n, str(line.chance_p),
           f"{line.tail_probability:.6g}", f"{line.threshold:g}",
           str(line.significant).lower()] for line in lines)])
    print("metric totals:",
          " ".join(f"{m}={totals[m]}" for m in METRIC_NAMES))
    for line in lines:
        verdict = "significant" if line.significant else "not significant"
        print(f"{line.metric}: k={line.k} n={line.n} p={line.chance_p} "
              f"tail={line.tail_probability:.6g} "
              f"threshold={line.threshold:g} -> {verdict}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    memory, meta, _ = _load_model(args.model)
    print(f"snapshot schema v{SNAPSHOT_SCHEMA_VERSION}; "
          f"tokenizer {meta.get('tokenizer')}; "
          f"label modality {memory.label_modality}")
    for modality, net in sorted(memory.nets.items()):
        complete = sum(1 for n in net.nodes() if n.image_complete)
        links = sum(sum(n.naming_links.values()) for n in net.nodes())
        print(f"[{modality}] nodes={net.node_count} "
              f"complete_images={complete} link_count={links} "
              f"simulated={net.clock_seconds:g}s")
        if args.nodes:
            for node in net.nodes():
                if node.node_id == 0:
                    continue
                contents = net.contents(node.node_id).to_line()
                image = " ".join(node.image)
                flags = "complete" if node.image_complete else "partial"
                link_str = ",".join(
                    f"{memory.label_name(k)}:{v}"
                    for k, v in sorted(node.naming_links.items()))
                print(f"  #{node.node_id} contents=[{contents}] "
                      f"image=[{image}] {flags} links=[{link_str}]")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``chunknet`` parser, built once per process and shared by every
    ``main`` call, so that a call leaves no parser behind as cyclic garbage.
    Each subcommand's ``cmd_*`` function is bound when the parser is built;
    the module-level names those functions call (``categorise``,
    ``load_memory``, ``train``, ...) are still looked up at call time."""
    parser = argparse.ArgumentParser(
        prog="chunknet",
        description="Chunking discrimination-network concept learner")
    parser.add_argument("--version", action="version",
                        version=f"chunknet {__version__} "
                                f"(snapshot schema v{SNAPSHOT_SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a dataset manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-shuffle", action="store_true",
                   help="present samples in manifest order every epoch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("categorise", help="label a stimulus with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_categorise)

    p = sub.add_parser("retrieve",
                       help="print the most similar stored chunk")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("run-suite",
                       help="run a built-in suite or a manifest end to end")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=SUITES)
    group.add_argument("--manifest")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when an anchor check fails")
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.set_defaults(func=cmd_run_suite)

    p = sub.add_parser("eval-metrics",
                       help="score human vs model prediction pairs")
    p.add_argument("--pairs", required=True,
                   help="CSV with human_top/human_second/model_top/"
                        "model_second columns")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", type=int, default=4,
                   help="label count for the chance model (default 4)")
    p.add_argument("--trials", type=int, default=None,
                   help="n for the binomial tail (default: row count)")
    p.add_argument("--rule", default="independent_uniform",
                   choices=("independent_uniform", "distinct_pairs"))
    p.set_defaults(func=cmd_eval_metrics)

    p = sub.add_parser("inspect", help="describe a model snapshot")
    p.add_argument("--model", required=True)
    p.add_argument("--nodes", action="store_true",
                   help="dump the full node table")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    """Run one command and map its errors to exit codes: bad input exits 2,
    a training run that does not converge exits 3, each with one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, MetricsError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
