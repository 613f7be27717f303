"""Malformed inputs end to end: a trained snapshot, a config, a manifest or
a stimulus file, mutated one or two values at a time or cut short, run
through ``cli.main`` in-process by the commands that read it; a snapshot is
also written in either layout, or has text put in. Whatever the input, the
exit code is a documented one and a failure is one line on stderr, never a
traceback. A mutated snapshot that ``inspect`` accepts answers
``categorise`` and ``retrieve`` as ``tests/reference.py`` does."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from chunknet.cli import main
from chunknet.config import RunConfig
from chunknet.suites import build_xor_manifest

# The commands that read each kind of file.
COMMANDS = {"snapshot": ("categorise", "retrieve", "inspect"),
            "stimulus": ("categorise", "retrieve"),
            "config": ("train", "run-suite"),
            "manifest": ("train", "run-suite")}

# Queries on the xor model: each whole stimulus, and one longer than both
# training patterns. A mutated snapshot is queried with any of them.
STIMULI = ("0 0", "0 1", "1 0", "1 1", "1 0 0 1 1")

# JSON values of every kind, each kind with values a reader could take for
# another: false for 0, 1.0 for 1, "1" for 1, large and negative numbers.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([0, 1, -1, 2, 10 ** 400]),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.sampled_from(["", " ", "0", "1", "T", "0 1", "words"]),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 5), max_size=2))


@pytest.fixture(scope="module")
def xor_files(tmp_path_factory):
    """A trained xor model and the files that made it: the run's directory
    holds ``corpus/`` with the manifest and its data, ``config.json`` with
    every config field, and ``run/model.json``."""
    base = tmp_path_factory.mktemp("xor")
    manifest = build_xor_manifest(base / "corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--manifest", str(manifest), "--out",
                     str(base / "run")]) == 0
    config = json.loads((base / "run" / "config.json").read_text())
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return base


def _sites(value, sites):
    """Every (container, key) pair under ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        sites.append((value, key))
        _sites(item, sites)
    return sites


def _mutated_json(draw, text, write=json.dumps):
    """``text`` with one or two of its values dropped, replaced or
    doubled, written by ``write``, or the whole text cut short."""
    if draw(st.integers(0, 9)) == 0:
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        sites = _sites(doc, [])
        if not sites:
            break
        container, key = draw(st.sampled_from(sites))
        action = draw(st.sampled_from(["drop", "replace", "double"]))
        if action == "drop":
            del container[key]
        elif action == "replace":
            container[key] = draw(_JSON_VALUES)
        elif isinstance(container, list):
            container.insert(key, json.loads(json.dumps(container[key])))
        else:
            container[key] = [container[key], container[key]]
    return write(doc)


def _mutated_snapshot(draw, text):
    """The snapshot ``text`` with values mutated, written on one line or,
    as often, laid out as the package writes it; or with text put in or
    cut, as a stimulus is."""
    if draw(st.integers(0, 2)) == 0:
        return _mutated_text(draw, text)
    return _mutated_json(draw, text,
                         draw(st.sampled_from([json.dumps, reference.layout])))


def _mutated_text(draw, text):
    """``text`` with a piece of any text put in at a point, or cut short."""
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at]
    return text[:at] + draw(st.text(max_size=4)) + text[at:]


# The xor model's tokenizer and "words", the one other tokenizer name
# _JSON_VALUES can draw, written out here.
_TOKENIZERS = {"words": str.split,
               "logic_bits": lambda text: [c for c in text if not c.isspace()]}


def _reference_answers(text, stimulus):
    """The stdout of ``categorise`` and ``retrieve`` on the snapshot
    ``text`` and the stimulus file text ``stimulus``, from
    ``reference.load`` of the document, with the settings its meta holds:
    each config field absent from it at its default, and its attention
    span, if any, in place of the config's."""
    doc = json.loads(text)
    meta = doc.get("meta", {})
    config = {**RunConfig().to_dict(), **meta.get("config", {})}
    tokens = tuple(_TOKENIZERS[meta.get("tokenizer", "words")](stimulus))
    memory = reference.load(doc)
    entries = reference.categorise(
        memory, "visual", tokens,
        meta.get("attention_span") or config["attention_span"],
        config["attention_step"], config["min_fetch"],
        config["link_weighting"])
    net = memory.nets.get("visual")
    image = () if net is None else reference.retrieve(net, tokens)
    return ("".join(f"{label} {conf:.3f}\n" for label, conf in entries),
            " ".join(image) + "\n")


def _run(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, database=None)
@given(st.data())
def test_a_mutated_input_exits_with_its_code_and_one_line(xor_files, data):
    target = data.draw(st.sampled_from(sorted(COMMANDS)))
    command = data.draw(st.sampled_from(COMMANDS[target]))
    with tempfile.TemporaryDirectory(dir=xor_files) as work:
        work = Path(work)
        shutil.copytree(xor_files / "corpus", work / "corpus")
        model = work / "model.json"
        shutil.copyfile(xor_files / "run" / "model.json", model)
        config = work / "config.json"
        shutil.copyfile(xor_files / "config.json", config)
        stimulus = work / "stimulus.txt"
        stimulus.write_text(data.draw(st.sampled_from(STIMULI)),
                            encoding="utf-8")
        manifest = work / "corpus" / "manifest.json"
        path = {"snapshot": model, "stimulus": stimulus, "config": config,
                "manifest": manifest}[target]
        text = path.read_text(encoding="utf-8")
        mutate = {"stimulus": _mutated_text,
                  "snapshot": _mutated_snapshot}.get(target, _mutated_json)
        path.write_text(mutate(data.draw, text), encoding="utf-8")
        query = ["--model", str(model), "--input", str(stimulus)]
        if command in ("categorise", "retrieve"):
            argv = [command, *query]
        elif command == "inspect":
            argv = [command, "--model", str(model), "--nodes"]
        else:
            argv = [command, "--manifest", str(manifest), "--config",
                    str(config), "--out", str(work / "out")]
        code, _, err = _run(argv)
        if target == "snapshot" and \
                _run(["inspect", "--model", str(model)])[0] == 0:
            categorised, retrieved = _reference_answers(
                model.read_text(encoding="utf-8"),
                stimulus.read_text(encoding="utf-8"))
            assert _run(["categorise", *query])[:2] == \
                (0 if categorised else 4, categorised)
            assert _run(["retrieve", *query]) == (0, retrieved, "")
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n")
        if code in (2, 3):
            assert err.startswith("error: ")
        else:
            assert err.startswith("no-activation: ")
