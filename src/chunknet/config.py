"""Run configuration: every model parameter surfaced, defaulted to the
standard experiment values, so a run with an empty config file reproduces
the reference setup.

STM size 5 chunks; attention span 20 tokens advancing 1 token at a time;
chunk formation probability 1; 10 simulated seconds to create a chunk and
2 to update one.

The module also holds the package's one text reader (:func:`read_text`), its
one JSON reader (:func:`read_json`) and its one JSON writer
(:func:`write_json`), so every input file fails with the same one-line
errors and every pretty JSON file has the same layout.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


# The value types each field annotation accepts, and how a message names
# them: a bool is not an int, and an int is accepted where a float is.
FIELD_TYPES = {"int": ((int,), "an integer"), "str": ((str,), "a string"),
               "float": ((int, float), "a number"),
               "bool": ((bool,), "true or false")}


@dataclass(frozen=True)
class RunConfig:
    stm_size: int = 5
    attention_span: int = 20
    attention_step: int = 1
    min_fetch: int = 2
    chunk_probability: float = 1.0
    seconds_per_new_chunk: float = 10.0
    seconds_per_update: float = 2.0
    seed: int = 0
    shuffle: bool = True              # reshuffle sample order each epoch
    max_epochs: int = 1000
    node_ceiling_factor: int = 10     # abort if nodes exceed factor x tokens
    stm_pairing: str = "head"         # head | position
    link_weighting: str = "proportional"  # proportional | multiplicative

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepted, kind = FIELD_TYPES[f.type]
            if type(value) not in accepted:
                raise ConfigError(f"config field {f.name!r} must be {kind}, "
                                  f"got {value!r}")
        if not 2 <= self.stm_size <= 9:
            raise ConfigError(f"stm_size must be in [2, 9], got {self.stm_size}")
        if not 0.0 <= self.chunk_probability <= 1.0:
            raise ConfigError("chunk_probability must be in [0, 1]")
        if self.attention_span < 2:
            raise ConfigError("attention_span must be >= 2")
        if self.attention_step < 1:
            raise ConfigError("attention_step must be >= 1")
        if not 2 <= self.min_fetch <= self.attention_span:
            raise ConfigError("need 2 <= min_fetch <= attention_span")
        if self.stm_pairing not in ("head", "position"):
            raise ConfigError(f"unknown stm_pairing {self.stm_pairing!r}")
        if self.link_weighting not in ("proportional", "multiplicative"):
            raise ConfigError(f"unknown link_weighting {self.link_weighting!r}")
        if self.max_epochs < 1 or self.node_ceiling_factor < 1:
            raise ConfigError("max_epochs and node_ceiling_factor must be >= 1")
        for name in ("seconds_per_new_chunk", "seconds_per_update"):
            value = getattr(self, name)
            # An integer past the largest float overflows the float clock.
            if not 0 <= value <= sys.float_info.max:
                raise ConfigError(f"config field {name!r} must be a finite "
                                  f"number >= 0, got {reprlib.repr(value)}")

    def to_dict(self) -> dict:
        return asdict(self)


def reject_constant(name: str):
    """``parse_constant`` hook for ``json.loads``: ``NaN``, ``Infinity``
    and ``-Infinity`` are not JSON, so a file holding one is refused."""
    raise ValueError(f"{name} is not a JSON value")


def read_text(path, error: type[Exception], what: str = "file") -> str:
    """The UTF-8 text of the input file at ``path``; raises ``error`` with
    one line naming ``what`` the file is when it is missing, unreadable or
    not UTF-8. Every input the package reads comes through here."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def read_json(path, error: type[Exception], what: str = "file") -> dict:
    """The JSON object in the input file at ``path``, read through
    :func:`read_text`; raises ``error`` with one line naming ``what`` the
    file is when it is not JSON, holds ``NaN`` or an infinity, nests too
    deeply to decode, or is not an object. Every JSON document the package
    reads comes through here."""
    # Read outside the JSON ``try``: the ``error`` classes are ValueErrors.
    text = read_text(path, error, what)
    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise error(f"{what} must be a JSON object")
    return doc


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as JSON indented by 2 with sorted keys and
    a final newline; every such file the package writes comes through
    here."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file; absent file fields keep their defaults."""
    data: dict = {}
    if path is not None:
        raw = read_json(path, ConfigError, "config")
        known = set(RunConfig.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update(raw)
    if overrides:
        data.update(overrides)
    try:
        return RunConfig(**data)
    except (TypeError, ConfigError) as exc:
        where = f"{path}: " if path is not None else ""
        raise ConfigError(f"{where}{exc}") from None
