"""Symbolic token sequences and the three primitive comparisons built on them.

Every capability of the system (recognition, learning, classification) reduces
to three operations on ordered sequences of opaque tokens: exact equality,
prefix matching, and the suffix left over once the longest common prefix is
removed. The first two are plain comparisons of ``Pattern.tokens`` tuples.
The third is an index into the presented pattern: learning familiarises a
node only when its image prefixes the pattern, so the difference starts at
the image's length and is walked in place. :func:`difference` copies it out
and serves only a direct ``familiarise`` call whose image does not
prefix the pattern. Order is significant throughout: "dog bites man" and
"man bites dog" are different patterns.

Patterns are modality-scoped (visual, verbal, ...). Comparing patterns across
modalities is a usage error, never a silent False.
"""

from __future__ import annotations

from dataclasses import dataclass


class PatternError(ValueError):
    """Raised on malformed tokens or cross-modality comparisons."""


@dataclass(frozen=True)
class Pattern:
    """An ordered sequence of symbolic primitives within one modality.

    Tokens are non-empty strings with no whitespace (whitespace is the
    serialization delimiter). The empty pattern is legal; it is a prefix of
    everything.
    """

    modality: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.modality:
            raise PatternError("pattern modality must be non-empty")
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        check_tokens(self.tokens)

    @classmethod
    def derived(cls, modality: str, tokens: tuple[str, ...]) -> "Pattern":
        """A pattern over tokens that were already checked, built without
        checking them again.

        Only for token tuples the program derived from checked tokens: a
        slice of a checked pattern, or a node's test link or image. Snapshot
        loading splits those from single-space-joined text, which gives
        non-empty tokens free of whitespace by construction. Input from
        outside the program goes through the checking constructor.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "modality", modality)
        object.__setattr__(p, "tokens", tokens)
        return p

    def __len__(self) -> int:
        return len(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)

    def to_line(self) -> str:
        """Canonical one-line text form: tokens joined by single spaces."""
        return " ".join(self.tokens)


def check_tokens(tokens: tuple[str, ...]) -> None:
    """Raise :class:`PatternError` unless every token is a non-empty string
    without whitespace."""
    try:
        # Splitting the joined tokens gives them back exactly iff each one
        # is non-empty and free of whitespace; only a failure needs the loop.
        if " ".join(tokens).split() == list(tokens):
            return
    except TypeError:
        pass
    for tok in tokens:
        if not isinstance(tok, str) or not tok:
            raise PatternError(
                f"pattern tokens must be non-empty strings, got {tok!r}")
        if any(ch.isspace() for ch in tok):
            raise PatternError(f"pattern token contains whitespace: {tok!r}")


def difference(a: Pattern, b: Pattern) -> Pattern:
    """``a`` with its longest common prefix with ``b`` removed.

    difference(a, a) is empty; when the patterns share no leading tokens the
    result is ``a`` unchanged.
    """
    if a.modality != b.modality:
        raise PatternError(
            f"modality mismatch: {a.modality!r} vs {b.modality!r}"
        )
    k = 0
    for x, y in zip(a.tokens, b.tokens):
        if x != y:
            break
        k += 1
    return Pattern.derived(a.modality, a.tokens[k:])
