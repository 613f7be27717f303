"""Pattern algebra: worked examples, invariants, and the brute-force oracle."""

import random

import pytest

from chunknet.patterns import (Pattern, PatternError, difference, equal,
                               matches)


def P(*tokens):
    return Pattern("visual", tuple(tokens))


# -- independent reference implementations (index loops, prefix enumeration) --

def equal_oracle(a, b):
    if len(a.tokens) != len(b.tokens):
        return False
    for i in range(len(a.tokens)):
        if a.tokens[i] != b.tokens[i]:
            return False
    return True


def matches_oracle(a, b):
    # a matches b iff a appears among the prefixes of b
    for k in range(len(b.tokens) + 1):
        if list(a.tokens) == list(b.tokens[:k]):
            return True
    return False


def difference_oracle(a, b):
    k = 0
    while k < len(a.tokens) and k < len(b.tokens) \
            and a.tokens[k] == b.tokens[k]:
        k += 1
    return list(a.tokens[k:])


def test_equal_examples():
    assert equal(P("A", "B"), P("A", "B"))
    assert equal(P(), P())
    assert not equal(P("A", "B"), P("A", "C"))


def test_matches_examples():
    assert matches(P("A", "B", "C"), P("A", "B", "C", "D"))
    assert not matches(P("A", "B", "C"), P("A", "C", "B"))
    assert matches(P(), P("A"))
    # longer never matches shorter (prefix reading)
    assert not matches(P("A", "B", "C", "D"), P("A", "B", "C"))


def test_difference_examples():
    assert difference(P("A", "B", "F", "C"), P("A", "B", "C")).tokens == ("F", "C")
    assert difference(P("A", "B"), P("B", "C")).tokens == ("A", "B")
    assert difference(P("A", "B"), P("A", "B")).tokens == ()


def test_modality_mismatch_is_usage_error():
    a = Pattern("visual", ("A",))
    b = Pattern("verbal", ("A",))
    for op in (equal, matches, difference):
        with pytest.raises(PatternError):
            op(a, b)


def test_token_validation():
    with pytest.raises(PatternError):
        Pattern("visual", ("",))
    with pytest.raises(PatternError):
        Pattern("visual", ("a b",))
    with pytest.raises(PatternError):
        Pattern("", ("a",))


def test_reflexivity_and_equal_implies_matches():
    rng = random.Random(7)
    for _ in range(200):
        toks = tuple(rng.choice("abcde")
                     for _ in range(rng.randrange(0, 7)))
        a = P(*toks)
        assert matches(a, a) and equal(a, a)
        b = P(*toks)
        assert equal(a, b) and matches(a, b) and matches(b, a)


def test_matches_implies_empty_difference():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randrange(0, 7)
        b = tuple(rng.choice("abc") for _ in range(n))
        a = b[: rng.randrange(0, n + 1)]
        pa, pb = P(*a), P(*b)
        assert matches(pa, pb)
        assert difference(pa, pb).tokens == ()


def test_difference_is_suffix_and_reconstructs():
    rng = random.Random(9)
    for _ in range(1000):
        a = tuple(rng.choice("abcd") for _ in range(rng.randrange(0, 7)))
        b = tuple(rng.choice("abcd") for _ in range(rng.randrange(0, 7)))
        pa, pb = P(*a), P(*b)
        d = difference(pa, pb).tokens
        assert d == a[len(a) - len(d):]
        k = len(a) - len(d)  # common-prefix length
        assert a[:k] + d == a
        assert a[:k] == b[:k]


def test_brute_force_oracle_10000_pairs():
    """Acceptance anchor: zero disagreements over 10,000 random pairs."""
    rng = random.Random(20260810)
    alphabet = "abcde"
    for _ in range(10_000):
        a = P(*(rng.choice(alphabet) for _ in range(rng.randrange(0, 7))))
        b = P(*(rng.choice(alphabet) for _ in range(rng.randrange(0, 7))))
        assert equal(a, b) == equal_oracle(a, b)
        assert matches(a, b) == matches_oracle(a, b)
        assert difference(a, b).tokens == tuple(difference_oracle(a, b))

