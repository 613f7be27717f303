"""Pattern algebra: worked examples, invariants, and the brute-force oracle."""

import random

import pytest

from chunknet.patterns import Pattern, PatternError, difference


def P(*tokens):
    return Pattern("visual", tuple(tokens))


# -- independent reference implementation (an index loop) --

def difference_oracle(a, b):
    k = 0
    while k < len(a.tokens) and k < len(b.tokens) \
            and a.tokens[k] == b.tokens[k]:
        k += 1
    return list(a.tokens[k:])


def test_difference_examples():
    assert difference(P("A", "B", "F", "C"), P("A", "B", "C")).tokens == ("F", "C")
    assert difference(P("A", "B"), P("B", "C")).tokens == ("A", "B")
    assert difference(P("A", "B"), P("A", "B")).tokens == ()


def test_modality_mismatch_is_usage_error():
    a = Pattern("visual", ("A",))
    b = Pattern("verbal", ("A",))
    with pytest.raises(PatternError):
        difference(a, b)


def test_token_validation():
    with pytest.raises(PatternError):
        Pattern("visual", ("",))
    with pytest.raises(PatternError):
        Pattern("visual", ("a b",))
    with pytest.raises(PatternError):
        Pattern("", ("a",))
    with pytest.raises(PatternError, match="^pattern tokens must be "
                                           "non-empty strings, got 7$"):
        Pattern("visual", ("a", 7))


def test_a_token_list_is_stored_as_a_tuple():
    p = Pattern("visual", ["a", "b"])
    assert p.tokens == ("a", "b") and type(p.tokens) is tuple
    assert p == Pattern("visual", ("a", "b"))


def test_matches_implies_empty_difference():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randrange(0, 7)
        b = tuple(rng.choice("abc") for _ in range(n))
        a = b[: rng.randrange(0, n + 1)]
        pa, pb = P(*a), P(*b)
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
        assert difference(a, b).tokens == tuple(difference_oracle(a, b))

