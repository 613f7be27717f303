"""Attention window, chunk activation, confidence, and the read commands."""

import random

import pytest

from chunknet import attention
from chunknet.attention import (AttentionConfig, AttentionError, categorise,
                                confidence, retrieve, window_groups)
import reference
from chunknet.network import DiscriminationNet, MultiModalMemory
from chunknet.patterns import Pattern
from chunknet.snapshot import dump_memory
from test_reference import load_rows, recognise_calls


def P(*tokens):
    return Pattern("visual", tuple(tokens))


def L(token):
    return Pattern("verbal", (token,))


def window_spans(stimulus, cfg):
    """Every fetch the attention window emits, in order, as the (start, end)
    index range of the stimulus that ``categorise`` recognises: a group's
    window ends at min(group.start + span, len(stimulus))."""
    n = len(stimulus)
    return [(start, min(group.start + cfg.span, n))
            for group in window_groups(stimulus, cfg) for start in group]


def window_fetches(stimulus, cfg):
    """The tokens of every fetch, in order."""
    return [stimulus.tokens[start:end]
            for start, end in window_spans(stimulus, cfg)]


class TestWindowFetches:
    def test_shrink_then_advance(self):
        # five tokens, span 3, step 3: full window, its shrink, then the
        # truncated tail window
        stimulus = P("p1", "p2", "p3", "p4", "p5")
        cfg = AttentionConfig(span=3, step=3)
        assert window_groups(stimulus, cfg) == [range(0, 2), range(3, 4)]
        assert window_spans(stimulus, cfg) == [(0, 3), (1, 3), (3, 5)]
        assert window_fetches(stimulus, cfg) == [
            ("p1", "p2", "p3"), ("p2", "p3"), ("p4", "p5")]

    def test_short_stimulus_truncates(self):
        stimulus = P("p1", "p2")
        cfg = AttentionConfig(span=3)
        assert window_groups(stimulus, cfg) == [range(0, 1)]
        assert window_fetches(stimulus, cfg) == [("p1", "p2")]

    def test_single_token_yields_nothing(self):
        assert window_groups(P("p1"), AttentionConfig()) == []

    def test_empty_stimulus_is_usage_error(self):
        with pytest.raises(AttentionError):
            window_groups(P(), AttentionConfig())

    def test_occluded_word_contains_the_full_word_fetch(self):
        stimulus = P(*"zzLiverpool")
        cfg = AttentionConfig(span=11)
        assert (2, 11) in window_spans(stimulus, cfg)
        assert tuple("Liverpool") in window_fetches(stimulus, cfg)

    def test_each_window_emitted_exactly_once(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 12)
            cfg = AttentionConfig(span=rng.randrange(2, 8),
                                  step=rng.randrange(1, 4))
            stimulus = P(*(f"t{i}" for i in range(n)))
            for group in window_groups(stimulus, cfg):
                assert isinstance(group, range) and group.step == 1
            spans = window_spans(stimulus, cfg)
            for start, end in spans:
                assert 0 <= start and end <= n
                assert cfg.min_fetch <= end - start <= cfg.span
            assert len(set(spans)) == len(spans)

    def test_groups_follow_the_offset_formula(self):
        # oracle: for offset o the span ends at min(o+span, n) and starts
        # shrink from o; dedupe keeps first emission
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randrange(1, 12)
            cfg = AttentionConfig(span=rng.randrange(2, 8),
                                  step=rng.randrange(1, 4))
            stimulus = P(*(f"t{i}" for i in range(n)))
            expected = []
            emitted = set()
            for offset in range(0, n, cfg.step):
                end = min(offset + cfg.span, n)
                group = []
                for start in range(offset, end - cfg.min_fetch + 1):
                    if (start, end) not in emitted:
                        emitted.add((start, end))
                        group.append((start, end))
                if group:
                    expected.append(group)
            groups = window_groups(stimulus, cfg)
            assert [[(start, min(g.start + cfg.span, n)) for start in g]
                    for g in groups] == expected
            assert [g.start for g in groups] == \
                [i * cfg.step for i in range(len(groups))]

    def test_config_validation(self):
        with pytest.raises(AttentionError):
            AttentionConfig(span=1)
        with pytest.raises(AttentionError):
            AttentionConfig(step=0)
        with pytest.raises(AttentionError):
            AttentionConfig(span=5, min_fetch=1)
        for field, value in [("span", 20.0), ("step", True), ("step", 1.0),
                             ("min_fetch", False), ("min_fetch", "2")]:
            with pytest.raises(AttentionError, match=field):
                AttentionConfig(**{field: value})


def learn_to_fixed_point(net, pattern):
    for _ in range(100):
        if net.learn(pattern).kind == "no_change":
            return
    raise AssertionError(f"no fixed point for {pattern.tokens}")


def build_memory(links):
    """memory with one fully learned visual chunk per
    (pattern, label, count) triple."""
    memory = MultiModalMemory()
    visual = memory.net("visual")
    verbal = memory.net("verbal")
    for pattern, label, count in links:
        learn_to_fixed_point(visual, pattern)
        learn_to_fixed_point(verbal, L(label))
        node = visual.recognise(pattern)
        label_node = verbal.recognise(L(label))
        for _ in range(count):
            memory.add_naming_link("visual", node.node_id,
                                   label_node.node_id)
    return memory


class TestAccumulate:
    """How the chunks retrieved by ``categorise`` add up their votes."""

    def test_root_fetch_adds_nothing(self):
        memory = build_memory([(P("1", "0"), "T", 1)])
        cls = categorise(memory, P("9", "9"), AttentionConfig())
        assert cls.no_activation and cls.entries == ()

    def test_link_share_splits_proportionally(self):
        memory = build_memory([(P("1", "0"), "T", 3)])
        net = memory.net("visual")
        verbal = memory.label_net
        for _ in range(2):
            verbal.learn(L("F"))
        node = net.recognise(P("1", "0"))
        f_node = verbal.recognise(L("F"))
        memory.add_naming_link("visual", node.node_id, f_node.node_id)
        cls = categorise(memory, P("1", "0"), AttentionConfig())
        assert cls.entries == (("T", 3 / 4), ("F", 1 / 4))

    def test_larger_chunk_outvotes_fragment(self):
        # chunks: the whole word (label A) and its three-letter fragment
        # (label B); an occluded stimulus still goes to A
        memory, _ = load_rows({
            "visual": [[0, "L", " ".join("Liverpool"), True, {"1": 1}],
                       [0, "i", "L i v", True, {"2": 1}]],
            "verbal": [[0, "A", "A", True, {}], [0, "B", "B", True, {}]]})
        cls = categorise(memory, P(*"zLiverzool"), AttentionConfig())
        assert cls.top == "A"


class TestConfidence:
    def test_table_style_shares(self):
        memory = build_memory([(P("m", "m"), "Mozart", 1),
                               (P("b", "b"), "Beethoven", 1),
                               (P("c", "c"), "Bach", 1)])
        verbal = memory.net("verbal")
        ids = {memory.label_name(n.node_id): n.node_id
               for n in verbal.nodes() if n.node_id != 0}
        cls = confidence({ids["Mozart"]: 6.0, ids["Beethoven"]: 3.0,
                          ids["Bach"]: 1.0}, memory)
        assert cls.entries == (("Mozart", 0.6), ("Beethoven", 0.3),
                               ("Bach", 0.1))

    def test_single_label_full_confidence(self):
        memory = build_memory([(P("1", "0"), "T", 1)])
        cls = categorise(memory, P("1", "0"), AttentionConfig())
        assert cls.entries == (("T", 1.0),)

    def test_zero_tally_is_no_activation_marker(self):
        memory = build_memory([(P("1", "0"), "T", 1)])
        cls = confidence({}, memory)
        assert cls.no_activation and cls.entries == ()
        assert cls.top is None

    def test_normalisation_and_scale_invariance(self):
        rng = random.Random(21)
        memory = build_memory([(P("a", "a"), "A", 1), (P("b", "b"), "B", 1),
                               (P("c", "c"), "C", 1)])
        ids = [n.node_id for n in memory.label_net.nodes() if n.node_id != 0]
        for _ in range(2000):
            activations = {label_id: rng.random() * rng.choice([0.01, 1, 50])
                           for label_id in ids}
            cls = confidence(activations, memory)
            assert abs(sum(c for _, c in cls.entries) - 1.0) < 1e-9
            lam = rng.uniform(0.1, 90.0)
            cls2 = confidence({label_id: a * lam
                               for label_id, a in activations.items()},
                              memory)
            assert [l for l, _ in cls.entries] == [l for l, _ in cls2.entries]

    def test_tie_order_follows_label_creation(self):
        memory = build_memory([(P("x", "x"), "T", 1), (P("y", "y"), "F", 1)])
        ids = {memory.label_name(n.node_id): n.node_id
               for n in memory.label_net.nodes() if n.node_id != 0}
        cls = confidence({ids["F"]: 1.0, ids["T"]: 1.0}, memory)
        assert [l for l, _ in cls.entries] == ["T", "F"]  # T created first


class TestCategorise:
    def test_does_not_mutate_the_net(self):
        memory = build_memory([(P("1", "0"), "T", 2), (P("1", "1"), "F", 2)])
        net = memory.net("visual")
        nodes_before = net.node_count
        images_before = {n.node_id: n.image for n in net.nodes()}
        categorise(memory, P("1", "0", "1", "1"), AttentionConfig())
        assert net.node_count == nodes_before
        assert {n.node_id: n.image for n in net.nodes()} == images_before

    @pytest.mark.parametrize("trained", [False, True])
    def test_a_missing_net_is_not_made(self, trained):
        # Classifying leaves the memory, missing nets included, as it was.
        memory = MultiModalMemory()
        if trained:
            learn_to_fixed_point(memory.net("verbal"), L("T"))
        before = dump_memory(memory)
        assert categorise(memory, P("1", "0"), AttentionConfig()) \
            .no_activation
        assert dump_memory(memory) == before
        assert "visual" not in memory.nets

    def test_untrained_memory_yields_no_activation(self):
        memory = MultiModalMemory()
        memory.net("visual").learn(P("1", "0"))
        cls = categorise(memory, P("1", "0"), AttentionConfig())
        assert cls.no_activation

    def test_occlusion_dominance_property(self):
        # any stimulus embedding the full letter subsequence of exactly one
        # trained word plus unknown noise resolves to that word's label
        memory = build_memory([(P(*"Liverpool"), "A", 2),
                               (P(*"Manchester"), "B", 2)])
        rng = random.Random(31)
        words = {"A": "Liverpool", "B": "Manchester"}
        for _ in range(300):
            label = rng.choice(["A", "B"])
            letters = list(words[label])
            n_noise = rng.randint(1, len(letters))  # up to 50% of the result
            for _ in range(n_noise):
                letters.insert(rng.randint(0, len(letters)), "z")
            cls = categorise(memory, P(*letters), AttentionConfig(span=20))
            assert cls.top == label

    def test_a_chunk_longer_than_the_window_is_not_fetched(self):
        # span 2: the first window is "a b", so the fetch there recognises
        # "a b" (label F), not the longer sibling "a b c" (label T) that runs
        # past the window's end
        memory, _ = load_rows({
            "visual": [[0, "a b c", "a b c", True, {"1": 1}],
                       [0, "a b", "a b", True, {"2": 1}]],
            "verbal": [[0, "T", "T", True, {}], [0, "F", "F", True, {}]]})
        cls = categorise(memory, P("a", "b", "c"), AttentionConfig(span=2))
        assert cls.entries == (("F", 1.0),)

    def test_a_walk_past_the_window_end_is_redone_from_the_root(self):
        # Under "x", the first sibling "a b c" (label T) runs past the first
        # window's end, while the later sibling "a" and its child "b"
        # (label F) fit. Reusing the unbounded walk would vote T; cutting it
        # back to its ancestor "x" (label X) would vote X.
        memory, ref = load_rows({
            "visual": [[0, "x", "x", True, {"3": 1}],
                       [1, "a b c", "x a b c", True, {"1": 1}],
                       [1, "a", "x a", True, {}],
                       [3, "b", "x a b", True, {"2": 1}]],
            "verbal": [[0, "T", "T", True, {}], [0, "F", "F", True, {}],
                       [0, "X", "X", True, {}]]})
        cases = [(P("x", "a", "b", "c"), 3, "F"),
                 (P("x", "a", "b", "c"), 4, "T"),   # one window position
                 (P("x", "a", "b", "c", "c"), 4, "T"),
                 # the same start in a new stimulus is walked afresh
                 (P("x", "a", "b", "d", "d"), 4, "F")]
        for stimulus, span, label in cases:
            cls = categorise(memory, stimulus, AttentionConfig(span=span))
            assert cls.entries == ((label, 1.0),)
            assert cls.entries == reference.categorise(
                ref, "visual", stimulus.tokens, span)

    @pytest.mark.parametrize("tokens, min_fetch", [
        (("a",), 2), (("a", "b"), 3)])
    def test_a_stimulus_shorter_than_min_fetch_walks_nothing(self, tokens,
                                                             min_fetch):
        memory, _ = load_rows({
            "visual": [[0, "a", "a", True, {"1": 1}],
                       [1, "b", "a b", True, {"1": 1}]],
            "verbal": [[0, "T", "T", True, {}]]})
        cfg = AttentionConfig(span=4, min_fetch=min_fetch)
        assert categorise(memory, P(*tokens), cfg).no_activation
        assert recognise_calls(memory, P(*tokens), cfg) == 0

    @pytest.mark.parametrize("tokens, label", [
        (("a", "b", "c", "d"), "T"), (("c", "d", "a", "b"), "F")])
    def test_the_earlier_of_two_equal_winners_votes(self, tokens, label):
        # One window holds "a b" (label T) and "c d" (label F), both of
        # size 2, at starts 0 and 2; the earlier start's chunk votes.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [0, "c d", "c d", True, {"2": 1}]],
            "verbal": [[0, "T", "T", True, {}], [0, "F", "F", True, {}]]})
        cls = categorise(memory, P(*tokens), AttentionConfig(span=4))
        assert cls.entries == ((label, 1.0),)
        assert cls.entries == reference.categorise(ref, "visual", tokens, 4)

    def test_one_call_fetches_its_windows_once(self, monkeypatch):
        # The benchmark counts fetches through ``window_groups``.
        calls = []

        def counted(stimulus, cfg):
            calls.append(stimulus)
            return window_groups(stimulus, cfg)
        monkeypatch.setattr(attention, "window_groups", counted)
        memory = build_memory([(P("1", "0"), "T", 2)])
        for tokens in (("1", "0", "1", "1", "0"), ("1",)):
            calls.clear()
            categorise(memory, P(*tokens), AttentionConfig(span=3))
            assert calls == [P(*tokens)]


def scanned_like_the_reference(memory, ref, stimulus, cfg):
    """``categorise``'s result, after checking that its entries and its
    number of ``recognise`` calls equal the reference's."""
    args = (stimulus.tokens, cfg.span, cfg.step, cfg.min_fetch)
    cls = categorise(memory, stimulus, cfg)
    assert cls.entries == reference.categorise(ref, "visual", *args)
    assert recognise_calls(memory, stimulus, cfg) == \
        reference.walks(ref.nets["visual"], *args)
    return cls


TF = [[0, "T", "T", True, {}], [0, "F", "F", True, {}]]


class TestScanSkips:
    """The scan walks once each held start whose token the net's
    ``linked_tokens`` maps to None or to the next token, and each walk
    updates the windows that hold its start. A window whose end a path
    passes gets that path cut back to its deepest node that fits, and the
    fetch is walked again from the root only where a later sibling could
    lead elsewhere. Starts at tokens that lead into no root subtree, such as
    "x" below, are not walked. In the tests before
    ``test_starts_whose_second_token_leads_to_no_link_are_not_walked``,
    every start whose token leads to a link is followed by a token that
    does too, so their walk counts are those of the first-token rule."""

    def test_a_re_walk_alone_votes(self):
        # The unlinked chunk "a b c d" sits over its linked prefix "a b":
        # no unbounded walk votes, but the first window (end 3) cuts start
        # 0's path and its bounded re-walk stops at "a b". Starts 1 and 2
        # ("b", "c") lead into no root subtree and are not walked.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [1, "c d", "a b c d", True, {}]],
            "verbal": TF})
        stimulus = P("a", "b", "c", "d")
        cls = scanned_like_the_reference(memory, ref, stimulus,
                                         AttentionConfig(span=3))
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, stimulus, AttentionConfig(span=3)) \
            == 1
        # One window, nothing passed and nothing votes.
        assert scanned_like_the_reference(memory, ref, stimulus,
                                          AttentionConfig(span=4)) \
            .no_activation

    def test_a_walk_one_token_past_min_fetch_is_re_walked(self):
        # "a b c" has min_fetch + 1 tokens; from start 1 it reaches 4, past
        # the end (3) of the one earlier window that holds start 1, whose
        # re-walk votes "a b". Its unbounded walk never votes. Start 1 is
        # the only one walked: "x" and "b" start no root child.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [1, "c", "a b c", True, {}]],
            "verbal": TF})
        stimulus = P("x", "a", "b", "c")
        cfg = AttentionConfig(span=3, min_fetch=2)
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, stimulus, cfg) == 1

    def test_a_later_sibling_is_walked_from_the_root(self):
        # Start 0's path "a b c" passes the first window's end (2) and cuts
        # back to the root, which lists the later sibling "a" after it:
        # only a walk from the root finds "a", the one voter. Starts 1 and
        # 2 ("b", "c") start no root child and are not walked.
        memory, ref = load_rows({
            "visual": [[0, "a b c", "a b c", True, {}],
                       [0, "a", "a", True, {"1": 1}]],
            "verbal": TF})
        stimulus = P("a", "b", "c", "d")
        cfg = AttentionConfig(span=2)
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, stimulus, cfg) == 1 + 1

    def test_a_cut_that_uses_up_the_window_is_not_re_walked(self):
        # Start 0's path "a b c d" cuts back to "a b" at the first window's
        # end (2), and "a b" lists the later sibling "c" after "c d"; but no
        # token is left there, so nothing is walked again. Only start 0 is
        # walked: "b" and "c" start no root child.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [1, "c d", "a b c d", True, {}],
                       [1, "c", "a b c", True, {"2": 1}]],
            "verbal": TF})
        stimulus = P("a", "b", "c", "d")
        cfg = AttentionConfig(span=2)
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, stimulus, cfg) == 1

    def test_passed_windows_cut_back_to_one_ancestor(self):
        # Start 2's path "a b c d e" reaches 7, past the ends (4, 5, 6) of
        # the three windows that hold it. One climb cuts it back to the
        # linked "a b" for all three: at end 4 the cut uses up the window,
        # at 5 and 6 "c d e" is the last child under "c". There "a b"
        # outvotes the "x" (F, size 1) of starts 0 and 1. No start is
        # walked twice, and starts 3 to 5 ("b", "c", "d") start no root
        # child, so only starts 0 to 2 are walked.
        memory, ref = load_rows({
            "visual": [[0, "x", "x", True, {"2": 1}],
                       [0, "a b", "a b", True, {"1": 1}],
                       [2, "c d e", "a b c d e", True, {}]],
            "verbal": TF})
        stimulus = P("x", "x", "a", "b", "c", "d", "e")
        cfg = AttentionConfig(span=4)
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, stimulus, cfg) == 3

    def test_one_climb_falls_back_at_one_window_and_cuts_at_others(self):
        # Start 2's path is "a b", "c", "d e f". At end 6 it cuts back to
        # "a b c", which lists the later sibling "d" after "d e f", so the
        # fetch is walked again and finds "a b c d" (T, size 4). At end 5
        # the cut "a b c" (F, size 3) and at end 4 the cut "a b" (T, size
        # 2) use up the window. No other start is walked: only "a" starts a
        # root child.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [1, "c", "a b c", True, {"2": 1}],
                       [2, "d e f", "a b c d e f", True, {}],
                       [2, "d", "a b c d", True, {"1": 1}]],
            "verbal": TF})
        stimulus = P("x", "x", "a", "b", "c", "d", "e", "f")
        cfg = AttentionConfig(span=4)
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("T", 2 / 3), ("F", 1 / 3))
        assert recognise_calls(memory, stimulus, cfg) == 1 + 1

    def test_starts_into_linkless_subtrees_are_not_walked(self):
        """A start at ``t``, followed by ``u``, is walked only if the net's
        ``linked_tokens`` maps ``t`` to None (a linked chunk's contents are
        ``t`` alone) or to a set holding ``u`` (a linked chunk's contents
        start ``t u``). The skip is exact. A walk from the start consumes
        the tokens from ``t`` on, so every node of its path has contents
        that prefix them; so has every cut of that path, and so has the end
        of a bounded re-walk of one of its fetches, which starts at the same
        token. Such contents are the root's, ``t`` alone, or start ``t u``.
        Unless the map says so, none of these nodes carries a naming link,
        and the root never does. So the start's walks change no entry of
        ``sizes`` or ``winners``: it casts no vote, cuts no window's, and
        skipping it drops walks only. A start leaves ``min_fetch`` >= 2
        tokens, so ``u`` exists. Here every token leads into a root subtree
        without a link, or into none."""
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [0, "c", "c", True, {}],
                       [2, "d e", "c d e", True, {}],
                       [0, "f", "f", True, {}]],
            "verbal": TF})
        assert memory.nets["visual"].linked_tokens == {"a": {"b"}}
        stimulus = P("c", "d", "e", "f", "c", "d")
        cfg = AttentionConfig(span=4)
        assert scanned_like_the_reference(memory, ref, stimulus, cfg) \
            .no_activation
        assert recognise_calls(memory, stimulus, cfg) == 0

    def test_a_link_added_after_a_load_makes_its_subtree_vote(self):
        # Node 3 "c d e" gets its first link after the load: the climb from
        # it maps "c", its root child's token, to "d", and start 0 walks to
        # it and votes. The starts at "d" and "e" are still not walked.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [0, "c", "c", True, {}],
                       [2, "d e", "c d e", True, {}]],
            "verbal": TF})
        stimulus = P("c", "d", "e")
        cfg = AttentionConfig(span=4)
        assert recognise_calls(memory, stimulus, cfg) == 0
        memory.add_naming_link("visual", 3, 2)
        ref.nets["visual"].nodes[3].links[2] = 1
        assert memory.nets["visual"].linked_tokens == {"a": {"b"},
                                                       "c": {"d"}}
        cls = scanned_like_the_reference(memory, ref, stimulus, cfg)
        assert cls.entries == (("F", 1.0),)
        assert recognise_calls(memory, stimulus, cfg) == 1

    def test_starts_whose_second_token_leads_to_no_link_are_not_walked(self):
        # Root child "t" holds the linked "t u" and the linkless "t w x", so
        # "t" maps to "u" alone: a start at "t" before "w" cannot vote and
        # is not walked, and one before "u" is walked and votes.
        memory, ref = load_rows({
            "visual": [[0, "t", "t", True, {}],
                       [1, "u", "t u", True, {"1": 1}],
                       [1, "w x", "t w x", True, {}]],
            "verbal": TF})
        net = memory.nets["visual"]
        assert net.linked_tokens == {"t": {"u"}}
        cfg = AttentionConfig(span=4)
        unlinked = P("t", "w", "x", "t", "w", "x")
        assert scanned_like_the_reference(memory, ref, unlinked, cfg) \
            .no_activation
        assert recognise_calls(memory, unlinked, cfg) == 0
        linked = P("t", "w", "x", "t", "u", "x")
        cls = scanned_like_the_reference(memory, ref, linked, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, linked, cfg) == 1
        # A link on the one-token chunk "t" maps "t" to None as well, so
        # every start at "t" walks: starts 0 and 3 of each stimulus. Start
        # 3's path "t w x" passes the end of the window at offset 1, which
        # cuts it back to "t", now a voter; start 0's path ends inside
        # every window that holds it, at the linkless "t w x".
        memory.add_naming_link("visual", 1, 2)
        ref.nets["visual"].nodes[1].links[2] = 1
        assert net.linked_tokens == {"t": {"u", None}}
        cls = scanned_like_the_reference(memory, ref, unlinked, cfg)
        assert cls.entries == (("F", 1.0),)
        assert recognise_calls(memory, unlinked, cfg) == 2
        cls = scanned_like_the_reference(memory, ref, linked, cfg)
        assert cls.entries == (("T", 1.0),)
        assert recognise_calls(memory, linked, cfg) == 2

    @pytest.mark.parametrize("tokens, step, entries", [
        # Windows (span 4, step 3) hold starts 0-2, 3-5 and 6. "a b" votes
        # from the first start of the first window, "c d" from the last
        # start of the second.
        ("a b x x x c d y", 3, (("T", 0.5), ("F", 0.5))),
        # "a b" from the last start of the first window, "c d" from the
        # only start of the last.
        ("x x a b x x c d", 3, (("T", 0.5), ("F", 0.5))),
        # At step 1 a start is in up to three windows, and it votes in
        # each one whose other starts it outvotes.
        ("a b x x x c d y", 1, (("F", 2 / 3), ("T", 1 / 3))),
        ("x a b x c d", 1, (("T", 2 / 3), ("F", 1 / 3))),
        # Step 4 leaves start 3 in a gap (windows hold starts 0-2 and
        # 4-6): "a b" there never votes, and "c d" does. At step 3 start 3
        # is the first of a window, and "a b" outvotes the later "c d".
        ("x x x a b c d y", 4, (("F", 1.0),)),
        ("x x x a b c d y", 3, (("T", 1.0),)),
        # Nine tokens: the window at offset 8 holds no start and is
        # dropped, so the last window is the one at offset 4.
        ("x x x a b c d y z", 4, (("F", 1.0),)),
    ])
    def test_voting_starts_at_window_edges(self, tokens, step, entries):
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 1}],
                       [0, "c d", "c d", True, {"2": 1}]],
            "verbal": TF})
        cfg = AttentionConfig(span=4, step=step, min_fetch=2)
        cls = scanned_like_the_reference(memory, ref, P(*tokens.split()),
                                         cfg)
        assert cls.entries == entries


class TestLabelNames:
    def test_a_label_name_is_its_contents_line(self):
        # Label nodes at depths 1 to 3, with multi-token test links.
        memory, ref = load_rows({
            "visual": [[0, "a b", "a b", True, {"1": 2}],
                       [0, "c d", "c d", True, {"3": 1, "4": 1}]],
            "verbal": [[0, "al pha", "al pha", True, {}],
                       [1, "x", "al pha x", True, {}],
                       [2, "be ta", "al pha x be ta", True, {}],
                       [0, "g", "g", True, {}]]})
        names = {i: memory.label_name(i) for i in range(1, 5)}
        assert names == {i: memory.label_net.contents(i).to_line()
                         for i in range(1, 5)}
        assert names == {1: "al pha", 2: "al pha x", 3: "al pha x be ta",
                         4: "g"}
        cfg = AttentionConfig(span=2, step=2)
        cls = scanned_like_the_reference(memory, ref, P("a", "b", "c", "d"),
                                         cfg)
        assert cls.entries == ((names[1], 0.5), (names[3], 0.25),
                               (names[4], 0.25))


def two_position_memory():
    """Chunks voting at two window positions of "a b c d e" (span 3, step
    3): "a b c" (size 3, links T:1 F:1) beats its own fragment "b c" (size
    2, links F:5) at the first position, and "d e" (size 2, links T:3)
    votes at the second."""
    memory, _ = load_rows({
        "visual": [[0, "a b c", "a b c", True, {"1": 1, "2": 1}],
                   [0, "b c", "b c", True, {"2": 5}],
                   [0, "d e", "d e", True, {"1": 3}]],
        "verbal": [[0, "T", "T", True, {}], [0, "F", "F", True, {}]]})
    return memory


class TestLinkWeighting:
    STIMULUS = P("a", "b", "c", "d", "e")
    CFG = AttentionConfig(span=3, step=3)

    def test_two_window_positions(self):
        assert window_groups(self.STIMULUS, self.CFG) == [range(0, 2),
                                                          range(3, 4)]
        assert window_fetches(self.STIMULUS, self.CFG) == [
            ("a", "b", "c"), ("b", "c"), ("d", "e")]

    @pytest.mark.parametrize("weighting, entries", [
        # each winner adds size * (count / its link total):
        # T = 3 * 1/2 + 2 * 3/3 = 3.5, F = 3 * 1/2 = 1.5, of 5
        ("proportional", (("T", 0.7), ("F", 0.3))),
        # each winner adds size * count:
        # T = 3 * 1 + 2 * 3 = 9, F = 3 * 1 = 3, of 12
        ("multiplicative", (("T", 0.75), ("F", 0.25))),
    ])
    def test_hand_computed_confidences(self, weighting, entries):
        cls = categorise(two_position_memory(), self.STIMULUS, self.CFG,
                         link_weighting=weighting)
        assert cls.entries == entries

    def test_unknown_weighting_is_usage_error(self):
        with pytest.raises(AttentionError):
            categorise(two_position_memory(), self.STIMULUS, self.CFG,
                       link_weighting="additive")


class TestRetrieve:
    def test_returns_the_recognised_image(self):
        memory, _ = load_rows({"visual": [[0, "A", "A B C", False, {}],
                                          [1, "B", "A B", False, {}]]})
        net = memory.nets["visual"]
        assert retrieve(net, P("A", "B", "C")).tokens == ("A", "B")

    def test_unknown_input_returns_empty(self):
        net = DiscriminationNet("visual")
        assert retrieve(net, P("D")).tokens == ()

    def test_fully_known_pattern_returns_itself(self):
        net = DiscriminationNet("visual")
        for _ in range(3):
            net.learn(P("A", "B"))
            net.learn(P("A"))
            net.learn(P("B"))
        assert retrieve(net, P("A", "B")).tokens == ("A", "B")
