"""Differential tests of ``recognise``: the package's indexed walk against
the reference's scan of every child in creation order, on learned nets
before and after a snapshot round trip; and the walk of a span of a pattern
against the reference's walk of the copied slice."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chunknet.patterns import Pattern
from test_reference import assert_same, learned, round_trip, token_lists


@st.composite
def nets_and_probes(draw):
    # Two or three tokens and many epochs give multi-token test links and
    # siblings that share a first token.
    alphabet = ["a", "b", "c"][: draw(st.integers(2, 3))]
    patterns = draw(st.lists(token_lists(alphabet, 1), min_size=1,
                             max_size=10))
    epochs = draw(st.integers(1, 12))
    probes = draw(st.lists(token_lists(alphabet + ["z"], 0), max_size=20))
    order = [Pattern("visual", tuple(t)) for t in patterns] * epochs
    return order, [Pattern("visual", tuple(t))
                   for t in [[], *patterns, *probes]]


@settings(deadline=None, database=None)
@given(nets_and_probes())
def test_indexed_recognise_matches_linear_scan(case):
    order, probes = case
    live, ref = learned(order)
    assert_same(live, ref, probes)
    assert_same(*round_trip(live, ref), probes)


@st.composite
def nets_and_spans(draw):
    order, probes = draw(nets_and_probes())
    spans = []
    for probe in probes:
        n = len(probe)
        start = draw(st.integers(0, n))
        end = draw(st.one_of(st.none(), st.integers(start, n)))
        spans.append((probe, start, end))
    return order, spans


@settings(deadline=None, database=None)
@given(nets_and_spans())
def test_span_walk_matches_linear_scan_of_the_slice(case):
    order, spans = case
    live, ref = learned(order)
    net, rnet = live.nets["visual"], ref.nets["visual"]
    for p, start, end in spans:
        assert net.recognise(p, start, end).node_id == \
            rnet.recognise(p.tokens[start:end])
