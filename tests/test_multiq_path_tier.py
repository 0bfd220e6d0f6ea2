"""Differential suite for multiq's shared path tier.

Every predicate-free query of a :class:`~repro.multiq.MultiQueryEngine`
is a trunk of one lazy DFA that the router feeds only the tags some
trunk names.  The DFA fills the levels it did not see, so the suite
checks it against a separate :class:`XPathStream` per query on seeded
recursive documents whose untracked tags leave gaps at every depth:
pull, push, chunked push, snapshot/restore at every chunk boundary,
queries added mid-stream, trunks removed mid-stream, and the state-cap
fallback under gaps.
"""

import json
import random

import pytest

from repro.compile.dfa import DfaPathM
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.multiq import MultiQueryEngine
from repro.stream.events import EndElement, StartElement
from repro.stream.tokenizer import XmlTokenizer, parse_string

#: ``x`` and ``y`` are named by no query: elements carrying them are
#: never delivered to the path tier, so its DFA sees level gaps.
TAGS = ("a", "b", "c", "x", "y")

QUERIES = {
    "ab": "//a//b",
    "ab_dup": "//a//b",
    "a_b": "//a/b",
    "rooted": "/r/a",
    "deep": "//a//a//c",
    "child": "//b/c",
    "pred": "//a[c]//b",
}

WILD = {**QUERIES, "wild": "//a/*/c"}


def recursive_document(seed: int) -> str:
    rng = random.Random(seed)

    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        if depth >= 7 or rng.random() < 0.25:
            return f"<{tag}/>"
        body = "".join(element(depth + 1) for _ in range(rng.randint(1, 3)))
        return f"<{tag}>{body}</{tag}>"

    return "<r>" + "".join(element(1) for _ in range(rng.randint(2, 4))) + "</r>"


def chunked(text: str, size: int = 7) -> list[str]:
    return [text[i:i + size] for i in range(0, len(text), size)]


def separate(queries: dict, doc: str) -> dict:
    return {name: XPathStream(q).evaluate(doc) for name, q in queries.items()}


def events_after(chunks: list[str], cut: int) -> list:
    """The events the chunks from ``cut`` on produce, parsed in context."""
    tokenizer = XmlTokenizer()
    for chunk in chunks[:cut]:
        list(tokenizer.feed(chunk))
    events = []
    for chunk in chunks[cut:]:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_pull_matches_separate_streams(seed):
    doc = recursive_document(seed)
    engine = MultiQueryEngine(QUERIES)
    assert engine.evaluate(doc) == separate(QUERIES, doc)
    tier = engine.registration("ab").unit
    assert not tier.wants_all
    assert tier.interest == {"a", "b", "c", "r"}
    assert not tier.engine.fell_back


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("queries", [QUERIES, WILD], ids=["routed", "wildcard"])
def test_push_and_chunked_push(seed, queries):
    doc = recursive_document(seed)
    expected = separate(queries, doc)
    assert MultiQueryEngine(queries).evaluate_push(doc) == expected
    engine = MultiQueryEngine(queries)
    for chunk in chunked(doc):
        engine.feed_text_push(chunk)
    assert engine.close() == expected


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_snapshot_restore_every_chunk_boundary(seed):
    doc = recursive_document(seed)
    expected = separate(QUERIES, doc)
    chunks = chunked(doc, 11)
    for cut in range(len(chunks) + 1):
        engine = MultiQueryEngine(QUERIES)
        for chunk in chunks[:cut]:
            engine.feed_text_push(chunk)
        snap = json.loads(json.dumps(engine.snapshot()))
        resumed = MultiQueryEngine.restore(snap)
        for chunk in chunks[cut:]:
            resumed.feed_text_push(chunk)
        assert resumed.close() == expected, f"cut at chunk {cut}"


@pytest.mark.parametrize("seed", SEEDS)
def test_live_add_mid_stream(seed):
    """A path query added mid-stream evaluates the rest of the stream
    exactly as a fresh stream over the remaining events would."""
    doc = recursive_document(seed)
    chunks = chunked(doc)
    cut = len(chunks) // 2
    late = {"late_ab": "//a//b", "late_new": "//b//c", "late_wild": "//*/b"}
    engine = MultiQueryEngine(QUERIES)
    for chunk in chunks[:cut]:
        engine.feed_text_push(chunk)
    for name, query in late.items():
        engine.add_query(name, query)
    for chunk in chunks[cut:]:
        engine.feed_text_push(chunk)
    results = engine.close()
    rest = events_after(chunks, cut)
    for name, query in late.items():
        assert results[name] == XPathStream(query).evaluate(iter(rest)), name
    for name in QUERIES:
        assert results[name] == separate(QUERIES, doc)[name], name


@pytest.mark.parametrize("seed", SEEDS)
def test_remove_trunk_mid_stream(seed):
    """Removing queries mid-stream — one of two sharers of a trunk, and
    the whole of another trunk — leaves every other query unchanged,
    also across a snapshot taken after the removal."""
    doc = recursive_document(seed)
    chunks = chunked(doc)
    cut = len(chunks) // 2
    engine = MultiQueryEngine(QUERIES)
    for chunk in chunks[:cut]:
        engine.feed_text_push(chunk)
    tier = engine.registration("ab").unit
    trunks = tier.engine.trunk_count
    engine.remove_query("ab_dup")
    engine.remove_query("a_b")
    assert tier.engine.trunk_count == trunks - 1
    resumed = MultiQueryEngine.restore(json.loads(json.dumps(engine.snapshot())))
    for chunk in chunks[cut:]:
        resumed.feed_text_push(chunk)
    results = resumed.close()
    expected = separate(QUERIES, doc)
    assert set(results) == set(QUERIES) - {"ab_dup", "a_b"}
    for name, ids in results.items():
        assert ids == expected[name], name


def _routed_dfa(paths: dict, cap: int):
    sinks = {name: CollectingSink() for name in paths}
    names = list(paths)
    dfa = DfaPathM(paths[names[0]], sink=sinks[names[0]], state_cap=cap)
    for name in names[1:]:
        dfa.add_trunk(paths[name], sinks[name])
    return dfa, sinks


@pytest.mark.parametrize("seed", range(0, 40, 4))
@pytest.mark.parametrize("cap", [2, 5])
def test_state_cap_fallback_under_gaps(seed, cap):
    """Past the state cap a multi-trunk DFA hands over to one PathM per
    trunk mid-document, replaying only the levels it saw; a snapshot of
    the fallen engine restores onto the same trunks."""
    doc = recursive_document(seed)
    paths = {name: query for name, query in QUERIES.items() if "[" not in query}
    dfa, sinks = _routed_dfa(paths, cap)
    tags, wants_all, _ = dfa.alphabet()
    assert not wants_all
    routed = [
        event for event in parse_string(doc)
        if isinstance(event, (StartElement, EndElement)) and event.tag in tags
    ]
    half = len(routed) // 2
    dfa.feed(routed[:half])
    resumed, resumed_sinks = _routed_dfa(paths, cap)
    resumed.restore_state(json.loads(json.dumps(dfa.snapshot_state())))
    for name, sink in sinks.items():
        resumed_sinks[name].restore_state(sink.snapshot_state())
    resumed.feed(routed[half:])
    for name, query in paths.items():
        assert resumed_sinks[name].results == XPathStream(query).evaluate(doc), name


def test_late_wildcard_query_keeps_the_shared_unit_a_dfa():
    """A '*' path query added mid-document starts its own unit, so the
    shared unit — still virgin, the router never delivered it a tag —
    does not have to fall back for it."""
    engine = MultiQueryEngine({"ab": "//a//b"})
    engine.feed_text("<r><x><x>")
    engine.add_query("late", "//b//c")
    engine.add_query("wild", "//*/b")
    shared = engine.registration("ab").unit
    assert engine.registration("late").unit is shared
    assert engine.registration("wild").unit is not shared
    engine.feed_text("<a><b><c/></b></a></x></x><a><b/></a></r>")
    assert engine.close() == {"ab": [5, 8], "late": [6], "wild": [5, 8]}
    assert not shared.engine.fell_back
