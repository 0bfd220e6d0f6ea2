"""Dispatcher checkpointing: snapshot at every boundary ≡ uninterrupted.

Extends the per-stream guarantees of tests/test_checkpoint.py to the
whole multi-query dispatcher: every machine, every multiplexed sink, the
mid-parse tokenizer, the dedup grouping, and the dispatch counters must
survive a JSON round trip at any event boundary.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.multiq import MULTIQ_SNAPSHOT_VERSION, MultiQueryEngine
from repro.stream.tokenizer import parse_string

from tests.conftest import chain_xml

#: Query sets covering all three engines, shared (duplicate) units,
#: value tests, and attributes — each paired with a document.
CASES = [
    (
        {"ab": "//a//b", "dup": "//a//b", "rooted": "/a/b/c"},
        chain_xml(3, with_predicates=False),
    ),
    (
        {"q1": "//a[d]//b[e]//c", "branch": "/a[d]/a", "path": "//e"},
        chain_xml(3),
    ),
    (
        {"cheap": "//book[price < 30]//title", "titles": "//title"},
        "<lib><book><price>25</price><title/></book>"
        "<book><price>40</price><title/></book></lib>",
    ),
    (
        {"attr": "//a[@k = 'v']/b", "star": "//a//*"},
        "<r><a k='v'><b/></a><a k='x'><b/></a></r>",
    ),
]


def uninterrupted(queries: dict[str, str], document: str) -> dict[str, list[int]]:
    engine = MultiQueryEngine(queries)
    engine.feed_text(document)
    return engine.close()


def roundtrip(engine: MultiQueryEngine, **kwargs) -> MultiQueryEngine:
    return MultiQueryEngine.restore(
        json.loads(json.dumps(engine.snapshot())), **kwargs
    )


@pytest.mark.parametrize("queries,document", CASES)
def test_snapshot_at_every_char_boundary(queries, document):
    """Suspend/resume at every feed boundary must be invisible."""
    expected = uninterrupted(queries, document)
    engine = MultiQueryEngine(queries)
    for ch in document:
        engine.feed_text(ch)
        engine = roundtrip(engine)
    assert engine.close() == expected


@pytest.mark.parametrize("queries,document", CASES)
def test_single_midpoint_snapshot(queries, document):
    expected = uninterrupted(queries, document)
    mid = len(document) // 2
    engine = MultiQueryEngine(queries)
    engine.feed_text(document[:mid])
    resumed = roundtrip(engine)
    resumed.feed_text(document[mid:])
    assert resumed.close() == expected


def test_snapshot_is_json_serializable_end_to_end():
    engine = MultiQueryEngine({"q": "//a[d]//b", "dup": "//a[d]//b"})
    engine.feed_text(chain_xml(2)[:10])
    snap = engine.snapshot()
    assert snap["version"] == MULTIQ_SNAPSHOT_VERSION
    assert json.loads(json.dumps(snap)) == snap


def test_dedup_grouping_survives_restore():
    engine = MultiQueryEngine({"one": "//a/b", "two": "//a[./b]", "three": "//a/b"})
    assert engine.unit_count() == 2
    resumed = roundtrip(engine)
    assert resumed.unit_count() == 2
    assert resumed.names == ["one", "two", "three"]
    assert resumed.canonical_queries() == engine.canonical_queries()


def test_dispatch_stats_survive_restore():
    engine = MultiQueryEngine({"ab": "//a//b"})
    engine.feed_events(parse_string("<a><b/></a>"))
    before = engine.dispatch_stats()
    after = roundtrip(engine).dispatch_stats()
    assert after == before


def test_mid_stream_added_query_survives_restore():
    events = list(parse_string("<r><a><b/></a><a><b/></a></r>"))
    engine = MultiQueryEngine({"early": "//a/b"})
    engine.feed_events(events[:4])
    engine.add_query("late", "//a/b")  # dedicated warm-stream unit
    assert engine.unit_count() == 2
    resumed = roundtrip(engine)
    assert resumed.unit_count() == 2
    resumed.feed_events(events[4:])

    oracle = MultiQueryEngine({"early": "//a/b"})
    oracle.feed_events(events[:4])
    oracle.add_query("late", "//a/b")
    oracle.feed_events(events[4:])
    assert resumed.results() == oracle.results()


def test_version_mismatch_rejected():
    snap = MultiQueryEngine({"q": "//a"}).snapshot()
    snap["version"] = MULTIQ_SNAPSHOT_VERSION + 1
    with pytest.raises(CheckpointError, match="version"):
        MultiQueryEngine.restore(snap)


def test_malformed_snapshot_rejected():
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore({"version": MULTIQ_SNAPSHOT_VERSION})


def test_mismatched_grouping_rejected():
    """A unit claiming a query with a different structure is refused."""
    engine = MultiQueryEngine({"one": "//a[x]/b", "two": "//a[x]/c"})
    snap = engine.snapshot()
    snap["units"][0]["queries"] = ["one", "two"]
    snap["units"] = snap["units"][:1]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(snap)
    # The path tier: one trunk claiming two different path queries.
    engine = MultiQueryEngine({"one": "//a/b", "two": "//a/c"})
    snap = engine.snapshot()
    assert snap["units"][0]["trunks"] == [["one"], ["two"]]
    snap["units"][0]["trunks"] = [["one", "two"]]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(snap)


def test_callback_does_not_refire_after_restore():
    fired: list[tuple[str, int]] = []
    engine = MultiQueryEngine({"q": "//a"}, on_match=lambda n, i: fired.append((n, i)))
    engine.feed_text("<r><a/><a/>")
    assert len(fired) == 2

    resumed_fired: list[tuple[str, int]] = []
    resumed = roundtrip(engine, on_match=lambda n, i: resumed_fired.append((n, i)))
    resumed.feed_text("<a/></r>")
    resumed.close()
    assert len(resumed_fired) == 1  # only the third <a>
    assert set(resumed_fired).isdisjoint(fired)


def test_callback_restore_without_callback_stays_silent_but_deduped():
    engine = MultiQueryEngine({"q": "//a"}, on_match=lambda n, i: None)
    engine.feed_text("<r><a/>")
    resumed = roundtrip(engine)  # no on_match supplied
    resumed.feed_text("<a/></r>")
    assert resumed.close() == {}  # still callback mode, nothing collected


def test_restore_preserves_policy_and_limits():
    from repro.stream.recovery import RecoveryPolicy, ResourceLimits

    engine = MultiQueryEngine(
        {"q": "//a"}, policy="repair", limits=ResourceLimits(max_depth=9)
    )
    engine.feed_text("<r><a>")
    resumed = roundtrip(engine)
    assert resumed._policy is RecoveryPolicy.REPAIR
    assert resumed._limits.max_depth == 9
    # repair still applies after restore: truncated doc closes cleanly
    assert resumed.close() == {"q": [2]}


def test_per_query_limits_survive_restore():
    from repro.errors import ResourceLimitError
    from repro.stream.recovery import ResourceLimits

    engine = MultiQueryEngine()
    engine.add_query("capped", "//a", limits=ResourceLimits(max_total_events=3))
    resumed = roundtrip(engine)
    with pytest.raises(ResourceLimitError):
        resumed.feed_events(parse_string(chain_xml(4, with_predicates=False)))


# -- captures written before the shared path tier ----------------------------

#: Two ``MultiQueryEngine`` captures taken by the release before the
#: shared path tier, cut inside ``<r><a><x>`` of ``LEGACY_DOC`` (the
#: tokenizer's ``bytes_fed``).  One ran ``compiled=True`` — each path
#: query on its own ``dfa`` unit, blob carrying ``"compiled"`` — the
#: other the default ``pathm`` units.  Both must restore and finish with
#: that release's ids.
LEGACY_DOC = "<r><a><b/><c><b/></c></a><a><x><b/></x><c/></a><c><a><b/></a></c></r>"
LEGACY_RESULTS = {"p1": [3, 5, 8, 12], "p1dup": [3, 5, 8, 12], "p2": [4, 9],
                  "w": [5, 8], "pred": [3, 5, 8]}
_LEGACY_QUERIES = [
    {"name": name, "query": query, "limits": None, "callback": False,
     "tracked": False, "emission": "default"}
    for name, query in (("p1", "//a//b"), ("p1dup", "//a//b"),
                        ("p2", "/r/a/c"), ("w", "//a/*/b"),
                        ("pred", "//a[c]//b"))
]
_LEGACY_TOKENIZER = {
    "version": 1, "buffer": "", "text_parts": [], "text_len": 0,
    "stack": ["r", "a", "x"], "next_id": 8, "seen_root": True,
    "closed": False, "line": 1, "column": 32, "skip_whitespace": True,
    "policy": "strict", "ignore_depth": 0, "event_count": 11,
    "diagnostic_count": 0, "bytes_fed": 31,
}
_LEGACY_PRED_UNIT = {
    "queries": ["pred"], "engine": "twigm", "virgin": False,
    "machine": {"stacks": [[[2, 0, None, None, 0]], [], []],
                "candidate_count": 0, "event_count": 0},
    "sinks": {"pred": {"results": [3, 5]}},
}


def _legacy_dfa(stack, starts, misses):
    return {"dfa": {"stack": stack, "tags": ["r", "a", "x"]},
            "event_count": 0, "fallen": False,
            "counters": {"starts": starts, "misses": misses, "fallbacks": 0}}


LEGACY_COMPILED = {
    "version": 1, "compiled": True, "policy": "strict", "limits": None,
    "queries": _LEGACY_QUERIES,
    "units": [
        {"queries": ["p1", "p1dup"], "engine": "dfa", "virgin": False,
         "machine": _legacy_dfa([[0], [0], [0, 1], [0, 1]], 7, 5),
         "sinks": {"p1": {"results": [3, 5]}, "p1dup": {"results": [3, 5]}}},
        {"queries": ["p2"], "engine": "dfa", "virgin": False,
         "machine": _legacy_dfa([[0], [1], [2], []], 7, 6),
         "sinks": {"p2": {"results": [4]}}},
        {"queries": ["w"], "engine": "dfa", "virgin": False,
         "machine": _legacy_dfa([[0], [0], [0, 1], [0, 2]], 7, 6),
         "sinks": {"w": {"results": [5]}}},
        _LEGACY_PRED_UNIT,
    ],
    "tokenizer": _LEGACY_TOKENIZER,
    "stats": {"events": 11, "dispatched": 42, "broadcast": 55},
}
LEGACY_DEFAULT = {
    "version": 1, "compiled": False, "policy": "strict", "limits": None,
    "queries": _LEGACY_QUERIES,
    "units": [
        {"queries": ["p1", "p1dup"], "engine": "pathm", "virgin": False,
         "machine": {"stacks": [[2], []], "event_count": 0},
         "sinks": {"p1": {"results": [3, 5]}, "p1dup": {"results": [3, 5]}}},
        {"queries": ["p2"], "engine": "pathm", "virgin": False,
         "machine": {"stacks": [[1], [2], []], "event_count": 0},
         "sinks": {"p2": {"results": [4]}}},
        {"queries": ["w"], "engine": "pathm", "virgin": False,
         "machine": {"stacks": [[2], []], "event_count": 0},
         "sinks": {"w": {"results": [5]}}},
        _LEGACY_PRED_UNIT,
    ],
    "tokenizer": _LEGACY_TOKENIZER,
    "stats": {"events": 11, "dispatched": 29, "broadcast": 55},
}


@pytest.mark.parametrize("legacy", [LEGACY_COMPILED, LEGACY_DEFAULT],
                         ids=["compiled-dfa-units", "default-pathm-units"])
@pytest.mark.parametrize("push", [False, True], ids=["pull", "push"])
def test_legacy_snapshot_resumes(legacy, push):
    resumed = MultiQueryEngine.restore(json.loads(json.dumps(legacy)))
    rest = LEGACY_DOC[legacy["tokenizer"]["bytes_fed"]:]
    if push:
        resumed.feed_text_push(rest)
    else:
        resumed.feed_text(rest)
    assert resumed.close() == LEGACY_RESULTS
    # A fresh capture of the resumed engine is the current version.
    assert resumed.snapshot()["version"] == MULTIQ_SNAPSHOT_VERSION
    assert "compiled" not in resumed.snapshot()
