"""repro.obs.machines: counter semantics, parity, and checkpointing."""

from __future__ import annotations

import pytest

from repro.core.branchm import BranchM
from repro.core.pathm import PathM
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.twigm import TwigM
from repro.obs.machines import (
    OBS_ENGINES_BY_NAME,
    ObsBranchM,
    ObsPathM,
    ObsTwigM,
    OperationCounts,
)
from repro.obs.metrics import MetricsRegistry
from repro.stream.tokenizer import parse_string

CASES = [
    ("//a//b", "<a><b/><c><b/></c></a>"),
    ("/a/*/c", "<a><b><c/></b><d><c/></d></a>"),
    ("//a[b]", "<a><b/></a><!---->" ),
    ("//item[quantity < 2]/name",
     "<site><item><quantity>1</quantity><name>x</name></item>"
     "<item><quantity>5</quantity><name>y</name></item></site>"),
]

PAIRS = [(PathM, ObsPathM), (BranchM, ObsBranchM), (TwigM, ObsTwigM)]


def feed(engine, xml):
    engine.feed(parse_string(xml))


@pytest.mark.parametrize("plain_class,obs_class", PAIRS)
@pytest.mark.parametrize("query,xml", CASES)
def test_obs_engines_match_plain_results(plain_class, obs_class, query, xml):
    try:
        plain_sink = CollectingSink()
        plain = plain_class(query, sink=plain_sink)
    except Exception as exc:  # fragment unsupported by this machine
        pytest.skip(f"{plain_class.__name__}: {exc}")
    feed(plain, xml)
    obs_sink = CollectingSink()
    observed = obs_class(query, sink=obs_sink)
    feed(observed, xml)
    assert list(obs_sink.results) == list(plain_sink.results)
    assert observed.counts.events > 0


def test_event_counting_matches_element_events():
    engine = ObsTwigM("//a[b]")
    feed(engine, "<a><b/></a>")
    # 2 starts + 2 ends; characters are not element events
    assert engine.counts.events == 4
    assert engine.counts.pushes == engine.counts.pops == 2


def test_peak_entries_high_water():
    engine = ObsTwigM("//a")
    feed(engine, "<a><a><a/></a></a>")
    # one live stack entry per open matching element at the deepest point
    assert engine.counts.peak_entries == 3
    assert engine.live_entries == 0


def test_total_work_is_sum_of_operations():
    counts = OperationCounts(pushes=1, pops=2, edge_checks=3, flag_sets=4,
                             uploads=5)
    assert counts.total_work() == 15


def test_operation_counts_round_trip():
    counts = OperationCounts(events=9, pushes=2, emitted=1)
    loaded = OperationCounts()
    loaded.load(counts.as_dict())
    assert loaded == counts


def test_machine_name_shared_with_plain():
    for plain_class, obs_class in PAIRS:
        assert obs_class.machine_name == plain_class.machine_name
    assert OBS_ENGINES_BY_NAME["twigm"] is ObsTwigM


def test_registry_publication():
    registry = MetricsRegistry()
    sink = CollectingSink()
    engine = ObsTwigM("//a[b]", sink=sink, metrics=registry)
    feed(engine, "<a><b/></a>")
    snap = registry.snapshot()
    values = {
        tuple(sorted(v["labels"].items())): v["value"]
        for v in snap["repro_machine_events_total"]["values"]
    }
    assert values[(("engine", "twigm"),)] == 4


def test_counts_survive_snapshot_restore():
    stream = XPathStream("//a[b]", metrics=MetricsRegistry())
    stream.feed_text("<a><b/>")
    state = stream.snapshot()
    resumed = XPathStream.restore(state, metrics=MetricsRegistry())
    resumed.feed_text("</a>")
    resumed.close()
    uninterrupted = XPathStream("//a[b]", metrics=MetricsRegistry())
    uninterrupted.feed_text("<a><b/></a>")
    uninterrupted.close()
    assert resumed.engine.counts == uninterrupted.engine.counts
    assert list(resumed.results) == list(uninterrupted.results)


def test_plain_snapshot_restores_onto_obs_engine():
    plain = XPathStream("//a[b]")
    plain.feed_text("<a><b/>")
    state = plain.snapshot()
    resumed = XPathStream.restore(state, metrics=MetricsRegistry())
    assert type(resumed.engine) is ObsTwigM
    # pre-observability snapshot: counters restart, live state recomputed
    assert resumed.engine.counts.events == 0
    assert resumed.engine.live_entries > 0
    resumed.feed_text("</a>")
    resumed.close()
    assert list(resumed.results) == [1]


def test_obs_snapshot_restores_onto_plain_engine():
    observed = XPathStream("//a[b]", metrics=MetricsRegistry())
    observed.feed_text("<a><b/>")
    state = observed.snapshot()
    resumed = XPathStream.restore(state)
    assert type(resumed.engine) is TwigM
    resumed.feed_text("</a>")
    resumed.close()
    assert list(resumed.results) == [1]

