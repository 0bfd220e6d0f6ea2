"""Machine operation counters: semantics, the paper's complexity claims,
pipeline independence, checkpointing and publication.

The counters live in the machines themselves (:mod:`repro.core.counts`);
:mod:`repro.obs.machines` publishes them into a metrics registry.
"""

from __future__ import annotations

import json

import pytest

from repro.compile.metrics import compile_publisher
from repro.core.branchm import BranchM
from repro.core.counts import OperationCounts
from repro.core.pathm import PathM
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.twigm import TwigM
from repro.errors import UnsupportedQueryError
from repro.multiq.engine import MultiQueryEngine
from repro.obs.machines import machine_publisher
from repro.obs.metrics import MetricsRegistry
from repro.stream.tokenizer import parse_string
from tests.conftest import chain_c1_id, chain_xml

CASES = [
    ("//a//b", "<a><b/><c><b/></c></a>"),
    ("/a/*/c", "<a><b><c/></b><d><c/></d></a>"),
    ("//a[b]", "<a><b/></a><!---->" ),
    ("//item[quantity < 2]/name",
     "<site><item><quantity>1</quantity><name>x</name></item>"
     "<item><quantity>5</quantity><name>y</name></item></site>"),
    ("/a[b]/c", "<a><c/><b/><c/><x><c/></x></a>"),
]

MACHINES = [PathM, BranchM, TwigM]


def feed(engine, xml):
    engine.feed(parse_string(xml))


def run_counts(query, xml):
    machine = TwigM(query)
    machine.feed(parse_string(xml))
    return machine


# -- counter semantics --------------------------------------------------------


class TestCountersMatchSemantics:
    def test_results_identical_to_plain_twigm(self):
        for query in ("//a[d]//b[e]//c", "//a//b", "//a[@x]/b"):
            for xml in (chain_xml(5), "<a x='1'><b/><d/></a>"):
                plain = TwigM(query)
                plain.feed(parse_string(xml))
                published = TwigM(query, metrics=MetricsRegistry())
                published.feed(parse_string(xml))
                assert published.results == plain.results, (query, xml)

    def test_pushes_equal_pops(self):
        machine = run_counts("//a[d]//b[e]//c", chain_xml(8))
        assert machine.counts.pushes == machine.counts.pops

    def test_event_count(self):
        machine = run_counts("//a", "<a><b/></a>")
        assert machine.counts.events == 4


class TestPaperSpaceClaim:
    def test_peak_entries_linear_not_quadratic(self):
        """Figure 1 / contribution 1: 2n entries encode n² matches."""
        for n in (10, 20, 40):
            machine = run_counts("//a[d]//b[e]//c", chain_xml(n))
            assert machine.counts.peak_entries <= 2 * n + 2
            assert machine.results == [chain_c1_id(n)]

    def test_work_scales_linearly_on_chain(self):
        """Theorem 4.4: polynomial (here linear) total work in |D|."""
        small = run_counts("//a[d]//b[e]//c", chain_xml(20)).counts.total_work()
        large = run_counts("//a[d]//b[e]//c", chain_xml(40)).counts.total_work()
        # Doubling the data should roughly double the work (not 4x).
        assert large < 3 * small

    def test_flag_sets_bounded_by_depth_times_query(self):
        n = 25
        machine = run_counts("//a[d]//b[e]//c", chain_xml(n))
        counts = machine.counts
        # Each pop touches at most one parent stack (≤ depth entries).
        assert counts.flag_sets <= counts.pops * (2 * n + 2)

    def test_emitted_counter(self):
        machine = run_counts("//a//c", "<a><c/><c/></a>")
        assert machine.counts.emitted == 2


def test_event_counting_matches_element_events():
    engine = TwigM("//a[b]")
    feed(engine, "<a><b/></a>")
    # 2 starts + 2 ends; characters are not element events
    assert engine.counts.events == 4
    assert engine.counts.pushes == engine.counts.pops == 2


def test_peak_entries_high_water():
    engine = TwigM("//a")
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
    # One class per machine: publishing changes neither the engine class
    # nor the name snapshots record.
    for query, name in (("//a//b", "pathm"), ("/a[b]", "branchm"),
                        ("//a[b]", "twigm")):
        plain = XPathStream(query)
        published = XPathStream(query, metrics=MetricsRegistry())
        assert type(published.engine) is type(plain.engine)
        assert published.engine_name == plain.engine_name == name


# -- one set of counts, however the engine is driven -------------------------


def _published_stream(machine_class, query) -> XPathStream:
    try:
        return XPathStream(query, engine=machine_class.machine_name,
                           metrics=MetricsRegistry())
    except UnsupportedQueryError as exc:
        pytest.skip(f"{machine_class.__name__}: {exc}")


def _chunks(xml: str, size: int = 7) -> list[str]:
    return [xml[index:index + size] for index in range(0, len(xml), size)]


@pytest.mark.parametrize("machine_class", MACHINES)
@pytest.mark.parametrize("query,xml", CASES)
def test_counts_identical_across_pipelines(machine_class, query, xml):
    pulled = _published_stream(machine_class, query)
    pulled.evaluate(xml)
    expected = pulled.engine.counts
    assert expected.events > 0

    pushed = _published_stream(machine_class, query)
    pushed.evaluate_push(xml)
    assert pushed.engine.counts == expected

    chunks = _chunks(xml)
    chunked = _published_stream(machine_class, query)
    for chunk in chunks:
        chunked.feed_text_push(chunk)
    chunked.close()
    assert chunked.engine.counts == expected

    for cut in range(len(chunks) + 1):
        first = _published_stream(machine_class, query)
        for chunk in chunks[:cut]:
            first.feed_text_push(chunk)
        capture = json.loads(json.dumps(first.snapshot()))
        resumed = XPathStream.restore(capture, metrics=MetricsRegistry())
        for chunk in chunks[cut:]:
            resumed.feed_text_push(chunk)
        resumed.close()
        assert resumed.engine.counts == expected, cut
        assert resumed.results == pulled.results, cut


def test_plain_push_handler_is_the_bare_engine():
    for query in ("//a//b", "/a[b]", "//a[b]"):
        stream = XPathStream(query)
        assert stream.push_handler() is stream.engine
        assert XPathStream(query, metrics=MetricsRegistry()).push_handler() \
            is not stream.engine


# -- publication ---------------------------------------------------------------


def test_registry_publication():
    registry = MetricsRegistry()
    sink = CollectingSink()
    engine = TwigM("//a[b]", sink=sink, metrics=registry)
    feed(engine, "<a><b/></a>")
    snap = registry.snapshot()
    values = {
        tuple(sorted(v["labels"].items())): v["value"]
        for v in snap["repro_machine_events_total"]["values"]
    }
    assert values[(("engine", "twigm"),)] == 4


def _machine_value(registry, family, engine="twigm"):
    registry.collect()
    return registry.get(family).get(engine=engine)


#: query -> (publisher, engine label, live gauge, events counter, counter
#: increase per ``<a></a>``).  Predicated queries run on the interpreted
#: machines; predicate-free ones on the multiq path tier's lazy DFA.
PUBLISHED = {
    "//a[b]//c": (machine_publisher, "twigm", "repro_machine_live_entries",
                  "repro_machine_events_total", 2),
    "//a//c": (compile_publisher, "dfa", "repro_compile_dfa_states",
               "repro_compile_dfa_starts_total", 1),
}


def test_removed_queries_leave_the_publisher():
    _assert_removed_queries_leave_the_publisher("//a[b]//c")


def test_removed_path_queries_leave_the_compile_publisher():
    _assert_removed_queries_leave_the_publisher("//a//c")


def _assert_removed_queries_leave_the_publisher(query):
    publisher, label, live, total, per_cycle = PUBLISHED[query]
    registry = MetricsRegistry()
    engine = MultiQueryEngine(metrics=registry)
    engine.add_query("q", query)
    engine.feed_text("<r><a><a><a>")
    assert engine.engine_names() == {"q": label}
    assert _machine_value(registry, live, label) > 0
    events = _machine_value(registry, total, label)
    assert events == 3

    engine.remove_query("q")
    assert _machine_value(registry, live, label) == 0
    assert _machine_value(registry, total, label) == events

    for cycle in range(50):
        engine.add_query(f"q{cycle}", query)
        engine.feed_text("<a></a>")
        engine.remove_query(f"q{cycle}")
        now = _machine_value(registry, total, label)
        assert now == events + per_cycle
        events = now
    assert publisher(registry).engines == []
    assert _machine_value(registry, live, label) == 0


def test_restore_swap_untracks_the_dropped_dfa():
    """A wrapper that builds its dispatcher, then swaps in a restored one
    on the same registry (as transform restore does), publishes the DFA
    totals of an uninterrupted run and gauges only the live cache."""
    xml = "<r><a><c/><a><c/></a></a><a><c/></a></r>"
    first = MultiQueryEngine(metrics=MetricsRegistry())
    first.add_query("q", "//a//c")
    first.feed_text(xml[:16])
    state = json.loads(json.dumps(first.snapshot()))
    registry = MetricsRegistry()
    built = MultiQueryEngine(metrics=registry)
    built.add_query("q", "//a//c")
    built.detach()
    resumed = MultiQueryEngine.restore(state, metrics=registry)
    resumed.feed_text(xml[16:])
    resumed.close()
    (unit,) = resumed._registry.units()
    assert compile_publisher(registry).engines == [unit.engine]
    whole_registry = MetricsRegistry()
    whole = MultiQueryEngine(metrics=whole_registry)
    whole.add_query("q", "//a//c")
    whole.feed_text(xml)
    whole.close()
    assert resumed.results() == whole.results()
    for family in ("repro_compile_dfa_starts_total",
                   "repro_compile_fallbacks_total"):
        assert _machine_value(registry, family, "dfa") == \
            _machine_value(whole_registry, family, "dfa"), family
    assert _machine_value(registry, "repro_compile_dfa_states", "dfa") == \
        unit.engine.dfa_state_count


def test_transform_restore_untracks_the_swapped_engine():
    from repro.transform.extract import SubstreamExtractor

    xml = "<r><a><b/></a><a><b/></a></r>"
    first = SubstreamExtractor("//a[b]", metrics=MetricsRegistry())
    first.feed_text(xml[:14])
    registry = MetricsRegistry()
    resumed = SubstreamExtractor.restore(first.snapshot(), metrics=registry)
    engines = machine_publisher(registry).engines
    assert engines == [unit.engine for unit in
                       resumed._engine._registry.units()]
    resumed.feed_text(xml[14:])
    resumed.close()
    whole_registry = MetricsRegistry()
    whole = SubstreamExtractor("//a[b]", metrics=whole_registry)
    whole.feed_text(xml)
    whole.close()
    for family in ("repro_machine_events_total", "repro_machine_pushes_total"):
        assert _machine_value(registry, family) == \
            _machine_value(whole_registry, family), family


# -- checkpointing -------------------------------------------------------------


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
    assert "obs" not in state["machine"]
    resumed = XPathStream.restore(state, metrics=MetricsRegistry())
    assert type(resumed.engine) is TwigM
    # capture without counters: they restart, live state is recomputed
    assert resumed.engine.counts.events == 0
    assert resumed.engine.live_entries > 0
    resumed.feed_text("</a>")
    resumed.close()
    assert list(resumed.results) == [1]


def test_obs_snapshot_restores_onto_plain_engine():
    observed = XPathStream("//a[b]", metrics=MetricsRegistry())
    observed.feed_text("<a><b/>")
    state = observed.snapshot()
    assert state["machine"]["obs"]["counts"]["events"] == 3
    resumed = XPathStream.restore(state)
    assert type(resumed.engine) is TwigM
    resumed.feed_text("</a>")
    resumed.close()
    assert list(resumed.results) == [1]
