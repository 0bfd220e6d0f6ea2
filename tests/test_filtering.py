"""Tests for query filtering: many path queries, one shared automaton.

``TestPathFilterSet`` drives the shared automaton itself — a
:class:`~repro.compile.dfa.DfaPathM` running several trunks.
``TestFilterSet`` checks it as :class:`~repro.multiq.MultiQueryEngine`'s
path tier, next to predicate queries on their own machines.
"""

import pytest

from repro.compile.dfa import DfaPathM
from repro.core.pathm import evaluate_pathm
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.errors import UnsupportedQueryError
from repro.multiq import MultiQueryEngine
from repro.stream.events import EndElement, StartElement
from repro.stream.tokenizer import parse_string

XML = (
    "<site>"
    "<people><person><name>Ana</name></person>"
    "<person><name>Bo</name></person></people>"
    "<items><item id='1'><name>vase</name><price>30</price></item>"
    "<item><name>map</name></item></items>"
    "</site>"
)

PATH_QUERIES = {
    "names": "//name",
    "people-names": "//person/name",
    "items": "//items//item",
    "rooted": "/site/people/person",
    "wild": "//items/*/name",
}


def _distinct_tag_paths(xml: str) -> int:
    paths, open_tags = set(), []
    for event in parse_string(xml):
        if isinstance(event, StartElement):
            open_tags.append(event.tag)
            paths.add(tuple(open_tags))
        elif isinstance(event, EndElement):
            open_tags.pop()
    return len(paths)


def _path_unit(engine: MultiQueryEngine, name: str) -> DfaPathM:
    return engine.registration(name).unit.engine


class TestPathFilterSet:
    def test_agrees_with_individual_pathm_runs(self):
        events = list(parse_string(XML))
        sinks = {name: CollectingSink() for name in PATH_QUERIES}
        names = list(PATH_QUERIES)
        shared = DfaPathM(PATH_QUERIES[names[0]], sink=sinks[names[0]])
        for name in names[1:]:
            shared.add_trunk(PATH_QUERIES[name], sinks[name])
        shared.run(iter(events))
        assert shared.trunk_count == len(PATH_QUERIES)
        for name, query in PATH_QUERIES.items():
            alone = evaluate_pathm(query, iter(events))
            assert sinks[name].results == alone, name

    def test_on_match_streams(self):
        seen = []
        engine = MultiQueryEngine(
            {"names": "//name", "people": "//person"},
            on_match=lambda name, nid: seen.append((name, nid)),
        )
        engine.feed_text(XML)
        engine.close()
        assert seen
        assert {name for name, _ in seen} == {"names", "people"}
        # Delivered as each start tag is read: document order overall.
        assert [nid for _, nid in seen] == sorted(nid for _, nid in seen)

    def test_predicate_queries_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            DfaPathM("//a[b]")
        with pytest.raises(UnsupportedQueryError):
            DfaPathM("//a").add_trunk("//a[b]", CollectingSink())

    def test_empty_set_rejected(self):
        shared = DfaPathM("//a")
        shared.add_trunk("//b", CollectingSink())
        shared.remove_trunk(0)
        with pytest.raises(ValueError):
            shared.remove_trunk(0)

    def test_prefix_sharing_bounds_states(self):
        """20x the queries build no more states than the document's
        distinct tag paths allow — the YFilter effect."""
        single = MultiQueryEngine({"q": "//person/name"})
        single.evaluate(XML)
        lone_states = _path_unit(single, "q").dfa_state_count

        steps = ["site", "people", "person", "name", "items", "item", "price"]
        queries = {}
        for index, tag in enumerate(steps):
            queries[f"d{index}"] = f"//{tag}"
            queries[f"n{index}"] = f"//{tag}//name"
            queries[f"r{index}"] = f"/site//{tag}"
        queries = dict(list(queries.items())[:20])
        many = MultiQueryEngine(queries)
        many.evaluate(XML)
        assert many.unit_count() == 1
        shared_states = _path_unit(many, "d0").dfa_state_count
        assert shared_states <= _distinct_tag_paths(XML) + 1
        assert shared_states < 10 * lone_states

    def test_matches_on_recursive_data(self):
        xml = "<a><a><b/></a><b/></a>"
        engine = MultiQueryEngine({"ab": "//a//b", "aa": "//a//a", "b": "//b"})
        results = engine.evaluate(xml)
        assert results["ab"] == [3, 4]
        assert results["aa"] == [2]
        assert results["b"] == [3, 4]
        assert engine.evaluate_push(xml) == results


class TestFilterSet:
    MIXED = {
        "names": "//name",
        "cheap": "//item[price = 30]/name",
        "with-id": "//item[@id]/name",
    }

    def test_hybrid_routing(self):
        engine = MultiQueryEngine(self.MIXED)
        routes = engine.engine_names()
        assert routes["names"] == "dfa"
        assert routes["cheap"] == "twigm"
        assert routes["with-id"] == "twigm"
        assert engine.unit_count() == 3

    def test_results_match_individual_runs(self):
        events = list(parse_string(XML))
        queries = {**self.MIXED, **PATH_QUERIES}
        combined = MultiQueryEngine(queries).evaluate(iter(events))
        for name, query in queries.items():
            alone = XPathStream(query).evaluate(iter(events))
            assert combined[name] == alone, name

    def test_all_path_queries_use_the_shared_dfa(self):
        engine = MultiQueryEngine({**PATH_QUERIES, "again": "//name"})
        assert set(engine.engine_names().values()) == {"dfa"}
        assert engine.unit_count() == 1
        shared = _path_unit(engine, "names")
        # Identical queries share a trunk.
        assert shared.trunk_count == len(PATH_QUERIES)
        engine.evaluate(XML)
        assert shared.dfa_state_count >= 1
        assert not shared.fell_back

    def test_callback_mode(self):
        seen = []
        engine = MultiQueryEngine(self.MIXED, on_match=lambda n, i: seen.append(n))
        engine.evaluate(XML)
        assert "names" in seen and "cheap" in seen

    def test_incremental_text_feed(self):
        engine = MultiQueryEngine(self.MIXED)
        for index in range(0, len(XML), 13):
            engine.feed_text_push(XML[index:index + 13])
        results = engine.close()
        assert results["names"]
        assert results == MultiQueryEngine(self.MIXED).evaluate(XML)

    def test_empty_rejected(self):
        """The tier never keeps an automaton without trunks: the unit
        goes with its last path query, and a later one starts anew."""
        engine = MultiQueryEngine({"a": "//name", "b": "//person"})
        engine.remove_query("a")
        assert engine.unit_count() == 1
        engine.remove_query("b")
        assert engine.unit_count() == 0
        assert engine.evaluate(XML) == {}
        engine.reset()
        engine.add_query("c", "//price")
        assert engine.evaluate(XML) == {"c": XPathStream("//price").evaluate(XML)}

    def test_no_path_queries_still_works(self):
        engine = MultiQueryEngine({"cheap": "//item[price = 30]/name"})
        assert "dfa" not in engine.engine_names().values()
        results = engine.evaluate(XML)
        assert len(results["cheap"]) == 1
