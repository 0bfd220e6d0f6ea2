"""Property-based tests: multi-query and its shared path tier ≡
individual runs."""

from hypothesis import assume, given, settings, strategies as st

from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.stream.tokenizer import parse_string
from tests.test_equivalence_properties import xml_trees, xpath_queries


@settings(max_examples=100, deadline=None)
@given(
    xml=xml_trees(),
    queries=st.lists(xpath_queries(), min_size=1, max_size=4, unique=True),
)
def test_multiquery_equals_individual_runs(xml, queries):
    named = {f"q{i}": query for i, query in enumerate(queries)}
    events = list(parse_string(xml))
    combined = MultiQueryEngine(named).evaluate(iter(events))
    for name, query in named.items():
        alone = XPathStream(query).evaluate(iter(events))
        assert sorted(combined[name]) == sorted(alone), (query, xml)


@settings(max_examples=100, deadline=None)
@given(
    xml=xml_trees(),
    queries=st.lists(xpath_queries(), min_size=1, max_size=4, unique=True),
)
def test_filterset_equals_individual_runs(xml, queries):
    """Path queries ride one shared DFA, routed, with identical results
    in identical order."""
    named = {f"q{i}": query for i, query in enumerate(queries)
             if "[" not in query}
    assume(named)
    events = list(parse_string(xml))
    engine = MultiQueryEngine(named)
    combined = engine.evaluate(iter(events))
    assert set(engine.engine_names().values()) == {"dfa"}
    assert engine.unit_count() == 1
    for name, query in named.items():
        alone = XPathStream(query).evaluate(iter(events))
        assert combined[name] == alone, (query, xml)
