"""Query filtering: many standing queries, one shared automaton.

The paper's related work contrasts *processors* (TwigM: few queries,
full results) with *filtering systems* (YFilter [13], XTrie [9]: huge
standing query sets, shared evaluation).  This module provides the
filtering side for this library:

* :class:`PathFilterSet` — all XP{/,//,*} queries compiled into **one**
  nondeterministic automaton over (query, position) states, lazily
  determinised exactly like the XMLTK-style engine, so common prefixes
  and suffixes share DFA states and the per-event cost is one cached
  transition *regardless of how many queries are registered* (YFilter's
  central idea).
* :class:`FilterSet` — the hybrid front door: path queries ride the
  shared automaton, predicate queries fall back to their own
  PathM/BranchM/TwigM machines.

Both deliver matches incrementally through ``on_match(name, node_id)``
or collect per-query result lists.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.processor import XPathStream
from repro.errors import UnsupportedQueryError
from repro.stream.events import EndElement, Event, EventHandler, StartElement
from repro.stream.tokenizer import XmlTokenizer, events_from, iter_text_chunks
from repro.xpath.querytree import DESCENDANT_EDGE, QueryTree, compile_query


class _Step:
    """One trunk step of one registered path query."""

    __slots__ = ("name", "wildcard", "descendant")

    def __init__(self, name: str, descendant: bool):
        self.name = name
        self.wildcard = name == "*"
        self.descendant = descendant

    def admits(self, tag: str) -> bool:
        return self.wildcard or self.name == tag


def _trunk_steps(query: QueryTree) -> list[_Step]:
    if query.has_branches():
        raise UnsupportedQueryError(
            f"the shared-automaton filter takes XP{{/,//,*}} queries only; "
            f"{query.source!r} has predicates"
        )
    steps: list[_Step] = []
    qnode = query.root
    while True:
        steps.append(_Step(qnode.name, qnode.axis == DESCENDANT_EDGE))
        if qnode.is_return:
            return steps
        qnode = next(child for child in qnode.children if child.on_trunk)


class PathFilterSet:
    """A shared lazily-determinised automaton over many path queries.

    NFA states are ``(query_index, position)`` pairs; a DFA state is a
    frozenset of them, built on demand per (state, tag) and cached — the
    filtering analogue of the lazy-DFA engine, with *accept sets* (which
    queries match here) precomputed per DFA state.
    """

    def __init__(self, queries: Mapping[str, "str | QueryTree"]):
        if not queries:
            raise ValueError("PathFilterSet needs at least one query")
        self._names: list[str] = []
        self._steps: list[list[_Step]] = []
        for name, query in queries.items():
            tree = compile_query(query) if isinstance(query, str) else query
            self._names.append(name)
            self._steps.append(_trunk_steps(tree))
        self._initial = frozenset(
            (index, 0) for index in range(len(self._steps))
        )
        self._transitions: dict[tuple[frozenset, str], frozenset] = {}
        self._accepts: dict[frozenset, tuple[str, ...]] = {}
        self._accepts[self._initial] = ()

    # -- automaton ---------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._names)

    @property
    def state_count(self) -> int:
        """DFA states materialised so far (shared across all queries)."""
        return len(self._accepts)

    def _step(self, state: frozenset, tag: str) -> frozenset:
        key = (state, tag)
        cached = self._transitions.get(key)
        if cached is not None:
            return cached
        nxt: set[tuple[int, int]] = set()
        for query_index, position in state:
            steps = self._steps[query_index]
            if position >= len(steps):
                continue
            step = steps[position]
            if step.admits(tag):
                nxt.add((query_index, position + 1))
            if step.descendant:
                nxt.add((query_index, position))
        result = frozenset(nxt)
        self._transitions[key] = result
        if result not in self._accepts:
            self._accepts[result] = tuple(
                self._names[query_index]
                for query_index, position in sorted(result)
                if position == len(self._steps[query_index])
            )
        return result

    # -- evaluation ----------------------------------------------------------

    def run(
        self,
        events: Iterable[Event],
        on_match: "Callable[[str, int], None] | None" = None,
    ) -> dict[str, list[int]]:
        """One pass; returns per-query ids (and/or streams to on_match)."""
        results: dict[str, list[int]] = {name: [] for name in self._names}
        stack: list[frozenset] = [self._initial]
        step = self._step
        accepts = self._accepts
        for event in events:
            if isinstance(event, StartElement):
                state = step(stack[-1], event.tag)
                stack.append(state)
                matched = accepts[state]
                if matched:
                    for name in matched:
                        results[name].append(event.node_id)
                        if on_match is not None:
                            on_match(name, event.node_id)
            elif isinstance(event, EndElement):
                stack.pop()
        return results


class FilterSet:
    """Hybrid filtering: shared automaton for path queries, individual
    machines for predicate queries — one parse either way.

    Example::

        filters = FilterSet({
            "all-titles": "//title",                  # shared automaton
            "cheap":      "//book[price < 30]/title", # own TwigM
        }, on_match=lambda name, nid: ...)
        filters.evaluate("catalog.xml")
    """

    def __init__(
        self,
        queries: Mapping[str, "str | QueryTree"],
        on_match: "Callable[[str, int], None] | None" = None,
    ):
        if not queries:
            raise ValueError("FilterSet needs at least one query")
        self._on_match = on_match
        path_queries: dict[str, QueryTree] = {}
        self._machines: dict[str, XPathStream] = {}
        self._results: dict[str, list[int]] = {name: [] for name in queries}
        for name, query in queries.items():
            tree = compile_query(query) if isinstance(query, str) else query
            if tree.has_branches():
                self._machines[name] = XPathStream(
                    tree, on_match=self._bind(name)
                )
            else:
                path_queries[name] = tree
        self._paths = PathFilterSet(path_queries) if path_queries else None
        self._path_stack: list[frozenset] = (
            [self._paths._initial] if self._paths is not None else []
        )
        self._tokenizer: XmlTokenizer | None = None
        self._handler: "_FilterHandler | None" = None

    def _bind(self, name: str) -> Callable[[int], None]:
        def forward(node_id: int) -> None:
            self._emit(name, node_id)

        return forward

    def _emit(self, name: str, node_id: int) -> None:
        self._results[name].append(node_id)
        if self._on_match is not None:
            self._on_match(name, node_id)

    # -- introspection --------------------------------------------------------

    def routing(self) -> dict[str, str]:
        """Per query: 'shared-dfa' or the dedicated machine's name."""
        routes = {}
        for name in self._results:
            if name in self._machines:
                routes[name] = self._machines[name].engine_name
            else:
                routes[name] = "shared-dfa"
        return routes

    @property
    def shared_state_count(self) -> int:
        return self._paths.state_count if self._paths is not None else 0

    # -- feeding ---------------------------------------------------------------

    def feed_events(self, events: Iterable[Event]) -> None:
        machines = list(self._machines.values())
        paths = self._paths
        for event in events:
            if paths is not None:
                if isinstance(event, StartElement):
                    state = paths._step(self._path_stack[-1], event.tag)
                    self._path_stack.append(state)
                    for name in paths._accepts[state]:
                        self._emit(name, event.node_id)
                elif isinstance(event, EndElement):
                    self._path_stack.pop()
            for machine in machines:
                machine.engine.feed((event,))

    def feed_text(self, chunk: str) -> None:
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer()
        self.feed_events(self._tokenizer.feed(chunk))

    def as_handler(self) -> "_FilterHandler":
        """Push-pipeline adapter: one handler fanning out to the shared
        DFA and every dedicated machine.  Cached across calls."""
        if self._handler is None:
            self._handler = _FilterHandler(self)
        return self._handler

    def feed_text_push(self, chunk: str) -> None:
        """Fused-pipeline :meth:`feed_text`; may be mixed with it."""
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer()
        self._tokenizer.feed_into(chunk, self.as_handler())

    def evaluate_push(self, source) -> dict[str, list[int]]:
        """One push-pipeline pass over a text-bearing ``source``."""
        handler = self.as_handler()
        tokenizer = XmlTokenizer()
        for chunk in iter_text_chunks(source):
            tokenizer.feed_into(chunk, handler)
        tokenizer.close_into(handler)
        return self.results()

    def close(self) -> dict[str, list[int]]:
        if self._tokenizer is not None:
            self._tokenizer.close()
            self._tokenizer = None
        return self.results()

    def evaluate(self, source) -> dict[str, list[int]]:
        """One pass over ``source``; per-query solution ids."""
        self.feed_events(events_from(source))
        return self.results()

    def results(self) -> dict[str, list[int]]:
        return self._results


class _FilterHandler(EventHandler):
    """Push-mode fan-out for :class:`FilterSet`.

    Drives the shared DFA and each dedicated machine's transition
    callbacks directly; equivalent to :meth:`FilterSet.feed_events` one
    event at a time, without building the events.
    """

    __slots__ = ("_set", "_engines")

    def __init__(self, filter_set: FilterSet):
        self._set = filter_set
        self._engines = [
            stream.engine.as_handler() for stream in filter_set._machines.values()
        ]

    def start_element(self, tag, level, node_id, attributes) -> None:
        filters = self._set
        paths = filters._paths
        if paths is not None:
            state = paths._step(filters._path_stack[-1], tag)
            filters._path_stack.append(state)
            for name in paths._accepts[state]:
                filters._emit(name, node_id)
        for engine in self._engines:
            engine.start_element(tag, level, node_id, attributes)

    def characters(self, text, level) -> None:
        for engine in self._engines:
            engine.characters(text, level)

    def end_element(self, tag, level) -> None:
        filters = self._set
        if filters._paths is not None:
            filters._path_stack.pop()
        for engine in self._engines:
            engine.end_element(tag, level)
