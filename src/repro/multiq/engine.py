"""The shared multi-query dispatch engine (layer 4 front door).

:class:`MultiQueryEngine` evaluates many named standing XPath queries
over one XML stream, parsing the stream once and routing each event only
to the machines that can react to it:

* identical queries (structural equality, equal limits) share one
  machine with multiplexed result sinks (:mod:`repro.multiq.canon`,
  :mod:`repro.multiq.registry`), and every predicate-free query without
  per-query limits is a trunk of one shared lazy DFA, the path tier;
* events are dispatched through an inverted tag index
  (:mod:`repro.multiq.router`), so per-event work is proportional to the
  number of *interested* machines, not the number of registered queries;
* queries can be added and removed on a live stream, each admitted with
  its own :class:`~repro.stream.recovery.ResourceLimits`;
* :meth:`snapshot` / :meth:`restore` capture the whole dispatcher —
  every machine, every sink, the mid-parse tokenizer — as one versioned
  JSON-serializable dict, composing the per-machine checkpointing of
  :class:`~repro.core.processor.XPathStream`.

Example::

    from repro.multiq import MultiQueryEngine

    engine = MultiQueryEngine({
        "cheap":  "//book[price < 30]/title",
        "recent": "//book[@year = '2006']/title",
    })
    results = engine.evaluate("catalog.xml")
    engine.dispatch_stats().reduction   # routing win vs broadcast

Filtered dispatch is exact, not approximate: a machine only mutates
state on events whose tag its dispatch table contains, so skipping the
rest is provably equivalent (see :mod:`repro.multiq.router` for the
end-tag and character-data arguments).  Results are byte-identical to
evaluating every query with its own :class:`XPathStream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.errors import CheckpointError
from repro.multiq.canon import canonical_text
from repro.multiq.registry import EvalUnit, QueryRegistry, Registration
from repro.multiq.router import AlphabetRouter
from repro.stream.events import Characters, EndElement, Event, EventHandler, StartElement
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.stream.tokenizer import XmlTokenizer, events_from, iter_text_chunks
from repro.xpath.querytree import QueryTree

#: Version of the dispatcher snapshot schema.  Version 2 records the
#: trunk grouping of path-tier units; version 1 captures still restore.
MULTIQ_SNAPSHOT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True, slots=True)
class DispatchStats:
    """Routing effectiveness counters for one engine.

    ``machine_events_broadcast`` is the counterfactual cost of the
    broadcast dispatcher (every event × every registered query);
    ``machine_events_dispatched`` is what the router actually delivered.
    """

    events: int
    queries: int
    units: int
    machine_events_dispatched: int
    machine_events_broadcast: int

    @property
    def reduction(self) -> float:
        """Broadcast-to-dispatched ratio (≥ 1.0 is a win)."""
        if self.machine_events_dispatched == 0:
            return float("inf") if self.machine_events_broadcast else 1.0
        return self.machine_events_broadcast / self.machine_events_dispatched

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "queries": self.queries,
            "units": self.units,
            "machine_events_dispatched": self.machine_events_dispatched,
            "machine_events_broadcast": self.machine_events_broadcast,
            "reduction": self.reduction,
        }


def _noop(_node_id: int) -> None:
    """Placeholder callback for restored callback queries (see restore)."""


class MultiQueryEngine:
    """Many standing queries, one parse, alphabet-routed dispatch.

    Parameters
    ----------
    queries:
        Optional initial mapping of query name → XPath string (or
        compiled :class:`~repro.xpath.querytree.QueryTree`); more can be
        added later with :meth:`add_query`, even mid-stream.
    on_match:
        Optional callback ``(name, node_id)`` fired as soon as any query
        confirms a solution.  Queries registered without a per-query
        callback inherit it; without any callback, results collect per
        query (:meth:`results`).
    policy / on_diagnostic / limits:
        Recovery configuration for the *shared text parse*
        (:meth:`feed_text` / :meth:`evaluate`), as in
        :class:`~repro.core.processor.XPathStream`.  ``limits`` here
        bounds the tokenizer; per-query machine limits are passed to
        :meth:`add_query` instead.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        every unit's machine publishes its operation counters (the
        ``repro_machine_*`` families), the shared tokenizer publishes
        ``repro_tokenizer_*``, and the engine registers a collector for
        the ``repro_multiq_*`` families: total/dispatched/broadcast
        event counts, query and unit gauges, the router hit ratio, and
        per-query emitted counts (labelled ``query="name"``).  The path
        tier's DFA publishes the ``repro_compile_*`` families instead of
        ``repro_machine_*``.

    **The shared path tier.**  Every predicate-free query registered
    without per-query limits, tracker or lag probe becomes a trunk of
    one :class:`~repro.compile.dfa.DfaPathM` (identical queries share a
    trunk), so all of them advance together by one cached DFA transition
    per delivered event, the way filtering systems such as YFilter run
    large path-query sets.  The unit is routed on the union of its
    trunks' tags (every tag when a trunk has a ``'*'`` step), fills
    levels the router skipped with the step an unnamed tag takes, and
    falls back to one interpreted PathM per trunk past the DFA state
    cap.  Results equal a separate :class:`XPathStream` per query.  A
    path query added after the tier's unit has seen events, or a ``'*'``
    path query added mid-stream, starts a new path-tier unit.  When every unit is turbo-safe (a path-only query
    set without callbacks), the push path (:meth:`feed_text_push` /
    :meth:`evaluate_push`) engages the query-aware turbo scanner
    (:mod:`repro.compile.scan`); eligibility is re-checked per chunk,
    keyed on the router's version counter.

    **Result order.**  Each query's results arrive in document order,
    exactly as from its own :class:`XPathStream`.  Across queries, the
    results one event produces are delivered unit by unit in the order
    the units were created; within the path tier's unit, trunk by trunk
    in the order each trunk's first query was registered; within one
    machine or trunk, in registration order.
    """

    def __init__(
        self,
        queries: "Mapping[str, str | QueryTree] | None" = None,
        on_match: "Callable[[str, int], None] | None" = None,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: "Callable[[StreamDiagnostic], None] | None" = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ):
        self._registry = QueryRegistry()
        self._router = AlphabetRouter()
        self._on_match = on_match
        self._policy = RecoveryPolicy.coerce(policy)
        self._on_diagnostic = on_diagnostic
        self._limits = limits
        self._metrics = metrics
        self._tokenizer: XmlTokenizer | None = None
        self._handler: "_MultiQueryHandler | None" = None
        self._virgin_units: set[EvalUnit] = set()
        self._events = 0
        self._dispatched = 0
        self._broadcast = 0
        if metrics is not None:
            self._bind_metrics(metrics)
        if queries:
            for name, query in queries.items():
                self.add_query(name, query)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._registry)

    @property
    def names(self) -> list[str]:
        """Registered query names, in registration order."""
        return self._registry.names

    def engine_names(self) -> dict[str, str]:
        """Which machine evaluates each query (pathm/branchm/twigm/dfa)."""
        return self._registry.engine_names()

    def unit_count(self) -> int:
        """Distinct machine instances after dedup (≤ query count)."""
        return self._registry.unit_count()

    def canonical_queries(self) -> dict[str, str]:
        """Each query's canonical XPath spelling (the dedup face)."""
        return {
            registration.name: registration.canonical
            for registration in self._registry.registrations()
        }

    def registration(self, name: str) -> Registration:
        """Look up one standing query's registration by name."""
        return self._registry.get(name)

    def interest(self) -> tuple[frozenset[str], bool, bool]:
        """Union alphabet of every registered query, router-shaped.

        Returns ``(tags, wants_all, wants_text)`` folded over all units,
        exactly the analysis :func:`~repro.multiq.router.machine_alphabet`
        computes per machine.  Units with per-query
        :class:`~repro.stream.recovery.ResourceLimits` force
        ``wants_all`` (their accounting needs every event), mirroring
        the router's unfiltered path.  The durable log's replay uses
        this to decide which segments provably cannot matter
        (:mod:`repro.store.index`).
        """
        tags: set[str] = set()
        wants_all = False
        wants_text = False
        for unit in self._registry.units():
            tags |= unit.interest
            wants_all = wants_all or unit.wants_all or not unit.routable
            wants_text = wants_text or unit.wants_text
        return frozenset(tags), wants_all, wants_text

    def dispatch_stats(self) -> DispatchStats:
        """Routing counters accumulated since construction (or reset)."""
        return DispatchStats(
            events=self._events,
            queries=len(self._registry),
            units=self._registry.unit_count(),
            machine_events_dispatched=self._dispatched,
            machine_events_broadcast=self._broadcast,
        )

    def emitted_counts(self) -> dict[str, int]:
        """Distinct solutions emitted so far, per query (any sink kind)."""
        counts: dict[str, int] = {}
        for registration in self._registry.registrations():
            sink = registration.unit.sink.sinks[registration.name]
            seen = getattr(sink, "_seen", None)
            counts[registration.name] = len(seen) if seen is not None else 0
        return counts

    # -- metrics --------------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_events = metrics.counter(
            "repro_multiq_events_total", "Events dispatched through the router."
        )
        self._m_dispatched = metrics.counter(
            "repro_multiq_dispatched_total",
            "Machine-event deliveries the router actually made.",
        )
        self._m_broadcast = metrics.counter(
            "repro_multiq_broadcast_total",
            "Counterfactual deliveries a broadcast dispatcher would make.",
        )
        self._m_queries = metrics.gauge(
            "repro_multiq_queries", "Standing queries currently registered."
        )
        self._m_units = metrics.gauge(
            "repro_multiq_units", "Distinct machine units after dedup."
        )
        self._m_hit_ratio = metrics.gauge(
            "repro_multiq_router_hit_ratio",
            "Dispatched / broadcast: fraction of deliveries the router kept.",
        )
        self._m_emitted = metrics.counter(
            "repro_multiq_emitted_total",
            "Distinct solutions emitted, per query.",
        )
        metrics.add_collector(self._sync_metrics)

    def _sync_metrics(self) -> None:
        """Publish the authoritative dispatcher counters into the registry.

        The counters live on the engine (and ride through snapshots), so
        absolute ``set`` here makes the registry report cumulative truth
        even on a checkpoint-resumed dispatcher.
        """
        self._m_events.set(self._events)
        self._m_dispatched.set(self._dispatched)
        self._m_broadcast.set(self._broadcast)
        self._m_queries.set(len(self._registry))
        self._m_units.set(self._registry.unit_count())
        self._m_hit_ratio.set(
            self._dispatched / self._broadcast if self._broadcast else 0.0
        )
        for name, count in self.emitted_counts().items():
            self._m_emitted.set(count, query=name)

    # -- lifecycle ------------------------------------------------------

    def add_query(
        self,
        name: str,
        query: "str | QueryTree",
        *,
        on_match: "Callable[[int], None] | None" = None,
        limits: ResourceLimits | None = None,
        tracker=None,
        emission: str = "default",
        lag_probe=None,
    ) -> Registration:
        """Register a standing query, possibly mid-stream.

        ``on_match`` (per-query, receives the node id) overrides the
        engine-level callback; ``limits`` admits the query's machine
        under its own :class:`ResourceLimits` (such machines see every
        event so limit accounting matches a dedicated stream).
        ``tracker`` attaches a
        :class:`~repro.core.twigm.CandidateTracker` observing the
        query's candidate lifetimes — the fragment-capture hook used by
        :mod:`repro.transform`; tracked queries run a dedicated TwigM
        (never shared) so the tracker sees exactly one query's story.

        A query added mid-stream starts cold: it evaluates the remainder
        of the stream exactly as a fresh :class:`XPathStream` started at
        this event boundary would, and never shares a warm machine.

        ``emission="earliest"`` runs the query's machine in
        earliest-emission mode (same result set, earlier delivery — see
        docs/LATENCY.md); mixed-mode engines are fine, the mode is part
        of the unit-sharing key.  ``lag_probe`` attaches a
        :class:`repro.latency.DecisionLagProbe` to a dedicated machine.
        """
        sink = self._make_sink(name, on_match)
        registration, created = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            metrics=self._metrics,
            tracker=tracker,
            emission=emission,
            lag_probe=lag_probe,
            mid_stream=self._events > 0,
        )
        if created is not None:
            self._router.add(created)
            self._virgin_units.add(created)
        elif registration.unit.trunks is not None:
            self._router.invalidate()  # the trunks' alphabet may have grown
        return registration

    def attach_warm(
        self,
        name: str,
        query: "str | QueryTree",
        *,
        machine_state: dict,
        sink_state: dict,
        on_match: "Callable[[int], None] | None" = None,
        limits: ResourceLimits | None = None,
    ) -> Registration:
        """Splice in a query whose machine state was computed elsewhere.

        This is the late-query catch-up hook: a backfill pass (typically
        :func:`repro.store.replay.catch_up`) evaluates the query over
        recorded history in a scratch engine, snapshots that unit's
        machine and sink state, and attaches it here so the query
        continues on the live stream as if it had been registered from
        the start.  The unit is dedicated (never shared — its history
        differs from any virgin machine) and marked non-virgin.

        ``machine_state``/``sink_state`` are one unit's ``machine`` and
        ``sinks`` entries from a :meth:`snapshot` capture; ``sink_state``
        must be keyed by this same ``name``.  The caller is responsible
        for pausing feeding while backfill runs, so the splice lands on
        an exact event boundary.
        """
        sink = self._make_sink(name, on_match)
        registration, created = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            share=False,
            metrics=self._metrics,
        )
        unit = created if created is not None else registration.unit
        try:
            unit.engine.restore_state(machine_state)
            unit.sink.restore_state(sink_state)
        except (KeyError, TypeError, ValueError) as exc:
            self._registry.remove(name)
            self._untrack(unit)
            raise CheckpointError(
                f"cannot attach warm state for query {name!r}: {exc}"
            ) from exc
        unit.virgin = False
        self._router.add(unit)
        return registration

    def remove_query(self, name: str) -> Registration:
        """Withdraw a standing query; its machine is dropped with the
        last sharer.  Collected results for ``name`` are discarded."""
        registration, unit_dropped = self._registry.remove(name)
        if unit_dropped:
            self._router.remove(registration.unit)
            self._virgin_units.discard(registration.unit)
            self._untrack(registration.unit)
        elif registration.unit.trunks is not None:
            self._router.invalidate()  # a trunk may have gone
        return registration

    def _untrack(self, unit: EvalUnit) -> None:
        """Stop publishing a dropped unit's machine counters (their final
        values fold into the registry's retired totals)."""
        if self._metrics is None:
            return
        if unit.engine_name == "dfa":
            from repro.compile.metrics import compile_publisher

            compile_publisher(self._metrics).untrack(unit.engine)
        else:
            from repro.obs.machines import machine_publisher

            machine_publisher(self._metrics).untrack(unit.engine)

    def detach(self) -> None:
        """Unhook this engine from a registry that outlives it: the
        dispatcher collector goes, and every unit's machine counters
        fold into the registry's retired totals."""
        if self._metrics is not None:
            self._metrics.remove_collector(self._sync_metrics)
            for unit in self._registry.units():
                self._untrack(unit)

    def _is_callback(self, per_query: "Callable[[int], None] | None") -> bool:
        return per_query is not None or self._on_match is not None

    def _make_sink(
        self, name: str, per_query: "Callable[[int], None] | None"
    ) -> ResultSink:
        if per_query is not None:
            return CallbackSink(per_query)
        if self._on_match is not None:
            on_match = self._on_match

            def forward(node_id: int, _name: str = name) -> None:
                on_match(_name, node_id)

            return CallbackSink(forward)
        return CollectingSink()

    # -- feeding --------------------------------------------------------

    def feed_events(self, events: Iterable[Event]) -> None:
        """Dispatch a batch of modified-SAX events through the router."""
        router = self._router
        registry = self._registry
        for event in events:
            self._events += 1
            self._broadcast += len(registry)
            if isinstance(event, StartElement):
                units = router.units_for_tag(event.tag)
                for unit in units:
                    unit.handler.start_element(
                        event.tag, event.level, event.node_id, event.attributes
                    )
            elif isinstance(event, EndElement):
                units = router.units_for_tag(event.tag)
                for unit in units:
                    unit.handler.end_element(event.tag, event.level)
            else:  # Characters
                units = router.text_units()
                for unit in units:
                    unit.handler.characters(event.text, event.level)
            self._dispatched += len(units)
            limited = router.limited_units()
            if limited:
                packet = (event,)
                for unit in limited:
                    unit.engine.feed(packet)
                self._dispatched += len(limited)
            if self._virgin_units:
                self._touch(units, limited)

    def _touch(self, *delivered: Iterable[EvalUnit]) -> None:
        """Units that processed an event stop accepting new sharers."""
        for group in delivered:
            for unit in group:
                if unit.virgin:
                    unit.virgin = False
                    self._virgin_units.discard(unit)

    def feed_text(self, chunk: str) -> None:
        """Incrementally parse raw XML once and dispatch its events."""
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer(
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        self.feed_events(self._tokenizer.feed(chunk))

    def as_handler(self) -> "_MultiQueryHandler":
        """Push-pipeline adapter: router dispatch as direct callbacks.

        Equivalent to :meth:`feed_events` one event at a time — same
        routing, counters, virgin-unit retirement, and per-unit limit
        accounting — without building the events.  Cached across calls.
        """
        if self._handler is None:
            self._handler = _MultiQueryHandler(self)
        return self._handler

    def _feed_chunk(self, tokenizer: XmlTokenizer, chunk: str, handler) -> None:
        """Feed one chunk, through the turbo scanner when eligible.

        Eligibility is re-checked per chunk: the handler's
        ``turbo_scan_safe`` is a router-version-keyed cache, so live
        query adds/removes switch the path at the next chunk boundary.
        """
        if handler.turbo_scan_safe:
            from repro.compile.scan import turbo_eligible, turbo_feed

            if turbo_eligible(tokenizer, handler):
                turbo_feed(tokenizer, chunk, handler)
                return
        tokenizer.feed_into(chunk, handler)

    def feed_text_push(self, chunk: str) -> None:
        """Fused-pipeline :meth:`feed_text`; shares the tokenizer with it."""
        if self._tokenizer is None:
            self._tokenizer = XmlTokenizer(
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        self._feed_chunk(self._tokenizer, chunk, self.as_handler())

    def evaluate_push(self, source) -> dict[str, list[int]]:
        """One-shot :meth:`evaluate` over the fused push pipeline.

        ``source`` must be text-bearing (XML text, a path, a file object,
        or text chunks); results are identical to :meth:`evaluate`.
        """
        handler = self.as_handler()
        tokenizer = XmlTokenizer(
            policy=self._policy,
            on_diagnostic=self._on_diagnostic,
            limits=self._limits,
            metrics=self._metrics,
        )
        for chunk in iter_text_chunks(source):
            self._feed_chunk(tokenizer, chunk, handler)
        tokenizer.close_into(handler)
        return self.results()

    def close(self) -> dict[str, list[int]]:
        """Finish an incremental feed; return collected results.

        Under a lenient policy the tokenizer may synthesize end events
        for a truncated document here; they are dispatched normally.
        """
        if self._tokenizer is not None:
            final_events = self._tokenizer.close()
            if final_events:
                self.feed_events(final_events)
            self._tokenizer = None
        return self.results()

    def evaluate(self, source) -> dict[str, list[int]]:
        """One-shot: every query over ``source`` in one pass."""
        self.feed_events(
            events_from(
                source,
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        )
        return self.results()

    # -- results --------------------------------------------------------

    def results(self) -> dict[str, list[int]]:
        """Per-query solutions collected so far.

        Covers collect-mode queries only; callback-mode queries deliver
        through their callbacks and do not appear here.
        """
        collected: dict[str, list[int]] = {}
        for registration in self._registry.registrations():
            sink = registration.unit.sink.sinks[registration.name]
            if isinstance(sink, CollectingSink):
                collected[registration.name] = list(sink.results)
        return collected

    def reset(self) -> None:
        """Prepare every machine for a fresh document.

        Machines, sinks, the tokenizer, and dispatch statistics are
        cleared; registrations survive, and all units become shareable
        again (cold state is indistinguishable from a fresh machine).
        """
        for unit in self._registry.units():
            unit.engine.reset()
            for sink in unit.sink.sinks.values():
                if isinstance(sink, CollectingSink):
                    sink.results.clear()
                    sink._seen.clear()
                elif isinstance(sink, CallbackSink):
                    sink._seen.clear()
            unit.virgin = True
        self._virgin_units = set(self._registry.units())
        self._tokenizer = None
        self._events = self._dispatched = self._broadcast = 0

    # -- checkpoint / resume --------------------------------------------

    def snapshot(self) -> dict:
        """Capture the whole dispatcher as a versioned, serializable dict.

        The capture spans every unit's machine stacks and multiplexed
        sink state, the query registrations (grouping included, so dedup
        survives restore exactly), the mid-parse tokenizer, and the
        dispatch counters.
        """
        return {
            "version": MULTIQ_SNAPSHOT_VERSION,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "queries": [
                {
                    "name": registration.name,
                    "query": registration.source,
                    "limits": (
                        registration.limits.to_dict()
                        if registration.limits is not None
                        else None
                    ),
                    "callback": registration.callback,
                    "tracked": registration.tracked,
                    "emission": registration.emission,
                }
                for registration in self._registry.registrations()
            ],
            "units": [_unit_payload(unit) for unit in self._registry.units()],
            "tokenizer": (
                self._tokenizer.snapshot() if self._tokenizer is not None else None
            ),
            "stats": {
                "events": self._events,
                "dispatched": self._dispatched,
                "broadcast": self._broadcast,
            },
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_match: "Callable[[str, int], None] | None" = None,
        on_diagnostic: "Callable[[StreamDiagnostic], None] | None" = None,
        metrics=None,
        trackers: "Mapping[str, object] | None" = None,
    ) -> "MultiQueryEngine":
        """Rebuild a dispatcher from a :meth:`snapshot` capture.

        Callbacks are not serializable: ``on_match`` is supplied anew and
        rebinds every callback-mode query (ids emitted before the
        checkpoint are remembered and will not fire again); without it,
        callback-mode queries restore onto a silent sink so their
        de-duplication state is still preserved.  The same applies to
        candidate trackers: ``trackers`` (query name →
        :class:`~repro.core.twigm.CandidateTracker`) re-attaches them to
        tracked queries — the tracker's *own* counts are the owner's to
        restore.  Passing ``metrics`` resumes with instrumentation;
        snapshot-carried counters make the registry report the same
        totals as an uninterrupted run.
        """
        version = snapshot.get("version")
        if version not in _READABLE_VERSIONS:
            raise CheckpointError(
                f"unsupported multiq snapshot version {version!r} "
                f"(expected one of {_READABLE_VERSIONS})"
            )
        try:
            engine = cls(
                on_match=on_match,
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot.get("limits")),
                metrics=metrics,
            )
            engine._restore_queries(snapshot, trackers or {})
            stats = snapshot.get("stats", {})
            engine._events = stats.get("events", 0)
            engine._dispatched = stats.get("dispatched", 0)
            engine._broadcast = stats.get("broadcast", 0)
            if snapshot.get("tokenizer") is not None:
                engine._tokenizer = XmlTokenizer.restore(
                    snapshot["tokenizer"],
                    on_diagnostic=on_diagnostic,
                    limits=engine._limits,
                    metrics=metrics,
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed multiq snapshot: {exc}") from exc
        return engine

    def _restore_queries(self, snapshot: dict, trackers: Mapping) -> None:
        """Rebuild units and registrations, preserving grouping and order.

        A path-tier unit lists its trunks (``"trunks"``: member names per
        trunk, in trunk order); other units, and version-1 captures, hold
        one query.  Version-1 ``compiled`` captures' per-query ``dfa``
        units restore as single-trunk path-tier units.
        """
        from repro.multiq.canon import canonicalize

        payloads = {payload["name"]: payload for payload in snapshot["queries"]}
        pending: dict[str, tuple[Registration, bool]] = {}
        for unit_payload in snapshot["units"]:
            members = unit_payload["queries"]
            if not members:
                raise CheckpointError("multiq snapshot unit with no queries")
            groups = unit_payload.get("trunks", [members])
            leaders = {member: group[0] for group in groups for member in group}
            trees = {member: canonicalize(payloads[member]["query"])
                     for member in members}
            first = payloads[members[0]]
            limits = ResourceLimits.from_dict(first.get("limits"))
            tracked = bool(first.get("tracked", False))
            if sorted(leaders) != sorted(members):
                raise CheckpointError(
                    "multiq snapshot trunks do not match the unit's queries"
                )
            unit = EvalUnit(trees[groups[0][0]], limits,
                            engine_name=unit_payload["engine"],
                            metrics=self._metrics,
                            tracker=trackers.get(members[0]) if tracked else None,
                            emission=first.get("emission", "default"))
            if unit.trunks is None and len(groups) != 1:
                raise CheckpointError(
                    f"multiq snapshot gives a {unit.engine_name} unit trunks"
                )
            for group in groups[1:]:
                unit.trunk_for(trees[group[0]])
            unit.tracked = tracked
            unit.virgin = bool(unit_payload.get("virgin", False))
            for member in members:
                payload = payloads[member]
                tree = trees[member]
                if tree != trees[leaders[member]]:
                    raise CheckpointError(
                        f"multiq snapshot groups {member!r} with a machine "
                        f"for a different query"
                    )
                unit.join(member, tree,
                          self._restored_sink(member, bool(payload["callback"])))
                pending[member] = (
                    Registration(
                        name=member,
                        source=payload["query"],
                        canonical=canonical_text(tree),
                        tree=tree,
                        limits=limits,
                        unit=unit,
                        callback=bool(payload["callback"]),
                        tracked=bool(payload.get("tracked", False)),
                        emission=payload.get("emission", "default"),
                    ),
                    member == members[0],
                )
            unit.engine.restore_state(unit_payload["machine"])
            unit.sink.restore_state(unit_payload["sinks"])
        if set(pending) != set(payloads):
            raise CheckpointError(
                "multiq snapshot units do not cover the registered queries"
            )
        for payload in snapshot["queries"]:
            registration, new_unit = pending[payload["name"]]
            self._registry.adopt(registration, new_unit)
            if new_unit:
                self._router.add(registration.unit)
                if registration.unit.virgin:
                    self._virgin_units.add(registration.unit)

    def _restored_sink(self, name: str, callback: bool) -> ResultSink:
        if not callback:
            return CollectingSink()
        if self._on_match is None:
            return CallbackSink(_noop)
        on_match = self._on_match

        def forward(node_id: int, _name: str = name) -> None:
            on_match(_name, node_id)

        return CallbackSink(forward)


def _unit_payload(unit: EvalUnit) -> dict:
    """One unit's share of a dispatcher snapshot."""
    payload = {
        "queries": unit.names,
        "engine": unit.engine_name,
        "virgin": unit.virgin,
        "machine": unit.engine.snapshot_state(),
        "sinks": unit.sink.snapshot_state(),
    }
    if unit.trunks is not None:
        payload["trunks"] = [list(trunk.sinks) for trunk in unit.trunks.values()]
    return payload


class _MultiQueryHandler(EventHandler):
    """Push-mode router dispatch for :class:`MultiQueryEngine`.

    Mirrors :meth:`MultiQueryEngine.feed_events` step for step: the
    dispatch counters, the virgin-unit retirement, and the unfiltered
    delivery to limited units (through each unit's own counting handler,
    so per-query ``max_total_events`` accounting matches a dedicated
    stream) are all identical — only the event objects are gone.
    """

    __slots__ = ("_engine", "_turbo_safe", "_turbo_version")

    def __init__(self, engine: MultiQueryEngine):
        self._engine = engine
        self._turbo_safe = False
        self._turbo_version = -1

    @property
    def turbo_scan_safe(self) -> bool:
        """True when every registered unit tolerates the turbo scanner.

        The turbo loop (:mod:`repro.compile.scan`) elides attribute
        dicts and character-data delivery, so it is only sound when
        every unit's engine declares ``turbo_scan_safe`` (path machines
        that ignore both), no unit carries per-query limits (their
        accounting counts text events), and no registration delivers
        through a callback — user callbacks can register new,
        non-path queries *mid-chunk*, which the in-flight scan could
        not serve.  Cached per router version: live add/remove
        re-evaluates at the next chunk boundary.
        """
        engine = self._engine
        router = engine._router
        if self._turbo_version != router.version:
            self._turbo_safe = (
                not router.limited_units()
                and all(
                    getattr(type(unit.engine), "turbo_scan_safe", False)
                    for unit in engine._registry.units()
                )
                and not any(
                    registration.callback
                    for registration in engine._registry.registrations()
                )
            )
            self._turbo_version = router.version
        return self._turbo_safe

    def start_element(self, tag, level, node_id, attributes) -> None:
        engine = self._engine
        engine._events += 1
        engine._broadcast += len(engine._registry)
        router = engine._router
        units = router.units_for_tag(tag)
        for unit in units:
            unit.handler.start_element(tag, level, node_id, attributes)
        engine._dispatched += len(units)
        limited = router.limited_units()
        if limited:
            for unit in limited:
                unit.handler.start_element(tag, level, node_id, attributes)
            engine._dispatched += len(limited)
        if engine._virgin_units:
            engine._touch(units, limited)

    def characters(self, text, level) -> None:
        engine = self._engine
        engine._events += 1
        engine._broadcast += len(engine._registry)
        router = engine._router
        units = router.text_units()
        for unit in units:
            unit.handler.characters(text, level)
        engine._dispatched += len(units)
        limited = router.limited_units()
        if limited:
            for unit in limited:
                unit.handler.characters(text, level)
            engine._dispatched += len(limited)
        if engine._virgin_units:
            engine._touch(units, limited)

    def end_element(self, tag, level) -> None:
        engine = self._engine
        engine._events += 1
        engine._broadcast += len(engine._registry)
        router = engine._router
        units = router.units_for_tag(tag)
        for unit in units:
            unit.handler.end_element(tag, level)
        engine._dispatched += len(units)
        limited = router.limited_units()
        if limited:
            for unit in limited:
                unit.handler.end_element(tag, level)
            engine._dispatched += len(limited)
        if engine._virgin_units:
            engine._touch(units, limited)
