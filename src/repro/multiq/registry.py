"""Query registry and lifecycle (layer 3): registrations, shared units.

A *registration* is one named standing query; an *evaluation unit* is
one machine instance plus the multiplexing sink that fans its confirmed
solutions out to every registration sharing it.  The registry owns the
mapping between the two:

* ``add`` compiles and canonicalizes the query.  A predicate-free query
  without limits, tracker or lag probe joins the **shared path tier**: a
  :class:`~repro.compile.dfa.DfaPathM` unit running every distinct such
  query as one trunk of a single lazy DFA (identical queries share a
  trunk).  Any other query joins an existing unit with the same
  :func:`~repro.multiq.canon.dedup_key` (structure + limits) or creates
  a fresh PathM/BranchM/TwigM unit, chosen per fragment as always;
* sharing is only offered while a unit has seen no events — a query
  added mid-stream gets a fresh unit (for a path query, a new path-tier
  unit that later path queries join until it sees an event), because
  joining a warm machine would leak stream history the new query never
  observed;
* ``remove`` detaches a registration; a path-tier trunk goes with its
  last sharer, and a unit is dropped once its last sharer leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import ResultSink
from repro.multiq.canon import canonical_text, canonicalize, dedup_key
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree


class MultiplexSink(ResultSink):
    """Fan one machine's confirmed ids out to every sharing query's sink.

    Sub-sinks are keyed by query name and kept in registration order, so
    emission order across sharers is deterministic.  Each sub-sink keeps
    its own de-duplication state — exactly what the query would have had
    with a dedicated machine.
    """

    def __init__(self) -> None:
        self.sinks: dict[str, ResultSink] = {}

    def emit(self, node_id: int) -> None:
        for sink in self.sinks.values():
            sink.emit(node_id)

    def add(self, name: str, sink: ResultSink) -> None:
        self.sinks[name] = sink

    def remove(self, name: str) -> ResultSink:
        return self.sinks.pop(name)

    def snapshot_state(self) -> dict:
        return {name: sink.snapshot_state() for name, sink in self.sinks.items()}

    def restore_state(self, state: dict) -> None:
        for name, sink_state in state.items():
            self.sinks[name].restore_state(sink_state)


class EvalUnit:
    """One shared machine evaluating one canonical query — or, for the
    path tier (``engine_name="dfa"``), several path queries as the
    trunks of one :class:`~repro.compile.dfa.DfaPathM`.

    Carries the router-facing interest analysis
    (:func:`~repro.multiq.router.machine_alphabet`, or the DFA's union
    over its trunks) as plain attributes so the dispatch hot loop
    touches no indirection.  ``sink`` multiplexes every sharer by name;
    a path-tier unit's engine emits through one multiplexer per trunk
    (``trunks``) instead.  ``handler`` is the
    engine's push adapter (``engine.as_handler()``): the bare engine
    unless the unit has limits or publishes metrics, when it is the
    :class:`~repro.core.push.AccountingHandler` the dispatcher must
    deliver through.
    """

    __slots__ = (
        "tree", "limits", "sink", "engine", "handler", "emission",
        "interest", "wants_all", "wants_text", "routable", "virgin", "tracked",
        "trunks",
    )

    def __init__(
        self,
        tree: QueryTree,
        limits: ResourceLimits | None = None,
        engine_name: str | None = None,
        metrics=None,
        tracker=None,
        emission: str = "default",
        lag_probe=None,
    ):
        from repro.core.processor import _engine_class_by_name, select_engine_class

        self.tree = tree
        self.limits = limits
        self.emission = emission
        self.sink = MultiplexSink()
        if tracker is not None:
            # Candidate-lifetime tracking is a TwigM capability; fragment
            # consumers (repro.transform) force the full machine.
            engine_name = "twigm"
        if engine_name is None:
            engine_class = select_engine_class(tree)
        else:
            engine_class = _engine_class_by_name(engine_name)
        kwargs = {} if tracker is None else {"tracker": tracker}
        engine_sink = self.sink
        #: Path tier only: trunk structure -> that trunk's multiplexer, in
        #: the DfaPathM's trunk order; None for every other unit.
        self.trunks: dict | None = None
        if engine_class.machine_name == "dfa":
            engine_sink = MultiplexSink()
            self.trunks = {tree.structure(): engine_sink}
        elif engine_class.machine_name in ("twigm", "branchm"):
            # Path engines already emit at the earliest point (the
            # return node's start tag) and take no emission parameter.
            if emission != "default":
                kwargs["emission"] = emission
            if lag_probe is not None:
                kwargs["lag_probe"] = lag_probe
                # Emissions flow through the probe so it can pair each
                # result's provable point with its emission point.
                engine_sink = lag_probe.wrap_sink(self.sink)
        self.engine = engine_class(tree, sink=engine_sink, limits=limits,
                                   metrics=metrics, **kwargs)
        self.handler = self.engine.as_handler()
        self._analyse()
        # Limited machines count every event and probe every depth; they
        # must stay on the dispatcher's unfiltered path (see router.py).
        self.routable = limits is None
        #: Tracked units never accept sharers, even while virgin: the
        #: tracker observes one consumer's candidate lifetimes.
        self.tracked = tracker is not None
        #: True until the unit processes its first event; only virgin
        #: units accept additional sharers (cold state ≡ fresh machine).
        self.virgin = True

    def _analyse(self) -> None:
        """(Re)compute the router-facing interest of the unit's machine."""
        if self.trunks is None:
            from repro.multiq.router import machine_alphabet

            analysis = machine_alphabet(self.engine.machine)
        else:
            analysis = self.engine.alphabet()
        self.interest, self.wants_all, self.wants_text = analysis

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this unit: pathm, branchm, twigm or dfa."""
        return self.engine.machine_name

    def trunk_for(self, tree: QueryTree) -> MultiplexSink:
        """The path-tier trunk running ``tree``, added when new."""
        key = tree.structure()
        trunk = self.trunks.get(key)
        if trunk is None:
            trunk = self.trunks[key] = MultiplexSink()
            self.engine.add_trunk(tree, trunk)
            self._analyse()
        return trunk

    def join(self, name: str, tree: QueryTree, sink: ResultSink) -> None:
        """Multiplex registration ``name`` (query ``tree``) onto this unit."""
        if self.trunks is not None:
            self.trunk_for(tree).add(name, sink)
        self.sink.add(name, sink)

    def leave(self, name: str, tree: QueryTree) -> None:
        """Detach ``name``; a path-tier trunk goes with its last sharer
        (the last trunk stays until the registry drops the unit)."""
        self.sink.remove(name)
        if self.trunks is not None:
            key = tree.structure()
            trunk = self.trunks[key]
            trunk.remove(name)
            if not trunk.sinks and len(self.trunks) > 1:
                self.engine.remove_trunk(list(self.trunks).index(key))
                del self.trunks[key]
                self._analyse()

    @property
    def names(self) -> list[str]:
        """Names of the registrations multiplexed onto this unit."""
        return list(self.sink.sinks)


@dataclass(slots=True)
class Registration:
    """One named standing query and the unit evaluating it."""

    name: str
    source: str
    canonical: str
    tree: QueryTree
    limits: ResourceLimits | None
    unit: EvalUnit
    #: True when results are delivered through a callback (not collected);
    #: recorded so snapshots know how to rebuild the sink.
    callback: bool
    #: True when the unit's machine runs with a candidate tracker
    #: (fragment capture); recorded so restore can re-attach one.
    tracked: bool = False
    #: The unit's emission mode ("default"/"earliest"); part of the
    #: sharing key — mixed-mode queries never share a machine.
    emission: str = "default"


#: The ``_units`` key of the shared path tier's units.
PATH_TIER = "path-tier"


def _unit_key(tree: QueryTree, limits, emission: str, unit: EvalUnit):
    """Which unit list a registration belongs to (see QueryRegistry)."""
    if unit.trunks is not None and limits is None:
        return PATH_TIER
    return (dedup_key(tree, limits), emission)


class QueryRegistry:
    """Named registrations multiplexed onto deduplicated machine units."""

    def __init__(self) -> None:
        self._registrations: dict[str, Registration] = {}
        # Keyed by (structural dedup key, emission mode), or PATH_TIER for
        # the shared path tier's units.
        self._units: dict = {}

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._registrations)

    def __contains__(self, name: str) -> bool:
        return name in self._registrations

    @property
    def names(self) -> list[str]:
        return list(self._registrations)

    def get(self, name: str) -> Registration:
        try:
            return self._registrations[name]
        except KeyError:
            raise KeyError(f"no standing query named {name!r}") from None

    def registrations(self) -> list[Registration]:
        return list(self._registrations.values())

    def units(self) -> list[EvalUnit]:
        """Every live unit, in first-registration order (deduplicated)."""
        seen: set[int] = set()
        ordered: list[EvalUnit] = []
        for registration in self._registrations.values():
            unit = registration.unit
            if id(unit) not in seen:
                seen.add(id(unit))
                ordered.append(unit)
        return ordered

    def unit_count(self) -> int:
        return len(self.units())

    def engine_names(self) -> dict[str, str]:
        """Which machine evaluates each query: pathm, branchm or twigm,
        or dfa for the shared path tier."""
        return {
            name: registration.unit.engine_name
            for name, registration in self._registrations.items()
        }

    # -- lifecycle ------------------------------------------------------

    def add(
        self,
        name: str,
        query: "str | QueryTree",
        sink: ResultSink,
        *,
        limits: ResourceLimits | None = None,
        callback: bool = False,
        share: bool = True,
        metrics=None,
        tracker=None,
        emission: str = "default",
        lag_probe=None,
        mid_stream: bool = False,
    ) -> tuple[Registration, EvalUnit | None]:
        """Register ``name`` → ``query``; returns ``(registration, new_unit)``.

        ``new_unit`` is ``None`` when the query joined an existing unit
        (the caller only needs to route units it has not seen).
        ``share=False`` forces a dedicated unit regardless of dedup.
        ``tracker`` attaches a :class:`~repro.core.twigm.CandidateTracker`
        to the unit's machine (forcing TwigM and a dedicated unit — a
        tracker observes exactly one consumer's candidate lifetimes).
        A predicate-free query with none of limits, tracker or lag probe
        goes to the shared path tier (see the module notes).  A ``'*'``
        path query added ``mid_stream`` starts a path unit of its own: a
        wildcard trunk cannot fill in levels its unit never saw, so it
        would drag a shared unit onto the interpreted fallback.
        """
        if name in self._registrations:
            raise ValueError(f"duplicate query name {name!r}")
        if tracker is not None or lag_probe is not None:
            share = False
        tree = canonicalize(query)
        source = tree.source if isinstance(query, QueryTree) else query
        path_tier = (limits is None and tracker is None and lag_probe is None
                     and not tree.has_branches())
        # Emission mode joins the sharing key: a default-mode sharer must
        # not receive a mixed-in earliest unit's early emissions.  Path
        # machines emit at the earliest point in either mode.
        key = PATH_TIER if path_tier else (dedup_key(tree, limits), emission)
        unit: EvalUnit | None = None
        created: EvalUnit | None = None
        if share and not (path_tier and mid_stream and tree.has_wildcard()):
            for candidate in self._units.get(key, ()):
                if candidate.virgin and not candidate.tracked:
                    unit = candidate
                    break
        if unit is None:
            unit = created = EvalUnit(tree, limits,
                                      engine_name="dfa" if path_tier else None,
                                      metrics=metrics, tracker=tracker,
                                      emission=emission, lag_probe=lag_probe)
            self._units.setdefault(key, []).append(unit)
        unit.join(name, tree, sink)
        registration = Registration(
            name=name,
            source=source,
            canonical=canonical_text(tree),
            tree=tree,
            limits=limits,
            unit=unit,
            callback=callback,
            tracked=tracker is not None,
            emission=emission,
        )
        self._registrations[name] = registration
        return registration, created

    def adopt(self, registration: Registration, new_unit: bool) -> None:
        """Install a pre-built registration (snapshot restore path)."""
        if registration.name in self._registrations:
            raise ValueError(f"duplicate query name {registration.name!r}")
        if new_unit:
            key = _unit_key(registration.tree, registration.limits,
                            registration.emission, registration.unit)
            self._units.setdefault(key, []).append(registration.unit)
        self._registrations[registration.name] = registration

    def remove(self, name: str) -> tuple[Registration, bool]:
        """Drop ``name``; returns ``(registration, unit_dropped)``."""
        registration = self.get(name)
        del self._registrations[name]
        unit = registration.unit
        unit.leave(name, registration.tree)
        if not unit.sink.sinks:
            key = _unit_key(registration.tree, registration.limits,
                            registration.emission, unit)
            peers = self._units.get(key, [])
            peers[:] = [peer for peer in peers if peer is not unit]
            if not peers and key in self._units:
                del self._units[key]
            return registration, True
        return registration, False
