"""DfaPathM: the lazily-determinised DFA front-end for PathM.

Predicate-free XP{/,//,*} queries need no candidate bookkeeping — the
moment an element qualifies it is a solution.  PathM already exploits
that, but still walks a per-tag dispatch plan on every event.  This
engine promotes the XMLTK-style lazy DFA from the figure-7/8 baseline
into the production path: the subset construction
(:mod:`repro.compile.nfa`, shared with the baseline) materialises a DFA
state the first time a tag sequence occurs in the data, after which the
per-event work is **one dict lookup** on the current state's transition
table.

One engine runs one or more *trunks* (path queries).  Their NFA
positions are laid end to end in one position space, so common prefixes
share DFA states and a state records which trunks accept there — the
shared automaton of YFilter-style filtering systems.  Per-event cost
stays one cached transition however many trunks run.
:class:`~repro.core.processor.XPathStream` runs a single trunk;
:mod:`repro.multiq` runs every shareable path query of an engine as the
trunks of one instance.

Three rules keep it bit-for-bit equivalent to one interpreted PathM per
trunk:

* **Level gaps.**  The engine keeps one state per open element, indexed
  by level.  A start deeper than the stack — the router did not deliver
  the elements in between, or the engine joined mid-document — fills
  each missing level with δ(state, a tag no trunk names).  For
  wildcard-free trunks that is exactly the step those elements take
  (their tags are named by no trunk, or the router would have delivered
  them), and exactly how PathM treats elements it never saw.  States
  left above a later event's level belonged to closed, undelivered
  elements and are dropped.
* **Wildcard misalignment.**  A ``'*'`` step advances on any tag, so an
  element the engine never saw cannot be filled in.  An engine with a
  wildcard trunk must see every element event (the router's wants-all
  path); a gap then means it joined mid-document, and it falls back to
  interpreted PathM, whose explicit level arithmetic handles partial
  streams.
* **State-cap fallback.**  '*'-heavy queries can blow up the subset
  construction (the paper's cited XMLTK weakness).  When materialising
  a state would exceed ``state_cap``, the engine builds one interpreted
  PathM per trunk, replays the currently-open element path into them
  (emission suppressed — those solutions were already output when the
  elements opened), and delegates every subsequent event.  The swap is
  invisible to the caller.

Snapshots store the NFA configuration (position sets per open element),
never the transition cache: restore rebuilds states lazily, so the
cache is reconstructible state, not checkpointed state.
"""

from __future__ import annotations

from typing import Iterable

from repro.compile.nfa import Step, subset_step, trunk_steps
from repro.core.machine import Machine, build_machine
from repro.core.pathm import PathM
from repro.core.push import AccountingHandler
from repro.core.results import CollectingSink, DiscardingSink, ResultSink
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.stream.events import EndElement, Event, StartElement
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query

#: Default ceiling on materialised DFA states before falling back to
#: interpreted PathM.  Real predicate-free queries build a handful of
#: states per trunk step; hundreds signal wildcard blow-up.
DEFAULT_STATE_CAP = 512

#: The transition key for a level the engine did not see: no XML name is
#: empty, so no trunk step names it.
UNNAMED = ""


class _DfaState:
    """One materialised DFA state: an interned NFA position set."""

    __slots__ = ("positions", "emits", "trans")

    def __init__(self, positions: frozenset[int], emits: tuple):
        self.positions = positions
        #: Sinks of the trunks accepting here, in trunk order (empty when
        #: the state accepts nothing).
        self.emits = emits
        #: tag -> successor state; grows lazily, one entry per miss.
        self.trans: dict[str, _DfaState] = {}


class _Trunk:
    """One path query run by the engine, and where its positions start."""

    __slots__ = ("machine", "steps", "sink", "offset")

    def __init__(self, machine: Machine, sink: ResultSink, offset: int):
        self.machine = machine
        self.steps = trunk_steps(machine.query)
        self.sink = sink
        self.offset = offset


def _path_machine(query: "str | QueryTree | Machine") -> Machine:
    if isinstance(query, Machine):
        return query
    if isinstance(query, str):
        query = compile_query(query)
    if query.has_branches():
        raise UnsupportedQueryError(
            f"DfaPathM evaluates XP{{/,//,*}} only; "
            f"{query.source!r} has predicates"
        )
    return build_machine(query)


class DfaPathM:
    """Lazy-DFA evaluator for XP{/,//,*} with interpreted-PathM fallback.

    Drop-in for :class:`~repro.core.pathm.PathM`: same constructor
    shape, same sink/limits/handler protocol, interchangeable solutions.
    :meth:`add_trunk` / :meth:`remove_trunk` grow and shrink the set of
    path queries it runs, each with its own sink.
    """

    machine_name = "dfa"
    #: The engine ignores attributes and character data entirely, so the
    #: turbo scanner (:mod:`repro.compile.scan`) may skip producing them.
    turbo_scan_safe = True

    def __init__(
        self,
        query: "str | QueryTree | Machine",
        sink: ResultSink | None = None,
        limits: ResourceLimits | None = None,
        *,
        state_cap: int = DEFAULT_STATE_CAP,
        metrics=None,
    ):
        self._limits = limits
        self._event_count = 0
        self._state_cap = max(1, state_cap)
        self._trunks: list[_Trunk] = []
        #: Every trunk's steps end to end, ``None`` at each accept position.
        self._steps: list[Step | None] = []
        #: Accept position -> the sink of the trunk it completes.
        self._accepts: dict[int, ResultSink] = {}
        #: Tags some trunk step names, and whether a step is ``'*'``.
        self._named: set[str] = set()
        self._wildcard = False
        #: One state per open element (index = level), initial at 0.
        self._state_stack: list[_DfaState] = []
        #: Open-element tags (``None`` for filled gap levels), maintained
        #: so a mid-document cap trip can replay the path into PathM.
        self._tags: list[str | None] = []
        #: Interpreted PathM delegates (one per trunk) after a fallback.
        self._fallback: list[PathM] | None = None
        # Lifetime counters (survive reset/restore; metrics semantics).
        self._starts = 0
        self._misses = 0
        self._fallbacks = 0
        self.add_trunk(query, sink if sink is not None else CollectingSink())
        if metrics is not None:
            from repro.compile.metrics import compile_publisher

            compile_publisher(metrics).track(self)

    # -- introspection ----------------------------------------------------

    @property
    def machine(self) -> Machine:
        """The first trunk's machine (the only one outside multiq)."""
        return self._trunks[0].machine

    @property
    def sink(self) -> ResultSink:
        """The first trunk's sink (the only one outside multiq)."""
        return self._trunks[0].sink

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        raise AttributeError("results are only collected by the default sink")

    @property
    def trunk_count(self) -> int:
        return len(self._trunks)

    @property
    def dfa_state_count(self) -> int:
        """Distinct DFA states currently materialised."""
        return len(self._index)

    @property
    def dfa_transition_count(self) -> int:
        """Cached transitions currently materialised."""
        return sum(len(state.trans) for state in self._index.values())

    @property
    def fell_back(self) -> bool:
        """True once the engine delegated to interpreted PathM."""
        return self._fallback is not None

    def alphabet(self) -> tuple[frozenset[str], bool, bool]:
        """Router-shaped interest, as :func:`~repro.multiq.router.machine_alphabet`.

        The tags any trunk names; wants-all when a trunk has a ``'*'``
        step (see the module notes on misalignment); never text.
        """
        return frozenset(self._named), self._wildcard, False

    # -- trunks -----------------------------------------------------------

    def add_trunk(self, query: "str | QueryTree | Machine", sink: ResultSink) -> None:
        """Also run ``query``, emitting its solutions into ``sink``.

        Only while no element is open: a trunk added deeper would lack
        the positions the open elements gave the others.  The transition
        cache starts over.
        """
        if len(self._state_stack) > 1:
            raise ValueError("a trunk can only be added with no element open")
        trunk = _Trunk(_path_machine(query), sink, len(self._steps))
        self._trunks.append(trunk)
        self._steps.extend(trunk.steps)
        self._steps.append(None)
        self._accepts[len(self._steps) - 1] = sink
        self._note_names(trunk.steps)
        if self._fallback is not None:
            self._fallback.append(
                PathM(trunk.machine, sink=sink, limits=self._limits)
            )
        self._index: dict[frozenset[int], _DfaState] = {}
        self._initial = self._state_for(
            frozenset(trunk.offset for trunk in self._trunks)
        )
        self._state_stack = [self._initial]

    def remove_trunk(self, index: int) -> None:
        """Stop running trunk ``index``; later trunks move down one place.

        Allowed mid-document: the open states are translated into the
        compacted position space and the transition cache starts over.
        """
        if len(self._trunks) == 1:
            raise ValueError("a DfaPathM runs at least one trunk")
        del self._trunks[index]
        if self._fallback is not None:
            del self._fallback[index]
        moved: dict[int, int] = {}
        self._steps = []
        self._accepts = {}
        for trunk in self._trunks:
            base = len(self._steps)
            for step in range(len(trunk.steps) + 1):
                moved[trunk.offset + step] = base + step
            trunk.offset = base
            self._steps.extend(trunk.steps)
            self._steps.append(None)
            self._accepts[len(self._steps) - 1] = trunk.sink
        self._named = set()
        self._wildcard = False
        self._note_names(step for step in self._steps if step is not None)
        open_states = self._state_stack[1:]
        self._index = {}
        self._initial = self._state_for(
            frozenset(trunk.offset for trunk in self._trunks)
        )
        self._state_stack = [self._initial] + [
            self._state_for(frozenset(
                moved[p] for p in state.positions if p in moved
            ))
            for state in open_states
        ]

    def _note_names(self, steps: Iterable[Step]) -> None:
        for step in steps:
            if step.wildcard:
                self._wildcard = True
            else:
                self._named.add(step.name)

    # -- DFA construction -------------------------------------------------

    def _state_for(self, positions: frozenset[int]) -> _DfaState:
        state = self._index.get(positions)
        if state is None:
            accepts = self._accepts
            state = _DfaState(positions, tuple(
                accepts[p] for p in sorted(positions) if p in accepts
            ))
            self._index[positions] = state
        return state

    def _materialize(self, state: _DfaState, tag: str) -> "_DfaState | None":
        """Build and cache ``δ(state, tag)``; None when the cap trips."""
        self._misses += 1
        positions = subset_step(
            self._steps, len(self._steps), state.positions, tag
        )
        nxt = self._index.get(positions)
        if nxt is None:
            if len(self._index) >= self._state_cap:
                return None
            nxt = self._state_for(positions)
        state.trans[tag] = nxt
        return nxt

    def _realign(self, level: int) -> bool:
        """Give the stack exactly ``level`` states for a start at ``level``.

        Returns False when only the interpreted fallback can go on (a
        gap under a wildcard trunk, or the state cap tripping).
        """
        stack = self._state_stack
        if level < len(stack):
            del stack[level:]
            del self._tags[level - 1:]
            return True
        if self._wildcard:
            return False
        while len(stack) < level:
            state = stack[-1]
            fill = state.trans.get(UNNAMED)
            if fill is None:
                fill = self._materialize(state, UNNAMED)
                if fill is None:
                    return False
            stack.append(fill)
            self._tags.append(None)
        return True

    def _fall_back(self) -> list[PathM]:
        """Swap in one interpreted PathM per trunk, replaying the open path.

        PathM only emits at start events, and every open element's start
        already happened (and emitted, if it qualified), so the replay
        drives a discarding sink; the real sinks are re-attached before
        live events resume.  Filled gap levels are skipped: PathM never
        saw those elements either.
        """
        self._fallbacks += 1
        machines = []
        for trunk in self._trunks:
            machine = PathM(trunk.machine, sink=DiscardingSink(),
                            limits=self._limits)
            for depth, tag in enumerate(self._tags, start=1):
                if tag is not None:
                    machine.start_element(tag, depth, 0)
            machine.sink = trunk.sink
            machine._event_count = self._event_count
            machines.append(machine)
        self._fallback = machines
        self._tags = []
        return machines

    # -- transitions ------------------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        fallback = self._fallback
        if fallback is None:
            if self._limits is not None:
                self._limits.check("max_depth", level)
            stack = self._state_stack
            if level == len(stack) or self._realign(level):
                self._starts += 1
                state = stack[-1]
                nxt = state.trans.get(tag)
                if nxt is None:
                    nxt = self._materialize(state, tag)
                if nxt is not None:
                    stack.append(nxt)
                    self._tags.append(tag)
                    emits = nxt.emits
                    if emits:
                        for sink in emits:
                            sink.emit(node_id)
                    return
            fallback = self._fall_back()
        for machine in fallback:
            machine.start_element(tag, level, node_id, attributes)

    def characters(self, text: str, level: int | None = None) -> None:
        """No-op: character data carries no information for path queries."""

    def end_element(self, tag: str, level: int) -> None:
        fallback = self._fallback
        if fallback is not None:
            for machine in fallback:
                machine.end_element(tag, level)
            return
        stack = self._state_stack
        depth = len(stack) - 1
        if level == depth and level:
            stack.pop()
            self._tags.pop()
        elif 0 < level < depth:
            # Also drops the filled levels of closed, undelivered elements.
            del stack[level:]
            del self._tags[level - 1:]
        # level > depth: an element this engine never saw open.

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Clear runtime state for a fresh run (transition cache kept)."""
        self._state_stack = [self._initial]
        self._tags = []
        self._fallback = None
        self._event_count = 0

    # -- checkpointing ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable NFA configuration (cache is rebuilt lazily)."""
        state = {
            "dfa": {
                "stack": [sorted(s.positions) for s in self._state_stack],
                "tags": list(self._tags),
            },
            "event_count": self._event_count,
            "fallen": self._fallback is not None,
            "counters": {
                "starts": self._starts,
                "misses": self._misses,
                "fallbacks": self._fallbacks,
            },
        }
        if self._fallback is not None:
            state["fallback"] = [m.snapshot_state() for m in self._fallback]
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture taken with the same trunks."""
        try:
            dfa = state["dfa"]
            counters = state.get("counters", {})
            self._starts = counters.get("starts", 0)
            self._misses = counters.get("misses", 0)
            self._fallbacks = counters.get("fallbacks", 0)
            self._event_count = state.get("event_count", 0)
            if state.get("fallen"):
                saved = state["fallback"]
                if isinstance(saved, dict):  # single-trunk capture
                    saved = [saved]
                if len(saved) != len(self._trunks):
                    raise CheckpointError(
                        f"DFA snapshot has {len(saved)} fallback machines "
                        f"for {len(self._trunks)} trunks"
                    )
                machines = []
                for trunk, machine_state in zip(self._trunks, saved):
                    machine = PathM(trunk.machine, sink=trunk.sink,
                                    limits=self._limits)
                    machine.restore_state(machine_state)
                    machines.append(machine)
                self._fallback = machines
                self._state_stack = [self._initial]
                self._tags = []
                return
            tags = list(dfa["tags"])
            stack_positions = dfa["stack"]
            if len(stack_positions) != len(tags) + 1:
                raise CheckpointError(
                    f"DFA snapshot has {len(stack_positions)} states for "
                    f"{len(tags)} open elements"
                )
            bound = len(self._steps)
            if any(not 0 <= p < bound for ps in stack_positions for p in ps):
                raise CheckpointError(
                    "DFA snapshot positions do not fit this engine's trunks"
                )
            self._fallback = None
            self._tags = tags
            self._state_stack = [
                self._state_for(frozenset(positions))
                for positions in stack_positions
            ]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed DFA snapshot: {exc}") from exc

    # -- event-stream driving ---------------------------------------------

    def as_handler(self):
        """Push-pipeline adapter: the engine itself, or a limit-counting
        wrapper when limits are set (mirrors PathM)."""
        if self._limits is None:
            return self
        return AccountingHandler(self)

    def feed(self, events: Iterable[Event]) -> None:
        """Process a batch of modified-SAX events (pull driver)."""
        limits = self._limits
        for event in events:
            if limits is not None:
                self._event_count += 1
                limits.check("max_total_events", self._event_count)
            if isinstance(event, StartElement):
                self.start_element(
                    event.tag, event.level, event.node_id, event.attributes
                )
            elif isinstance(event, EndElement):
                self.end_element(event.tag, event.level)

    def run(self, events: Iterable[Event]) -> list[int]:
        """Evaluate over a complete event stream; return solution ids."""
        self.feed(events)
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        return []
