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

Two guarantees keep it bit-for-bit equivalent to interpreted PathM:

* **State-cap fallback.**  '*'-heavy queries can blow up the subset
  construction (the paper's cited XMLTK weakness).  When materialising
  a state would exceed ``state_cap``, the engine builds an interpreted
  PathM, replays the currently-open element path into it (emission
  suppressed — those solutions were already output when the elements
  opened), and delegates every subsequent event.  The swap is invisible
  to the caller.
* **Alignment fallback.**  The DFA tracks depth implicitly (one pushed
  state per open element), which is only sound when it sees every
  start/end from depth zero.  A machine attached mid-document (multiq
  live add) receives its first event at depth > 1; the engine detects
  the misalignment and falls back to PathM, whose explicit level
  arithmetic handles partial streams — exactly what a dedicated cold
  machine does today.

Snapshots store the NFA configuration (position sets per open element),
never the transition cache: restore rebuilds states lazily, so the
cache is reconstructible state, not checkpointed state.
"""

from __future__ import annotations

from typing import Iterable

from repro.compile.nfa import subset_step, trunk_steps
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


class _DfaState:
    """One materialised DFA state: an interned NFA position set."""

    __slots__ = ("positions", "accepting", "trans")

    def __init__(self, positions: frozenset[int], accepting: bool):
        self.positions = positions
        self.accepting = accepting
        #: tag -> successor state; grows lazily, one entry per miss.
        self.trans: dict[str, _DfaState] = {}


class DfaPathM:
    """Lazy-DFA evaluator for XP{/,//,*} with interpreted-PathM fallback.

    Drop-in for :class:`~repro.core.pathm.PathM`: same constructor
    shape, same sink/limits/handler protocol, interchangeable solutions.
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
        if isinstance(query, Machine):
            self.machine = query
            tree = query.query
        else:
            if isinstance(query, str):
                query = compile_query(query)
            if query.has_branches():
                raise UnsupportedQueryError(
                    f"DfaPathM evaluates XP{{/,//,*}} only; "
                    f"{query.source!r} has predicates"
                )
            tree = query
            self.machine = build_machine(query)
        self.sink = sink if sink is not None else CollectingSink()
        self._limits = limits
        self._event_count = 0
        self._steps = trunk_steps(tree)
        self._accept = len(self._steps)
        self._state_cap = max(1, state_cap)
        #: Interned states: frozenset of NFA positions -> _DfaState.
        self._index: dict[frozenset[int], _DfaState] = {}
        self._initial = self._state_for(frozenset([0]))
        self._state_stack: list[_DfaState] = [self._initial]
        #: Open-element tags, maintained so a mid-document cap trip can
        #: replay the path into the interpreted fallback machine.
        self._tags: list[str] = []
        #: Interpreted PathM delegate after a cap trip / misalignment.
        self._fallback: PathM | None = None
        # Lifetime counters (survive reset/restore; metrics semantics).
        self._starts = 0
        self._misses = 0
        self._fallbacks = 0
        if metrics is not None:
            from repro.compile.metrics import compile_publisher

            compile_publisher(metrics).track(self)

    # -- introspection ----------------------------------------------------

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        raise AttributeError("results are only collected by the default sink")

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

    # -- DFA construction -------------------------------------------------

    def _state_for(self, positions: frozenset[int]) -> _DfaState:
        state = self._index.get(positions)
        if state is None:
            state = _DfaState(positions, self._accept in positions)
            self._index[positions] = state
        return state

    def _materialize(self, state: _DfaState, tag: str) -> "_DfaState | None":
        """Build and cache ``δ(state, tag)``; None when the cap trips."""
        self._misses += 1
        positions = subset_step(self._steps, self._accept, state.positions, tag)
        nxt = self._index.get(positions)
        if nxt is None:
            if len(self._index) >= self._state_cap:
                return None
            nxt = _DfaState(positions, self._accept in positions)
            self._index[positions] = nxt
        state.trans[tag] = nxt
        return nxt

    def _fall_back(self) -> PathM:
        """Swap in an interpreted PathM, replaying the open-element path.

        PathM only emits at start events, and every open element's start
        already happened (and emitted, if it qualified), so the replay
        drives a discarding sink; the real sink is re-attached before
        live events resume.
        """
        self._fallbacks += 1
        machine = PathM(self.machine, sink=DiscardingSink(), limits=self._limits)
        for depth, tag in enumerate(self._tags, start=1):
            machine.start_element(tag, depth, 0)
        machine.sink = self.sink
        machine._event_count = self._event_count
        self._fallback = machine
        self._tags = []
        return machine

    # -- transitions ------------------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        fallback = self._fallback
        if fallback is not None:
            fallback.start_element(tag, level, node_id, attributes)
            return
        if self._limits is not None:
            self._limits.check("max_depth", level)
        stack = self._state_stack
        if level != len(stack):
            # Joined mid-document: depth-implicit tracking is unsound,
            # PathM's explicit level arithmetic is not.
            self._fall_back().start_element(tag, level, node_id, attributes)
            return
        self._starts += 1
        state = stack[-1]
        nxt = state.trans.get(tag)
        if nxt is None:
            nxt = self._materialize(state, tag)
            if nxt is None:
                self._fall_back().start_element(tag, level, node_id, attributes)
                return
        stack.append(nxt)
        self._tags.append(tag)
        if nxt.accepting:
            self.sink.emit(node_id)

    def characters(self, text: str, level: int | None = None) -> None:
        """No-op: character data carries no information for path queries."""

    def end_element(self, tag: str, level: int) -> None:
        fallback = self._fallback
        if fallback is not None:
            fallback.end_element(tag, level)
            return
        stack = self._state_stack
        if level == len(stack) - 1 and level > 0:
            stack.pop()
            self._tags.pop()
        else:
            # An end we never saw the start of — misaligned stream.
            self._fall_back().end_element(tag, level)

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
            state["fallback"] = self._fallback.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        try:
            dfa = state["dfa"]
            fallen = bool(state.get("fallen"))
            counters = state.get("counters", {})
            self._starts = counters.get("starts", 0)
            self._misses = counters.get("misses", 0)
            self._fallbacks = counters.get("fallbacks", 0)
            self._event_count = state.get("event_count", 0)
            if fallen:
                machine = PathM(self.machine, sink=self.sink, limits=self._limits)
                machine.restore_state(state["fallback"])
                self._fallback = machine
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
