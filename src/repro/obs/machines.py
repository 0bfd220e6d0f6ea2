"""Instrumented production machines: PathM/BranchM/TwigM with counters.

Theorem 4.4 bounds TwigM's running time by ``O((|Q| + R·B)·|Q|·|D|)``
(R = document depth, B = query branching factor), and the paper's
central memory claim is that ``2n`` stack entries stand in for ``n²``
pattern matches.  Both are claims about *operation counts*, so this
module counts the actual machine operations on the production engines:

* ``events`` — element events (start + end) delivered to the machine;
* ``pushes`` / ``pops`` — stack entries created and retired
  (slot occupations and resets, for BranchM);
* ``edge_checks`` — parent-stack probes during δs qualification;
* ``flag_sets`` — branch-match bits set during δe propagation;
* ``uploads`` — candidate-set unions;
* ``peak_entries`` — the compact encoding's maximum live size, the
  quantity figure 1 contrasts with the exponential match count;
* ``emitted`` — solution ids handed to the sink.

:class:`ObsPathM`, :class:`ObsBranchM` and :class:`ObsTwigM` are drop-in
subclasses of the production engines that recompute the transition
functions with the counters inline.  They preserve *every* production
behaviour — resource limits, candidate accounting, value-test text
buffers, candidate trackers, checkpointing.  They are separate classes
so the uninstrumented engines pay nothing: observability is opt-in by
construction, not by branching.

Counts accumulate for the lifetime of the engine — :meth:`reset` clears
the runtime stacks but not the counters — and ride through
``snapshot_state()``/``restore_state()`` (under an ``"obs"`` key plain
engines ignore), so checkpoint-resumed streams report cumulative truth.

:class:`MachineMetricsPublisher` bridges engines to a
:class:`~repro.obs.metrics.MetricsRegistry`: it registers one collector
that sums the counters of every tracked engine into the
``repro_machine_*`` families, labelled by engine kind.  Use
:func:`machine_publisher` to get the per-registry singleton.  The
publisher holds strong references to tracked engines; a registry is
expected to live exactly as long as the pipeline it monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.branchm import BranchM
from repro.core.machine import EDGE_EQ, MachineNode
from repro.core.pathm import PathM
from repro.core.twigm import StackEntry, TwigM

__all__ = [
    "OperationCounts",
    "ObsPathM",
    "ObsBranchM",
    "ObsTwigM",
    "OBS_ENGINES_BY_NAME",
    "MachineMetricsPublisher",
    "machine_publisher",
]


@dataclass(slots=True)
class OperationCounts:
    """Counters of machine operations during one evaluation."""

    events: int = 0
    pushes: int = 0
    pops: int = 0
    edge_checks: int = 0
    flag_sets: int = 0
    uploads: int = 0
    peak_entries: int = 0
    emitted: int = 0

    def total_work(self) -> int:
        """A single scalar: all counted operations."""
        return (
            self.pushes + self.pops + self.edge_checks
            + self.flag_sets + self.uploads
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def load(self, payload: dict) -> None:
        """Restore counter values from an :meth:`as_dict` capture."""
        for f in fields(self):
            setattr(self, f.name, payload.get(f.name, 0))


class _ObsMixin:
    """Shared counter plumbing for the instrumented engines.

    Subclass ``__init__`` must call :meth:`_init_obs` after the base
    engine is constructed.  ``metrics``, when given, is a
    :class:`~repro.obs.metrics.MetricsRegistry` the engine registers
    itself with (via :func:`machine_publisher`).
    """

    def _init_obs(self, metrics=None) -> None:
        self.counts = OperationCounts()
        self._live_entries = 0
        if metrics is not None:
            machine_publisher(metrics).track(self)

    @property
    def live_entries(self) -> int:
        """Stack entries (or occupied slots) currently live."""
        return self._live_entries

    def reset(self) -> None:  # noqa: D102 - inherits the engine docstring
        super().reset()
        # Counters are cumulative across resets by design (the registry
        # reports totals); only the live high-water tracking restarts.
        self._live_entries = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["obs"] = {
            "counts": self.counts.as_dict(),
            "live_entries": self._live_entries,
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._live_entries = self._recount_live()
        obs = state.get("obs")
        if obs is not None:
            # A plain-engine snapshot restores fine: counters restart at
            # zero and the live count above is recomputed from stacks.
            self.counts.load(obs.get("counts", {}))
        if self._live_entries > self.counts.peak_entries:
            self.counts.peak_entries = self._live_entries

    def _recount_live(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class ObsTwigM(_ObsMixin, TwigM):
    """Production :class:`~repro.core.twigm.TwigM` with operation counters.

    Identical observable behaviour — limits, candidate accounting,
    value tests, trackers, checkpoints — plus :attr:`counts`.
    """

    def __init__(self, query, sink=None, tracker=None, eager=None,
                 limits=None, metrics=None, *, emission="default",
                 lag_probe=None):
        super().__init__(query, sink=sink, tracker=tracker, eager=eager,
                         limits=limits, emission=emission, lag_probe=lag_probe)
        self._init_obs(metrics)

    def _recount_live(self) -> int:
        return self.total_stack_entries()

    def _emit_ids(self, candidates) -> None:
        """Counted emission — also the earliest flush's emit path."""
        self.counts.emitted += len(candidates)
        super()._emit_ids(candidates)

    # -- instrumented transitions ------------------------------------------

    def start_element(self, tag, level, node_id, attributes=None):
        """δs of Algorithm 1, with counters inline."""
        counts = self.counts
        counts.events += 1
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        if attributes is None:
            attributes = {}
        for node, stack, parent_stack in plan:
            condition = node.compiled_condition
            if condition is None:
                if node.attribute_tests and not node.attributes_satisfied(attributes):
                    continue
            elif not condition.possible(attributes):
                continue
            if parent_stack is None:
                counts.edge_checks += 1
                if not node.edge_satisfied(level):
                    continue
            elif not self._counted_edge_exists(node, parent_stack, level):
                continue
            entry = StackEntry(level)
            if node.value_tests or (condition is not None and condition.has_value_leaves):
                entry.text_parts = []
                self._open_value_entries += 1
            if condition is not None:
                entry.attr_bits = condition.attr_bits(attributes)
            if node.is_return:
                entry.add_candidate(node_id)
                self._count_candidates(1)
                if self._tracker is not None:
                    self._tracker.created(node_id)
            stack.append(entry)
            counts.pushes += 1
            self._live_entries += 1
            if self._live_entries > counts.peak_entries:
                counts.peak_entries = self._live_entries
            if self._detect:
                self._note_stable(node, entry)
        if self._trunk_dirty:
            self._flush_trunk()

    def _counted_edge_exists(self, node: MachineNode, parent_stack, level: int) -> bool:
        counts = self.counts
        if not parent_stack:
            counts.edge_checks += 1
            return False
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for entry in reversed(parent_stack):
                counts.edge_checks += 1
                if entry.level == target:
                    return True
                if entry.level < target:
                    return False
            return False
        counts.edge_checks += 1
        return parent_stack[0].level <= level - node.edge_dist

    def end_element(self, tag, level):
        """δe of Algorithm 1, with counters inline."""
        counts = self.counts
        counts.events += 1
        tracker = self._tracker
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        for node, stack, parent_stack in plan:
            if not stack or stack[-1].level != level:
                continue
            entry = stack.pop()
            counts.pops += 1
            self._live_entries -= 1
            if entry.text_parts is not None:
                self._open_value_entries -= 1
            if entry.candidates:
                self._candidate_count -= len(entry.candidates)
            condition = node.compiled_condition
            if condition is None:
                satisfied = entry.flags == node.complete_mask
                if satisfied and node.value_tests:
                    satisfied = all(
                        test.evaluate(entry.string_value()) for test in node.value_tests
                    )
            else:
                satisfied = condition.satisfied(
                    entry.flags,
                    entry.attr_bits,
                    entry.string_value() if condition.has_value_leaves else "",
                )
            if not satisfied:
                if tracker is not None and entry.candidates:
                    tracker.released(entry.candidates)
                continue
            if node.is_return and self._eager:
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            if node.parent is None:
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            self._counted_propagate(node, entry, level, parent_stack)
            if tracker is not None and entry.candidates:
                tracker.released(entry.candidates)
        if self._trunk_dirty:
            self._flush_trunk()

    def _counted_propagate(self, node: MachineNode, entry: StackEntry,
                           level: int, parent_stack) -> None:
        counts = self.counts
        bit = 1 << node.child_index
        detect = self._detect
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for parent_entry in reversed(parent_stack):
                if parent_entry.level == target:
                    counts.flag_sets += 1
                    if entry.candidates:
                        counts.uploads += 1
                    parent_entry.flags |= bit
                    self._upload(parent_entry, entry)
                    if detect:
                        self._after_propagate(node.parent, parent_entry, entry)
                    break
                if parent_entry.level < target:
                    break
        else:
            threshold = level - node.edge_dist
            for parent_entry in parent_stack:
                if parent_entry.level > threshold:
                    break
                counts.flag_sets += 1
                if entry.candidates:
                    counts.uploads += 1
                parent_entry.flags |= bit
                self._upload(parent_entry, entry)
                if detect:
                    self._after_propagate(node.parent, parent_entry, entry)


class ObsPathM(_ObsMixin, PathM):
    """Production :class:`~repro.core.pathm.PathM` with operation counters.

    Path queries have no branch matches or candidate sets, so
    ``flag_sets`` and ``uploads`` stay zero.
    """

    def __init__(self, query, sink=None, limits=None, metrics=None):
        super().__init__(query, sink=sink, limits=limits)
        self._init_obs(metrics)

    def _recount_live(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    def start_element(self, tag, level, node_id, attributes=None):
        counts = self.counts
        counts.events += 1
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        for node, stack, parent_stack in plan:
            if parent_stack is None:
                counts.edge_checks += 1
                if not node.edge_satisfied(level):
                    continue
            elif not self._counted_edge_exists(node, parent_stack, level):
                continue
            stack.append(level)
            counts.pushes += 1
            self._live_entries += 1
            if self._live_entries > counts.peak_entries:
                counts.peak_entries = self._live_entries
            if node.is_return:
                counts.emitted += 1
                self.sink.emit(node_id)

    def _counted_edge_exists(self, node: MachineNode, parent_stack, level: int) -> bool:
        counts = self.counts
        if not parent_stack:
            counts.edge_checks += 1
            return False
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for entry_level in reversed(parent_stack):
                counts.edge_checks += 1
                if entry_level == target:
                    return True
                if entry_level < target:
                    return False
            return False
        counts.edge_checks += 1
        return parent_stack[0] <= level - node.edge_dist

    def end_element(self, tag, level):
        counts = self.counts
        counts.events += 1
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
        for node, stack, parent_stack in plan:
            if stack and stack[-1] == level:
                stack.pop()
                counts.pops += 1
                self._live_entries -= 1


class ObsBranchM(_ObsMixin, BranchM):
    """Production :class:`~repro.core.branchm.BranchM` with counters.

    Slots map onto the stack vocabulary: an occupation counts as a
    ``push`` (re-occupying a live slot pushes without growing the live
    count), a slot reset as a ``pop``, a parent-slot probe as an
    ``edge_check``.
    """

    def __init__(self, query, sink=None, limits=None, metrics=None, *,
                 emission="default", lag_probe=None):
        super().__init__(query, sink=sink, limits=limits,
                         emission=emission, lag_probe=lag_probe)
        self._init_obs(metrics)

    def _recount_live(self) -> int:
        return sum(1 for slot in self._slots.values() if slot.level != -1)

    def _emit_ids(self, candidates) -> None:
        """Counted emission — also the earliest flush's emit path."""
        self.counts.emitted += len(candidates)
        super()._emit_ids(candidates)

    def start_element(self, tag, level, node_id, attributes=None):
        counts = self.counts
        counts.events += 1
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            return
        if attributes is None:
            attributes = {}
        for node, slot, parent_slot in plan:
            counts.edge_checks += 1
            if parent_slot is None:
                if level != node.edge_dist:
                    continue
            elif parent_slot.level != level - node.edge_dist:
                continue
            if node.attribute_tests and not node.attributes_satisfied(attributes):
                continue
            if slot.candidates:
                self._candidate_count -= len(slot.candidates)
            occupied = slot.level != -1
            slot.level = level
            slot.flags = 0
            slot.candidates = None
            slot.stable = False
            if node.value_tests:
                if slot.text_parts is None:
                    self._open_value_slots += 1
                slot.text_parts = []
            if node.is_return:
                slot.candidates = {node_id}
                self._count_candidates(1)
            counts.pushes += 1
            if not occupied:
                self._live_entries += 1
                if self._live_entries > counts.peak_entries:
                    counts.peak_entries = self._live_entries
            if self._detect:
                self._note_stable(node, slot)
        if self._trunk_dirty:
            self._flush_trunk()

    def end_element(self, tag, level):
        counts = self.counts
        counts.events += 1
        plan = self._plans.get(tag)
        if plan is None:
            return
        for node, slot, parent_slot in plan:
            if slot.level != level:
                continue
            satisfied = slot.flags == node.complete_mask
            if satisfied and node.value_tests:
                text = "".join(slot.text_parts or ())
                satisfied = all(test.evaluate(text) for test in node.value_tests)
            if satisfied:
                if parent_slot is None:
                    if slot.candidates:
                        self._emit_ids(slot.candidates)
                else:
                    counts.flag_sets += 1
                    parent_slot.flags |= 1 << node.child_index
                    if slot.candidates:
                        counts.uploads += 1
                        if parent_slot.candidates is None:
                            parent_slot.candidates = set(slot.candidates)
                            self._count_candidates(len(parent_slot.candidates))
                        else:
                            before = len(parent_slot.candidates)
                            parent_slot.candidates |= slot.candidates
                            self._count_candidates(len(parent_slot.candidates) - before)
                    if self._detect:
                        if not parent_slot.stable:
                            self._note_stable(node.parent, parent_slot)
                        elif slot.candidates:
                            self._trunk_dirty = True
            if slot.candidates:
                self._candidate_count -= len(slot.candidates)
            if slot.text_parts is not None:
                self._open_value_slots -= 1
            slot.reset()
            counts.pops += 1
            self._live_entries -= 1
        if self._trunk_dirty:
            self._flush_trunk()


#: The instrumented counterpart of each production engine, by the
#: engine's ``machine_name`` (the key `XPathStream` snapshots store).
OBS_ENGINES_BY_NAME = {
    "pathm": ObsPathM,
    "branchm": ObsBranchM,
    "twigm": ObsTwigM,
}

_COUNT_FIELDS = (
    ("events", "Element events (start + end) delivered to the machine."),
    ("pushes", "Stack entries created (slot occupations for BranchM)."),
    ("pops", "Stack entries retired (slot resets for BranchM)."),
    ("edge_checks", "Parent-stack probes during delta-s qualification."),
    ("flag_sets", "Branch-match bits set during delta-e propagation."),
    ("uploads", "Candidate-set unions."),
    ("emitted", "Solution ids handed to the sink."),
)


class MachineMetricsPublisher:
    """Syncs tracked engines' counters into ``repro_machine_*`` families.

    One publisher per registry (see :func:`machine_publisher`); its
    collector runs on every snapshot/render/tick, summing counters over
    tracked engines grouped by engine kind (``engine="twigm"`` etc.).
    ``repro_machine_peak_entries`` is the *sum* of per-engine high-water
    marks — an upper bound on the true simultaneous peak.
    """

    def __init__(self, registry):
        self.registry = registry
        self._engines: list = []
        self._counters = {
            name: registry.counter(f"repro_machine_{name}_total", help)
            for name, help in _COUNT_FIELDS
        }
        self._live = registry.gauge(
            "repro_machine_live_entries",
            "Stack entries (or occupied slots) currently live.",
        )
        self._peak = registry.gauge(
            "repro_machine_peak_entries",
            "High-water mark of live stack entries (summed over engines).",
        )
        registry.add_collector(self._collect)

    def track(self, engine):
        """Start publishing ``engine``'s counters (idempotent)."""
        if all(existing is not engine for existing in self._engines):
            self._engines.append(engine)
        return engine

    @property
    def engines(self) -> list:
        return list(self._engines)

    def _collect(self) -> None:
        totals: dict[str, dict] = {}
        for engine in self._engines:
            name = getattr(type(engine), "machine_name",
                           type(engine).__name__.lower())
            agg = totals.setdefault(
                name, {field: 0 for field, _ in _COUNT_FIELDS} | {"live": 0, "peak": 0}
            )
            counts = engine.counts
            for field, _ in _COUNT_FIELDS:
                agg[field] += getattr(counts, field)
            agg["live"] += engine._live_entries
            agg["peak"] += counts.peak_entries
        for name, agg in totals.items():
            for field, _ in _COUNT_FIELDS:
                self._counters[field].set(agg[field], engine=name)
            self._live.set(agg["live"], engine=name)
            self._peak.set(agg["peak"], engine=name)


def machine_publisher(registry) -> MachineMetricsPublisher:
    """The per-registry :class:`MachineMetricsPublisher` (created once)."""
    publisher = getattr(registry, "_machine_publisher", None)
    if publisher is None:
        publisher = MachineMetricsPublisher(registry)
        registry._machine_publisher = publisher
    return publisher
