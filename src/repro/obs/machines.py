"""Machine metrics: the ``repro_machine_*`` families.

Every machine (:class:`~repro.core.pathm.PathM`,
:class:`~repro.core.branchm.BranchM`, :class:`~repro.core.twigm.TwigM`)
counts its own operations (:mod:`repro.core.counts`).  Constructing one
with ``metrics=registry`` registers it with that registry's
:class:`MachineMetricsPublisher`, which syncs the counters into the
registry at scrape time — the hot loops never touch the registry.

Use :func:`machine_publisher` to get the per-registry singleton.  Owners
that drop an engine while the registry lives on (a multi-query engine
removing a query, a transform swapping its match engine on restore)
call :meth:`MachineMetricsPublisher.untrack`: the engine's final
counters fold into retired totals, so the ``_total`` families never
decrease, and the publisher stops holding the engine.
"""

from __future__ import annotations

__all__ = ["MachineMetricsPublisher", "machine_publisher"]

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
    tracked and retired engines grouped by engine kind
    (``engine="twigm"`` etc.).  ``repro_machine_live_entries`` and
    ``repro_machine_peak_entries`` cover tracked engines only; the peak
    is the *sum* of per-engine high-water marks — an upper bound on the
    true simultaneous peak.
    """

    def __init__(self, registry):
        self.registry = registry
        self._engines: dict[int, object] = {}
        #: Engine kind -> counter totals of untracked engines.
        self._retired: dict[str, dict[str, int]] = {}
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
        self._engines[id(engine)] = engine
        return engine

    def untrack(self, engine) -> None:
        """Stop publishing ``engine``; its counters join the retired totals.

        Unknown engines are ignored, so owners may call this for any
        engine they drop.
        """
        if self._engines.pop(id(engine), None) is None:
            return
        retired = self._retired.setdefault(
            engine.machine_name, dict.fromkeys(self._counters, 0)
        )
        counts = engine.counts
        for field in self._counters:
            retired[field] += getattr(counts, field)

    @property
    def engines(self) -> list:
        return list(self._engines.values())

    def _collect(self) -> None:
        totals = {
            name: dict(retired, live=0, peak=0)
            for name, retired in self._retired.items()
        }
        for engine in self._engines.values():
            agg = totals.setdefault(
                engine.machine_name,
                dict.fromkeys(self._counters, 0) | {"live": 0, "peak": 0},
            )
            counts = engine.counts
            for field in self._counters:
                agg[field] += getattr(counts, field)
            agg["live"] += engine.live_entries
            agg["peak"] += counts.peak_entries
        for name, agg in totals.items():
            for field, counter in self._counters.items():
                counter.set(agg[field], engine=name)
            self._live.set(agg["live"], engine=name)
            self._peak.set(agg["peak"], engine=name)


def machine_publisher(registry) -> MachineMetricsPublisher:
    """The per-registry :class:`MachineMetricsPublisher` (created once)."""
    publisher = getattr(registry, "_machine_publisher", None)
    if publisher is None:
        publisher = MachineMetricsPublisher(registry)
        registry._machine_publisher = publisher
    return publisher
