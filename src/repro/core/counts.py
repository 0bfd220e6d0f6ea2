"""Operation counters of the streaming machines.

Theorem 4.4 bounds TwigM's running time by ``O((|Q| + R·B)·|Q|·|D|)``
(R = document depth, B = query branching factor), and the paper's
central memory claim is that ``2n`` stack entries stand in for ``n²``
pattern matches.  Both are claims about *operation counts*, so every
machine (:class:`~repro.core.pathm.PathM`,
:class:`~repro.core.branchm.BranchM`, :class:`~repro.core.twigm.TwigM`)
counts its own operations in :attr:`CountedEngine.counts`:

* ``events`` — element events (start + end) delivered to the machine.
  This is the one counter that would run on every event, so it is kept
  out of δs/δe and counted by the per-event drivers instead: the pull
  driver ``feed()`` and the push wrapper
  :class:`~repro.core.push.AccountingHandler`, which ``as_handler()``
  returns when the engine has limits or was built with ``metrics=``;
* ``pushes`` / ``pops`` — stack entries created and retired
  (slot occupations and resets, for BranchM);
* ``edge_checks`` — parent-stack probes during δs qualification;
* ``flag_sets`` — branch-match bits set during δe propagation;
* ``uploads`` — candidate-set unions;
* ``peak_entries`` — the compact encoding's maximum live size, the
  quantity figure 1 contrasts with the exponential match count;
* ``emitted`` — solution ids handed to the sink.

Counts accumulate for the lifetime of the engine — ``reset()`` clears
the runtime stacks but not the counters.  An engine built with
``metrics=`` registers with the registry's
:class:`~repro.obs.machines.MachineMetricsPublisher` and carries its
counts through ``snapshot_state()``/``restore_state()`` under an
``"obs"`` key, so checkpoint-resumed streams report cumulative truth;
captures without that key restore with zeroed counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.push import AccountingHandler


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


class CountedEngine:
    """Counter plumbing shared by the three machines.

    Subclass ``__init__`` calls :meth:`_init_counts`; the transitions
    bump :attr:`counts` inline, and subclasses supply ``_recount_live()``
    (live entries recomputed from the runtime state).

    The live size is derived, not maintained: every entry that is pushed
    is either popped, still live, or was discarded without a pop
    (``reset()``, a restore, BranchM re-occupying a live slot), so
    ``live = pushes - pops - _live_base`` with ``_live_base`` counting
    the discarded ones.  δs evaluates it once per push for the
    ``peak_entries`` high-water mark; δe pays only the ``pops`` bump.
    """

    def _init_counts(self, metrics) -> None:
        self.counts = OperationCounts()
        self._live_base = 0
        self._published = metrics is not None
        if metrics is not None:
            # Lazy import: the obs layer sits above core and is only
            # loaded when a registry is attached.
            from repro.obs.machines import machine_publisher

            machine_publisher(metrics).track(self)

    @property
    def live_entries(self) -> int:
        """Stack entries (or occupied slots) currently live."""
        counts = self.counts
        return counts.pushes - counts.pops - self._live_base

    def _discard_live(self) -> None:
        """``reset()`` hook: every live entry is dropped without a pop."""
        self._live_base += self.live_entries

    def _capture_counts(self, state: dict) -> dict:
        """Add the ``"obs"`` counter capture of a published engine."""
        if self._published:
            state["obs"] = {
                "counts": self.counts.as_dict(),
                "live_entries": self.live_entries,
            }
        return state

    def _restore_counts(self, state: dict) -> None:
        """Load any captured counters; rebase the live size on the
        restored runtime state."""
        counts = self.counts
        obs = state.get("obs")
        if obs is not None:
            counts.load(obs.get("counts", {}))
        live = self._recount_live()
        self._live_base = counts.pushes - counts.pops - live
        if live > counts.peak_entries:
            counts.peak_entries = live

    def _recount_live(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def as_handler(self):
        """Push-pipeline adapter (:mod:`repro.core.push`).

        Without resource limits or a metrics registry the engine itself
        is the handler — its transition methods *are* the callbacks, so
        :meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into` drives
        δs/δe with zero indirection.  Otherwise a
        :class:`~repro.core.push.AccountingHandler` adds the pull driver's
        per-event accounting: ``counts.events`` and ``max_total_events``.
        """
        if self._limits is None and not self._published:
            return self
        return AccountingHandler(self)
