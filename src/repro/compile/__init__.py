"""Query-specialized compilation of the hot path (``repro.compile``).

``compiled=True`` selects one tier above the interpreted machines of
:mod:`repro.core`: :mod:`repro.compile.dfa` front-ends PathM for
predicate-free XP{/,//,*} queries with an XMLTK-style
lazily-determinised automaton (:class:`DfaPathM`).  States materialise
only for tag sequences that occur in the data, per-event work is one
dict lookup, and a state-count cap falls back to interpreted PathM when
wildcard blow-up threatens.  One :class:`DfaPathM` can also run many path
queries as the trunks of one automaton: :mod:`repro.multiq`'s shared path
tier.  Queries with predicates run the same
interpreted BranchM/TwigM as with ``compiled=False`` — δs/δe of
Algorithm 1 have exactly one implementation per machine.

:mod:`repro.compile.scan` adds the query-aware turbo scanner: when the
active handlers provably ignore attributes and character data (path
machines), the push tokenizer skips attribute parsing, text delivery
and cursor bookkeeping on well-shaped markup — the last factor needed
to reach ≥10× over the pull pipeline on predicate-free XMark queries.

The NFA/subset-construction core lives in :mod:`repro.compile.nfa` and
is shared with the figure-7/8 baseline (``repro.baselines.lazydfa``),
so the stand-in and the production cache cannot drift.
"""

from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM
from repro.compile.metrics import CompileMetricsPublisher, compile_publisher
from repro.compile.nfa import LazyDfa, Step, subset_step, trunk_steps
from repro.compile.scan import turbo_eligible, turbo_feed

__all__ = [
    "CompileMetricsPublisher",
    "DEFAULT_STATE_CAP",
    "DfaPathM",
    "LazyDfa",
    "Step",
    "compile_publisher",
    "subset_step",
    "trunk_steps",
    "turbo_eligible",
    "turbo_feed",
]
