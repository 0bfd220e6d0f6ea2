"""Empirical complexity fitting — the quantitative side of Theorem 4.4.

The paper *proves* TwigM polynomial and shows wall-clock plots; this
module closes the loop empirically: run an engine over a family of
inputs of growing size, fit ``cost ≈ a · n^k`` by least squares in
log-log space, and report the exponent ``k``.  On the figure 1 chain
family the expected exponents are sharp:

* TwigM: time and operations ~ ``n^1`` (linear), peak state ~ ``n^1``;
* explicit-match (XSQ family): records ~ ``n^2``, time ≥ ``n^2``;
* enumerative DOM (Galax family): enumerated matches ~ ``n^2``.

Used by ``benchmarks/test_ablation_complexity.py`` and the
``python -m repro.bench --figure A`` ablation table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.enumerative import count_pattern_matches
from repro.baselines.explicit import ExplicitMatchEngine
from repro.core.twigm import TwigM
from repro.stream.document import build_document
from repro.stream.events import Event
from repro.stream.tokenizer import parse_string

#: The figure 1 query.
CHAIN_QUERY = "//a[d]//b[e]//c"


def chain_document(n: int) -> str:
    """The paper's figure 1 chain: a₁…aₙ over b₁…bₙ over c₁."""
    parts = ["<a>", "<d/>"] + ["<a>"] * (n - 1)
    parts += ["<b>", "<e/>"] + ["<b>"] * (n - 1)
    parts += ["<c/>", "</b>" * n, "</a>" * n]
    return "".join(parts)


def fit_exponent(sizes: Sequence[int], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) against log(size).

    Zero/negative costs are clamped to a small epsilon so a flat series
    fits ~0 rather than exploding.
    """
    assert len(sizes) == len(costs) >= 2
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(cost, 1e-9)) for cost in costs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


@dataclass(frozen=True, slots=True)
class ScalingSeries:
    """One engine's measured costs across the size family."""

    label: str
    sizes: tuple[int, ...]
    costs: tuple[float, ...]

    @property
    def exponent(self) -> float:
        return fit_exponent(self.sizes, self.costs)

    def row(self) -> dict[str, object]:
        cells: dict[str, object] = {"series": self.label}
        for size, cost in zip(self.sizes, self.costs):
            cells[f"n={size}"] = round(cost, 4)
        cells["fitted k"] = round(self.exponent, 2)
        return cells


def _timed(run: Callable[[], object], repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def chain_scaling(
    sizes: Sequence[int] = (40, 80, 160),
    repeats: int = 3,
    enumerative_cap: int = 120,
) -> list[ScalingSeries]:
    """Measure the figure-1 family across engines; one series per metric.

    The enumerative DOM engine is *cubic* in wall-clock on this family
    (n² partial bindings × O(n) descendant scans), so its series is
    capped at ``enumerative_cap`` — the match *count* it reports is
    already quadratic well before that.
    """
    sizes = tuple(sizes)
    events_by_n: dict[int, list[Event]] = {
        n: list(parse_string(chain_document(n))) for n in sizes
    }

    twigm_time: list[float] = []
    twigm_ops: list[float] = []
    twigm_state: list[float] = []
    explicit_time: list[float] = []
    explicit_records: list[float] = []
    enumerative_sizes: list[int] = []
    enumerated: list[float] = []

    for n in sizes:
        events = events_by_n[n]

        def run_twigm() -> TwigM:
            machine = TwigM(CHAIN_QUERY)
            machine.feed(iter(events))
            return machine

        twigm_time.append(_timed(run_twigm, repeats))
        machine = run_twigm()
        twigm_ops.append(machine.counts.total_work())
        twigm_state.append(machine.counts.peak_entries)

        engine = ExplicitMatchEngine()
        explicit_time.append(
            _timed(lambda: engine.run(CHAIN_QUERY, iter(events)), repeats)
        )
        engine.run(CHAIN_QUERY, iter(events))
        explicit_records.append(engine.peak_matches)

        if n <= enumerative_cap:
            document = build_document(iter(events))
            enumerative_sizes.append(n)
            enumerated.append(count_pattern_matches(document, "//a//b//c"))

    series = [
        ScalingSeries("TwigM time (s)", sizes, tuple(twigm_time)),
        ScalingSeries("TwigM operations", sizes, tuple(twigm_ops)),
        ScalingSeries("TwigM peak entries", sizes, tuple(twigm_state)),
        ScalingSeries("XSQ* time (s)", sizes, tuple(explicit_time)),
        ScalingSeries("XSQ* peak records", sizes, tuple(explicit_records)),
    ]
    if len(enumerative_sizes) >= 2:
        series.append(
            ScalingSeries(
                "Galax* enumerated", tuple(enumerative_sizes), tuple(enumerated)
            )
        )
    return series


def render_chain_scaling(series: Sequence[ScalingSeries]) -> str:
    """The ablation table: costs per n and the fitted exponent."""
    from repro.bench.report import render_dict_rows

    return render_dict_rows(
        "Ablation A: multi-match scaling on the figure-1 chain "
        f"(query {CHAIN_QUERY})",
        [entry.row() for entry in series],
    )
