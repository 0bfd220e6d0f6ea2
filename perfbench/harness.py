"""Shared machinery of the benchmark: corpora, percentiles, op accounting.

Everything here is independent of which workload runs.  The program under
test is only ever handed generated XML text and query strings; the seeded
generators that produce them run untimed, before any measurement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

from repro.bench.corpora import PROFILES
from repro.datasets import book, protein, xmark
from repro.stream.writer import write_events

#: Text is fed in chunks of this many characters, so that every pass
#: yields enough operations for a p90.
CHUNK_CHARS = 16 * 1024

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

#: Datasets in figure order, with the generator defaults the seed offsets.
DATASETS = ("book", "xmark", "protein")
_GENERATOR_DEFAULTS = {
    "book": book.PAPER_CONFIG,
    "xmark": xmark.DEFAULT_CONFIG,
    "protein": protein.DEFAULT_CONFIG,
}


def generator_config(dataset: str, seed: int):
    """The dataset's default generator config with its seed offset by ``seed``.

    Seed 0 reproduces the corpora :mod:`repro.bench.corpora` writes.
    """
    default = _GENERATOR_DEFAULTS[dataset]
    return dataclasses.replace(default, seed=default.seed + seed)


def generate_corpora(seed: int, profile: str = "small") -> dict[str, str]:
    """XML text of the Book, XMark and Protein corpora for ``seed``."""
    n_books, scale, n_entries = PROFILES[profile]
    producers = {
        "book": lambda: book.book_events(n_books, generator_config("book", seed)),
        "xmark": lambda: xmark.xmark_events(scale, generator_config("xmark", seed)),
        "protein": lambda: protein.protein_events(
            n_entries, generator_config("protein", seed)
        ),
    }
    texts = {}
    for dataset in DATASETS:
        buffer = io.StringIO()
        write_events(producers[dataset](), buffer)
        texts[dataset] = buffer.getvalue()
    return texts


def chunked(text: str, size: int = CHUNK_CHARS) -> list[str]:
    """``text`` cut into consecutive chunks of ``size`` characters."""
    return [text[start:start + size] for start in range(0, len(text), size)]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: "list[float]", pct: float) -> float:
    """Nearest-rank ``pct`` percentile, refused without a tail of ``MIN_TAIL``.

    The rank is ``ceil(pct/100 * n)``; the samples beyond it must number
    at least :data:`MIN_TAIL`, otherwise the percentile is not supported
    by the sample and :class:`ValueError` is raised.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(values)
    rank = max(1, math.ceil(pct / 100 * count))
    if count - rank < MIN_TAIL:
        raise ValueError(
            f"p{pct:g} needs {MIN_TAIL} samples beyond it; {count} samples "
            f"leave {count - rank}"
        )
    return sorted(values)[rank - 1]


def min_samples_for(pct: float) -> int:
    """The smallest sample count that supports ``percentile(.., pct)``."""
    count = 1
    while count - max(1, math.ceil(pct / 100 * count)) < MIN_TAIL:
        count += 1
    return count


def host_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value % 7
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / 1e6


class OpClock:
    """Times the ops of one pass, with a tracer span around each if given.

    ``begin()``/``end()`` bracket one op.  ``wall`` spans the first op's
    begin to the last op's end, so time spent between ops (span
    recording included) counts against the pass.
    """

    __slots__ = ("ops", "_tracer", "_started", "_first", "_last")

    def __init__(self, tracer=None):
        self.ops: list[float] = []
        self._tracer = tracer
        self._started = 0.0
        self._first: "float | None" = None
        self._last = 0.0

    def begin(self) -> None:
        if self._tracer is not None:
            self._tracer.begin("op", index=len(self.ops))
        self._started = time.perf_counter()
        if self._first is None:
            self._first = self._started

    def end(self) -> None:
        self._last = time.perf_counter()
        self.ops.append(self._last - self._started)
        if self._tracer is not None:
            self._tracer.end()

    @property
    def wall(self) -> float:
        return self._last - self._first if self._first is not None else 0.0


@dataclasses.dataclass
class PassSpec:
    """One checked unit of work: timed ops that end in a result.

    ``run(clock)`` brackets each op with ``clock.begin()``/``clock.end()``
    and returns ``(results, counts)``.  The pass is correct when the
    results equal ``expected_results`` and every deterministic count
    equals its expectation: ``expected_counts`` where the reference gives
    one, else the value the first pass with this ``key`` reported.
    """

    key: str
    chars: float
    run: Callable[[OpClock], "tuple[object, dict]"]
    expected_results: object
    expected_counts: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Block:
    """Consecutive whole rounds holding enough ops for a p90."""

    ops: list = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    chars: float = 0.0


@dataclasses.dataclass
class OpLedger:
    """Op latencies and failure accounting across passes and rounds.

    Timed rounds are grouped into blocks: each block closes at the end of
    the first round that brings it to ``min_samples_for(90)`` ops.  A
    metric is computed per block and reported as the mean over blocks.
    On a shared host that switches between speed states for seconds to
    a minute at a time, the mean moves smoothly with the share of the
    run spent in each state, where a median jumps between them.
    ``expectations`` holds the deterministic counts
    per pass key; ledgers of one run share it, so every pass of the run
    must repeat them.
    """

    tracer: object = None
    expectations: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    errors: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)
    blocks: list = dataclasses.field(default_factory=list)
    _open: Block = dataclasses.field(default_factory=Block)

    def run_pass(self, spec: PassSpec, timed: bool = True) -> None:
        """Run one pass; every op of a raising or wrong pass fails."""
        tracer = self.tracer if timed else None
        clock = OpClock(tracer)
        if tracer is not None:
            depth = len(tracer.open_spans)
            tracer.begin("pass", key=spec.key)
        try:
            results, counts = spec.run(clock)
        except Exception as exc:  # a raising op fails; the run goes on
            problem = f"{spec.key}: raised {type(exc).__name__}: {exc}"
            attempted = len(clock.ops) + 1
            while tracer is not None and len(tracer.open_spans) > depth + 1:
                tracer.end()  # the op span the exception left open
        else:
            attempted = len(clock.ops)
            problem = self._check(spec, results, counts)
        if tracer is not None:
            tracer.end()
        self.attempted += attempted
        if problem is not None:
            self.failed += attempted
            self.errors.append(problem)
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
        if timed:
            block = self._open
            block.ops.extend(clock.ops)
            block.busy_s += clock.wall
            block.chars += spec.chars
            self.passes += 1

    def end_round(self) -> None:
        """Close the open block if it now supports a p90."""
        if len(self._open.ops) >= min_samples_for(90):
            self.blocks.append(self._open)
            self._open = Block()

    def _check(self, spec: PassSpec, results, counts: dict) -> "str | None":
        if results != spec.expected_results:
            return f"{spec.key}: results differ from the reference"
        expected = self.expectations.setdefault(spec.key, dict(spec.expected_counts))
        for name, value in counts.items():
            if expected.setdefault(name, value) != value:
                return (f"{spec.key}: deterministic count {name} = {value}, "
                        f"expected {expected[name]}")
            self.counts[f"{spec.key}:{name}"] = value
        return None

    @property
    def ops(self) -> int:
        return sum(len(block.ops) for block in self.blocks)

    def block_metrics(self) -> dict:
        """Each block's throughput (document MB per busy second) and op
        latency percentiles (µs), in block order."""
        return {
            "throughput_mb_s": [b.chars / b.busy_s / 1e6 for b in self.blocks],
            "op_us_p50": [percentile(b.ops, 50) * 1e6 for b in self.blocks],
            "op_us_p90": [percentile(b.ops, 90) * 1e6 for b in self.blocks],
        }


def git_sha(root: Path) -> str:
    """The checkout's commit from ``.git`` files, or ``"unknown"``.

    Read directly (no subprocess, no search above ``root``) because the
    benchmark may run in an exported tree that is not a repository.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256(root: Path) -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in (root / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
    }


def interquartile_mean(values: "list[float]") -> float:
    """Mean of the middle half: deaf to a stray pause, smooth across
    the host's speed states."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])
