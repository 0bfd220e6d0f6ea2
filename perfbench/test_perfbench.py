"""Tests of the benchmark itself, on the tiny corpus profile.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
import workloads
from repro.bench import corpora
from repro.obs.trace import Tracer

HERE = Path(__file__).resolve().parent
QUERIES = 20  # standing queries for multiq at test scale


@pytest.fixture(scope="module")
def texts():
    return harness.generate_corpora(3, "tiny")


def build(name, texts, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](texts, seed, tmp_path, QUERIES)
    workload.prepare(workload.reference())
    workload.setup(keep=True)
    return workload


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond(self):
        assert harness.min_samples_for(90) == 100
        assert harness.percentile(list(range(1, 101)), 90) == 90
        with pytest.raises(ValueError, match="10 samples beyond"):
            harness.percentile(list(range(1, 100)), 90)

    def test_p50_needs_ten_samples_beyond(self):
        assert harness.min_samples_for(50) == 20
        assert harness.percentile(list(range(20, 0, -1)), 50) == 10
        with pytest.raises(ValueError):
            harness.percentile(list(range(19)), 50)

    def test_p99_needs_a_thousand_samples(self):
        assert harness.min_samples_for(99) == 1000


class TestBlocks:
    def test_a_block_closes_once_it_supports_a_p90(self):
        def run(clock):
            for _ in range(60):
                clock.begin()
                clock.end()
            return [], {}

        ledger = harness.OpLedger()
        for _ in range(3):
            ledger.run_pass(harness.PassSpec("p", 1.0, run, expected_results=[]))
            ledger.end_round()
        assert [len(block.ops) for block in ledger.blocks] == [120]
        assert len(ledger.block_metrics()["op_us_p90"]) == 1

    def test_a_count_must_repeat_in_every_round(self):
        values = iter([5, 5, 6])

        def run(clock):
            clock.begin()
            clock.end()
            return [], {"n": next(values)}

        ledger = harness.OpLedger()
        for _ in range(3):
            ledger.run_pass(harness.PassSpec("p", 1.0, run, expected_results=[]))
        assert (ledger.attempted, ledger.failed) == (3, 1)
        assert "n = 6, expected 5" in ledger.errors[0]


class TestFailedOps:
    def test_correct_passes_fail_nothing(self, texts, tmp_path):
        workload = build("multiq-1000", texts, tmp_path)
        ledger = harness.OpLedger()
        for spec in workload.round():
            ledger.run_pass(spec)
        assert ledger.attempted > 0
        assert ledger.failed == 0 and not ledger.errors

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_wrong_result_fails_every_op_of_its_pass(self, name, texts, tmp_path):
        workload = build(name, texts, tmp_path)
        spec = workload.round()[0]
        spec.expected_results = "not the reference"
        ledger = harness.OpLedger()
        ledger.run_pass(spec)
        assert ledger.attempted > 0
        assert ledger.failed == ledger.attempted
        assert "differ from the reference" in ledger.errors[0]

    def test_raising_op_fails_its_pass(self):
        def run(clock):
            for _ in range(2):
                clock.begin()
                clock.end()
            clock.begin()
            raise RuntimeError("boom")

        tracer = Tracer()
        ledger = harness.OpLedger(tracer=tracer)
        ledger.run_pass(harness.PassSpec("p", 10, run, expected_results=[]))
        assert (ledger.attempted, ledger.failed) == (3, 3)
        assert tracer.open_spans == []

    def test_changed_count_fails_its_pass(self, texts, tmp_path):
        workload = build("store-ingest", texts, tmp_path)
        spec = workload.round()[0]
        spec.expected_counts["log.bytes"] = -1
        ledger = harness.OpLedger()
        ledger.run_pass(spec)
        assert ledger.failed == ledger.attempted > 0
        assert "log.bytes" in ledger.errors[0]


class TestSeeds:
    def test_seed_zero_reproduces_the_repository_corpora(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path))
        ours = harness.generate_corpora(0, "tiny")
        for dataset, key in workloads.QUERY_SET_KEYS.items():
            path = corpora.get_corpus(key, "tiny").path
            assert path.read_text(encoding="utf-8") == ours[dataset]

    def test_seed_changes_every_input(self, texts):
        other = harness.generate_corpora(4, "tiny")
        assert all(other[dataset] != texts[dataset] for dataset in harness.DATASETS)
        assert workloads.multiq_queries(3, QUERIES) != workloads.multiq_queries(4, QUERIES)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_counts(self, name, tmp_path):
        counts = []
        for attempt in range(2):
            texts = harness.generate_corpora(5, "tiny")
            workdir = tmp_path / str(attempt)
            workdir.mkdir()
            workload = build(name, texts, workdir, seed=5)
            ledger = harness.OpLedger()
            for spec in workload.round():
                ledger.run_pass(spec)
            assert ledger.failed == 0
            counts.append(ledger.counts)
        assert counts[0] == counts[1] and counts[0]

    def test_layer_counts_repeat_and_every_metric_is_reported(self, tmp_path):
        texts = harness.generate_corpora(5, "tiny")
        counts = []
        for attempt in range(2):
            probe = layers.LayerProbe(texts, 5, tmp_path, Tracer(), QUERIES)
            metrics = probe.run()
            assert probe.errors == []
            counts.append(probe.counts())
        assert counts[0] == counts[1]
        added_by_runner = {"results.count", "trace.overhead"}
        names = {name for name, _unit in layers.LAYER_METRICS} - added_by_runner
        assert set(metrics) == names


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_child_returns_the_in_process_reference(texts, tmp_path):
    import run

    expected = workloads.compute_reference("store-ingest", texts, 3)
    assert run.reference_in_child("store-ingest", texts, 3, tmp_path) == expected
