"""Benchmark of the XPath stream processor: XML text in, checked results out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7-single --seed 0 --seconds 10 --trace 0

Workloads: ``fig7-single``, ``multiq-1000``, ``store-ingest``,
``store-replay`` (see ``perfbench/workloads.py``).  The seed offsets the
Book, XMark and Protein generator seeds and the standing-query mix; seed
0 reproduces the repository's default corpora.

After untimed set-up and one untimed warm-up round, whole rounds run
until ``--seconds`` have passed and at least ``MIN_BLOCKS`` blocks of
ops (see ``harness.OpLedger``) are complete.  One set-up is timed
before the warm-up and one more before every round, so its samples are
spread over the run like the ops are.  Before every round the host's
speed is also gauged with a fixed pure-Python loop; the samples go to
the run's record only, to show the state of a shared host.

The reference results every pass is checked against are computed in a
child process, so that ``peak_rss_mb`` is the workload's own; the child
is a plain interpreter that the runner waits for, so no process outlives
a run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload with tracer spans on every other round (giving
``trace.overhead``), then the per-layer probes of ``layers.py``, and
writes the spans as a Chrome trace.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, and a file under ``.perfbench_out/``,
record the seed, corpus sizes and digests, the environment and the
deterministic counts.  Counts are also kept per (workload, seed,
digest of the program's and the benchmark's sources), and a later run
that disagrees with them reports an error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Corpus profile of ``repro.bench.corpora``.
PROFILE = "small"

#: Blocks an untraced run completes at least; metrics are their means.
MIN_BLOCKS = 5

#: Seconds the reference child may take before it is killed.
REFERENCE_TIMEOUT_S = 120

#: The reference child: argv is (src dir, perfbench dir, request, answer).
REFERENCE_CHILD = """\
import pickle, sys
sys.path[:0] = sys.argv[1:3]
import workloads
with open(sys.argv[3], "rb") as request:
    args = pickle.load(request)
with open(sys.argv[4], "wb") as answer:
    pickle.dump(workloads.compute_reference(*args), answer)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_mb_s": "MB/s",
    "op_us_p50": "us",
    "op_us_p90": "us",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, ledgers, seconds: float, min_blocks: int,
               before_round) -> None:
    """Whole rounds, ledgers taking turns, until time and blocks suffice."""
    started = time.perf_counter()
    turn = 0
    while True:
        ledger = ledgers[turn % len(ledgers)]
        before_round()
        for spec in workload.round():
            ledger.run_pass(spec)
        ledger.end_round()
        turn += 1
        if turn % len(ledgers):
            continue
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and min(len(l.blocks) for l in ledgers) >= min_blocks:
            return
        if elapsed >= 4 * seconds + 60:
            return  # the ops cannot fill the blocks; reported as an error


def reference_in_child(name: str, texts: dict, seed: int, workdir: Path):
    """``workloads.compute_reference`` in a child process, waited for.

    ``subprocess.run`` kills and reaps the child on a timeout or any
    other way out, so it never outlives the run.
    """
    request, answer = workdir / "reference-in.pickle", workdir / "reference-out.pickle"
    request.write_bytes(pickle.dumps((name, texts, seed)))
    subprocess.run(
        [sys.executable, "-c", REFERENCE_CHILD, str(ROOT / "src"),
         str(Path(__file__).resolve().parent), str(request), str(answer)],
        check=True, timeout=REFERENCE_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    return pickle.loads(answer.read_bytes())


def check_counts(name: str, counts: dict, environment: dict) -> "list[str]":
    """Compare deterministic counts with an earlier run of the same code."""
    path = OUT / "counts" / f"{name}-{environment['source_sha256'][:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [
            f"deterministic count {key} = {value}, an earlier run had {earlier[key]}"
            for key, value in sorted(counts.items())
            if key in earlier and earlier[key] != value
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import harness
    import layers
    import workloads
    from repro.obs.trace import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        texts = harness.generate_corpora(args.seed, PROFILE)
        workload = workloads.WORKLOADS[args.workload](texts, args.seed, workdir)
        reference = reference_in_child(args.workload, texts, args.seed, workdir)
        workload.prepare(reference)
        setup_samples = [workload.setup(keep=True)]
        expectations: dict = {}
        warmup = harness.OpLedger(expectations=expectations)
        for spec in workload.round():
            warmup.run_pass(spec, timed=False)

        tracer = Tracer() if args.trace else None
        ledgers = [harness.OpLedger(expectations=expectations)]
        if tracer is not None:
            ledgers.append(harness.OpLedger(tracer=tracer, expectations=expectations))
        host_samples: list[float] = []

        def before_round() -> None:
            setup_samples.append(workload.setup(keep=False))
            host_samples.append(harness.host_probe_s())
            gc.collect()  # the discarded set-up's garbage is not the round's

        run_rounds(workload, ledgers, args.seconds / len(ledgers),
                   1 if tracer is not None else MIN_BLOCKS, before_round)
        if any(not ledger.blocks for ledger in ledgers):
            print("perfbench: too few ops completed to support a p90",
                  file=sys.stderr)
            return 1

        plain = ledgers[0]
        counts = dict(plain.counts)
        attempted = warmup.attempted + sum(ledger.attempted for ledger in ledgers)
        failed = warmup.failed + sum(ledger.failed for ledger in ledgers)
        errors = warmup.errors + [e for ledger in ledgers for e in ledger.errors]
        late_errors = []
        per_block = plain.block_metrics()
        if tracer is None:
            metrics = {name: statistics.fmean(values)
                       for name, values in per_block.items()}
            metrics.update(
                setup_s=harness.interquartile_mean(setup_samples),
                peak_rss_mb=harness.peak_rss_mb(),
                ok_ratio=1.0 - failed / attempted,
            )
            units = END_TO_END_UNITS
        else:
            probe = layers.LayerProbe(texts, args.seed, workdir, tracer)
            metrics = probe.run()
            metrics["results.count"] = sum(  # one round's results
                value for key, value in plain.counts.items()
                if key.endswith(":results.count")
            )
            untraced, traced = (  # seconds per character, median over blocks
                statistics.median(b.busy_s / b.chars for b in ledger.blocks)
                for ledger in ledgers
            )
            metrics["trace.overhead"] = traced / untraced - 1.0
            counts.update(probe.counts())
            units = dict(layers.LAYER_METRICS)
            late_errors += probe.errors
        environment = harness.environment(ROOT)
        late_errors += check_counts(label, counts, environment)
        for error in late_errors:
            print(f"perfbench: ERROR {error}", file=sys.stderr)
        errors += late_errors

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "profile": PROFILE,
            "chunk_chars": harness.CHUNK_CHARS,
            "corpora": {
                dataset: {"chars": len(text), "sha256": harness.sha256_text(text)}
                for dataset, text in texts.items()
            },
            "inputs": workload.describe(),
            "environment": environment,
            "samples": {"ops": plain.ops, "blocks": len(plain.blocks),
                        "passes": plain.passes, "setups": len(setup_samples)},
            "blocks": per_block,
            "setup_samples": setup_samples,
            "host_probe_s": host_samples,
            "counts": counts,
            "errors": errors,
        }
        if tracer is not None:
            trace_path = OUT / f"trace-{label}.json"
            tracer.dump(str(trace_path))
            record["trace_file"] = str(trace_path.relative_to(ROOT))
        (OUT / f"result-{label}.json").write_text(
            json.dumps({**record, "metrics": metrics}, indent=2, sort_keys=True)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
