"""Self-tests of the benchmark harness.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import icmverify as iv  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import EXPECTED, WORKLOADS  # noqa: E402

NAMES = list(WORKLOADS)


def _pass(name, seed, n_ops, smoke=False, tracer=None):
    workload = WORKLOADS[name]
    inputs = run.make_inputs(workload, seed, n_ops, smoke)
    return run.run_pass(iv, workload, inputs, tracer)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs(name):
    make = WORKLOADS[name].make_input
    first = [make(7, i) for i in range(12)]
    again = [make(7, i) for i in range(12)]
    assert [(a.texts, a.expect) for a in first] == [(b.texts, b.expect) for b in again]
    assert [a.texts for a in first] != [make(8, i).texts for i in range(12)]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_size_finishes_in_a_few_seconds(name):
    t0 = time.perf_counter()
    done = _pass(name, 1, n_ops=20, smoke=True)
    assert done.failures == []
    assert len(done.times) == 20
    assert time.perf_counter() - t0 < 5.0


def test_table_large_meets_every_candidate_and_op_kind():
    inputs = [WORKLOADS["table_large"].make_input(4, i, True) for i in range(24)]
    assert Counter(inp.kind for inp in inputs) == {"verify": 18, "diff": 6}
    assert {(inp.kind, inp.extra["candidate"]) for inp in inputs} == {
        (kind, cand) for kind in ("verify", "diff") for cand in EXPECTED}


def test_oracle_dense_meets_every_op_kind():
    kinds = {WORKLOADS["oracle_dense"].make_input(5, i, True).kind for i in range(60)}
    assert kinds == {"channel", "table", "compiled", "dual", "demote"}


def test_an_op_counts_at_its_slowest_repetition():
    passes = [run.Pass(times=[1.0, 4.0]), run.Pass(times=[3.0, 2.0])]
    metrics = run.latency_metrics(passes)
    assert metrics["verdicts_per_s"] == pytest.approx(2 / 7)
    assert 3.0 < metrics["verdict_s.p50"] < metrics["verdict_s.p90"] < 4.0


def test_harrell_davis_estimates_quantiles():
    assert run.harrell_davis([5.0], 0.9) == 5.0
    assert run.harrell_davis([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    evenly = [float(i) for i in range(1, 101)]
    assert run.harrell_davis(evenly, 0.9) == pytest.approx(90.5, abs=0.05)


def test_a_flipped_verdict_raises_the_error_ratio(monkeypatch):
    real = iv.verify
    calls = []

    def flip_first(candidate, spec):
        report = real(candidate, spec)
        if not calls:
            report.table_ok = not report.table_ok
        calls.append(report)
        return report

    monkeypatch.setattr(iv, "verify", flip_first)
    done = _pass("many_small", 1, n_ops=5)
    assert len(calls) == 5
    assert len(done.failures) / len(done.times) == pytest.approx(0.2)


def test_a_raising_op_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stub")

    monkeypatch.setattr(iv, "oracle_truth_table", broken)
    done = _pass("oracle_dense", 1, n_ops=10, smoke=True)
    assert done.failures and all("table" in f for f in done.failures)


def test_traced_run_reports_every_per_layer_metric():
    tracer = tracing.Tracer()
    original = iv.verify
    tracer.install(iv)
    try:
        for name in NAMES:
            assert not _pass(name, 2, n_ops=20, smoke=True, tracer=tracer).failures
    finally:
        tracer.uninstall()
    assert iv.verify is original
    assert tracer.absent == []
    metrics, spans = tracer.take()
    assert spans and not tracer.spans
    reported = set(metrics) | {"trace.verdicts_per_s", "trace.overhead_ratio"}
    assert reported == {m["name"] for m in _benchmark_json()["per_layer"]}
    for layer in ("circuit.parse", "pauli.convert", "table.derive", "verifier.verify",
                  "verifier.spec_diff", "oracle.run_branch", "oracle.choi",
                  "compiler.compile", "compiler.frame_map", "transforms.rewrite"):
        assert metrics[f"{layer}_s"] > 0, layer
    assert 0 < metrics["oracle.live_branch_ratio"] <= 1
    assert metrics["pauli.row_cnot_updates"] > 0


def test_spans_nest_inside_their_parents():
    tracer = tracing.Tracer()
    tracer.install(iv)
    try:
        _pass("table_large", 3, n_ops=4, smoke=True, tracer=tracer)
    finally:
        tracer.uninstall()
    _, spans = tracer.take()
    assert spans
    for index, (layer, start, end, parent, op) in enumerate(spans):
        assert layer in tracing.LAYERS and start <= end and 0 <= op < 4
        if parent >= 0:
            _, p_start, p_end, _, p_op = spans[parent]
            assert parent < index and p_start <= start <= end <= p_end and p_op == op


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(iv.pauli, "rows_to_bits")
    tracer = tracing.Tracer()
    tracer.install(iv)
    try:
        done = _pass("many_small", 3, n_ops=5, smoke=True, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["pauli.rows_to_bits"]
    assert done.failures == []


def test_command_prints_the_result_line():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "many_small",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "many_small", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
