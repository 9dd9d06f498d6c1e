"""Smoke tests for the benchmark, on a few (n, q) per workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run
import spans
import workloads

SPEC = json.loads((Path(run.__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
TINY = {
    "acceptance27": [(9, 2), (11, 2)],
    "gen-sweep": [(9, 3), (10, 5), (11, 2)],
    "verify-primes": [(9, 17)],
}


def bench(capsys, workload, trace, pairs=None):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, pairs=pairs or TINY[workload]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_the_emitted_names():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_its_metrics(capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert "metric fail_ratio 0 ratio" in lines
        for m in spec:
            assert result["metrics"][m["name"]]["value"] > 0


def test_trace_report_names_every_layer_metric(capsys):
    lines, _ = bench(capsys, "acceptance27", 1)
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    for name in ("matrix.order.s", "matrix.order.self_s", "matrix.mul.s.oddext",
                 "construct.build.s", "certify.verify.self_s",
                 "meataxe.attempts_per_call", "trace.overhead_s"):
        assert name in printed


def test_accepted_tamper_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "TAMPERS", {"noop": lambda cert, rng: cert})
    lines, result = bench(capsys, "verify-primes", 0)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "metric fail_ratio 0.5 ratio" in lines


def test_missing_entry_point_is_absent_not_zero(capsys, monkeypatch):
    hooks = tuple(
        spans.Hook(h.name, "sl23.matrix:Mat.no_such_method")
        if h.name == "matrix.order" else h
        for h in spans.HOOKS
    )
    monkeypatch.setattr(spans, "HOOKS", hooks)
    lines, result = bench(capsys, "acceptance27", 1, [(9, 2)])
    assert result["correct"]
    assert not any(k.startswith("matrix.order") for k in result["metrics"])
    assert "note entry point matrix.order not found; its metrics are absent" in lines


def test_missing_cache_is_a_note():
    notes = spans.reset_caches(("sl23.construct:no_such_cache",))
    assert notes == ["no cache to reset at sl23.construct:no_such_cache"]


def test_without_sl23_exits_nonzero_and_prints_no_result(capsys, monkeypatch,
                                                          tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "gen-sweep", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
