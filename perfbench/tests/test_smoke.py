"""Tiny-configuration runs of every workload kind, and the correctness gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

_TINY = {"px": 2, "py": 2, "tolerance": 1e-3, "queries": 40, "checks": 4, "max_rel_err": 1e-2}

TINY_WORKLOADS = {
    "sweep-heavy": dict(
        _TINY, kind="greedy", nx=8, train_per_dim=4, batch_sizes=[1], workers=1,
    ),
    "experiment-oracle": dict(
        _TINY, kind="experiment", nx=12, train_per_dim=3, batch_sizes=[1, 4, 8],
        workers=2, test_count=5,
    ),
}


def declared_metrics(kind):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def test_workloads_match_the_declaration():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert list(TINY_WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY_WORKLOADS) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = declared_metrics("per_layer" if trace else "end_to_end")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_counts_repeat_across_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    argv = ["--workload", "sweep-heavy", "--seed", "5", "--seconds", "1", "--trace", "0"]
    for _ in range(2):
        assert run.main(argv, workloads=TINY_WORKLOADS) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]
    spec = dict(TINY_WORKLOADS["sweep-heavy"], name="sweep-heavy")
    counts = {"basis_size": 999}
    assert run.check_counts("sweep-heavy", spec, 5, counts) != []


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    argv = ["--workload", "sweep-heavy", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def tiny_build():
    layers, _ = job.import_layers()
    spec = dict(TINY_WORKLOADS["sweep-heavy"], seed=0)
    points = layers.bench.build_test_set(2, 2, spec["checks"], seed=11)
    built = job.GreedyJob(layers, spec)
    sampler = speed.SpeedProbe(period_s=0)
    _, runs = built.run_rep(sampler, job.Online(layers, points))
    references, _ = job.reference_solutions(layers, built.system, points)
    return layers, runs[0], points, references


def test_gate_passes_the_real_model(tiny_build):
    layers, good, points, references = tiny_build
    problems, stats = job.gate(layers, [good], points, references, max_rel_err=1e-2)
    assert problems == []
    assert stats["effectivity_min"] >= 1.0


def test_gate_fires_on_a_truncated_model(tiny_build):
    layers, good, points, references = tiny_build
    wrong = job.Run(
        good.system, good.basis.prefix(1), layers.rb.prefix_model(good.model, 1), good.trace
    )
    layers.estimator.build_estimator(wrong.model, wrong.basis, wrong.system)
    problems, _ = job.gate(layers, [wrong], points, references, max_rel_err=1e-2)
    assert any("relative test error" in problem for problem in problems)


def test_gate_fires_on_wrong_references(tiny_build):
    layers, good, points, references = tiny_build
    shuffled = references[1:] + references[:1]
    problems, _ = job.gate(layers, [good], points, shuffled, max_rel_err=1e-2)
    assert problems


def test_gate_fires_on_an_estimate_below_the_error(tiny_build):
    layers, good, points, references = tiny_build
    blind = SimpleNamespace(**vars(layers))
    blind.estimator = SimpleNamespace(estimate=lambda *args: 0.0)
    problems, stats = job.gate(blind, [good], points, references, max_rel_err=1e-2)
    assert any("estimate below the true error" in problem for problem in problems)
    assert stats["bound_violations"] == len(points)


def test_gate_fires_on_a_wrong_stop_reason(tiny_build):
    layers, good, points, references = tiny_build
    stopped = job.Run(
        good.system, good.basis, good.model,
        dataclasses.replace(good.trace, stop_reason="exhausted"),
    )
    problems, _ = job.gate(layers, [stopped], points, references, max_rel_err=1e-2)
    assert any("exhausted" in problem for problem in problems)


def test_experiment_files_check_fires():
    rows = [{"batchsizes": "1"}, {"batchsizes": "4"}]
    report = {"runs": [{"mode": "weak", "batch_size": 1, "checks": [
        {"name": "P1", "status": "pass"}, {"name": "P2", "status": "fail"},
    ]}]}
    problems = job.check_experiment_files(rows, report, [1, 4, 8])
    assert len(problems) == 2
    assert job.check_experiment_files(rows, {"runs": []}, [1, 4]) == []
