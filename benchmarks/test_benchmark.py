"""Tests of the benchmark itself.

Run from the root of a checkout with ``python -m pytest benchmarks``.  The
smoke runs use ``--size tiny``; the fault-injection cases prove that a wrong
answer is counted as a failure and a crash on hostile input lowers
``ok_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*extra, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli_small", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _measure(workload):
    args = argparse.Namespace(seed=0, seconds=0.0)  # one pass
    result = run.measure(workload, args)
    workload.finish(result["executions"])
    return result


def _failed(result):
    return [ex for ex in result["executions"] if ex.failures]


def test_node_counts_repeat_for_one_seed(tmp_path):
    first = _measure(workloads.AbsentSpectrum(5, "tiny", str(tmp_path)))
    second = _measure(workloads.AbsentSpectrum(5, "tiny", str(tmp_path)))
    assert [p["nodes"] for p in first["passes"]] == [p["nodes"] for p in second["passes"]]


def test_tampered_witness_is_a_failure(tmp_path, monkeypatch):
    real = workloads.lc.longest_cycle

    def tampered(arr):
        res = real(arr)
        w = res.witness
        return type(res)(res.status, res.i, type(w)(w.lines, w.points[1:] + w.points[:1]), res.nodes)

    monkeypatch.setattr(workloads.lc, "longest_cycle", tampered)
    result = _measure(workloads.AbsentSpectrum(0, "tiny", str(tmp_path)))
    failed = _failed(result)
    assert failed and all(ex.op.startswith("longest:") for ex in failed)
    assert any("invalid witness" in msg for ex in failed for msg in ex.failures)


def test_wrong_frozen_set_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(corpus.FROZEN_FOUND, "hesse", (3, 4, 5))
    result = _measure(workloads.AbsentSpectrum(0, "tiny", str(tmp_path)))
    assert [ex.op for ex in _failed(result)] == ["spectrum:hesse"]


def test_crashing_cli_document_is_counted(tmp_path):
    workload = workloads.CliSmall(0, "tiny", str(tmp_path))
    workload.env = run.child_env()
    # Corrupt an input on which success is expected: the call now crashes
    # (or, once such input is rejected, exits 2), so the operation fails.
    path = workload.paths["mu4+coords"]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["line_names"] = 7
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    result = _measure(workload)
    assert [ex.op for ex in _failed(result)] == ["longest:mu4+coords"]
    executions = result["executions"]  # one pass
    metrics = run.end_to_end(result, [1.0])
    assert metrics["ok_rate"] == sum(ex.ok for ex in executions) / len(executions)
    assert not next(ex for ex in executions if ex.op == "longest:mu4+coords").ok


def test_in_process_cli_passes_its_checks(tmp_path):
    workload = workloads.CliSmall(0, "tiny", str(tmp_path))
    workload.in_process = True
    result = _measure(workload)
    assert not _failed(result)
    hostile = [ex.op for ex in result["executions"] if ex.hostile]
    assert len(hostile) == len(corpus.HOSTILE)
