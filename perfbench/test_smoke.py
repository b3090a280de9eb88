"""Smoke test of the benchmark itself, on tiny job lists.

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 987654
TINY = ("lifted_n2", "lifted_n3")


def _tiny_jobs(workload, seed, _full=workloads.build_jobs):
    return [j for j in _full(workload, seed) if j.instance.name in TINY][:6]


def _run(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(workloads, "build_jobs", _tiny_jobs)
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(capsys, monkeypatch, workload):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, monkeypatch, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[table]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared


def test_same_seed_gives_same_reports(capsys, monkeypatch):
    first = _run(capsys, monkeypatch, "sufficient_check", 0)
    second = _run(capsys, monkeypatch, "sufficient_check", 0)
    assert second["correct"] is True
    assert second["failed"] == first["failed"]


def _outcome(report: dict, code: int) -> run.Outcome:
    doc = {"exit_code": code, "runtime_seconds": 0.5,
           "generated_at": "2026-01-01T00:00:00+00:00", **report}
    return run.Outcome(0.1, code, json.dumps(doc, sort_keys=True).encode(), None)


def test_unsound_certificate_counts_as_failed():
    job = next(j for j in workloads.build_jobs("sufficient_check", SEED)
               if j.key == "lifted_n2/point-above")
    assert job.kappa > job.instance.truth + verify.kappa_tol(job.instance.truth)
    fake = _outcome({"verdict": "certified",
                     "kappa_bounds": {"certified": job.kappa}}, 0)
    result = run.grade([job], [[fake], [fake]], None)
    assert list(result.failures) == [job.key]
    assert result.failures[job.key].startswith("unsound")
    assert result.broken == 0 and result.decided == 0


def test_changed_bytes_count_as_failed_and_incorrect():
    job = next(j for j in workloads.build_jobs("sufficient_check", SEED)
               if j.key == "lifted_n2/point-below")
    a = _outcome({"verdict": "certified", "kappa_bounds": {"certified": job.kappa}}, 0)
    b = _outcome({"verdict": "certified", "kappa_bounds": {"certified": job.kappa},
                  "diagnostics": ["cached"]}, 0)
    result = run.grade([job], [[a], [b]], None)
    assert result.failures == {job.key: "report bytes differ between passes"}
    assert result.broken == 1
    same = run.grade([job], [[a], [a]], {job.key: "0" * 64})
    assert same.broken == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "oracle_sampling", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          timeout=120)
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout
