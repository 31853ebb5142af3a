"""Self-tests for the benchmark: tiny runs of every workload.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Each run uses ``workloads.TINY`` sizes, so the whole file takes well
under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import prefvote.cli  # noqa: E402
import prefvote.learning  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from prefvote import experiments, scc  # noqa: E402

SPEC = run.load_spec()

#: Layers whose self time must be positive in a traced run of each workload.
EXERCISED = {
    "fit": ("cli", "fileio", "learning", "pipeline"),
    "simulate": ("learning", "pipeline", "experiments"),
    "simulate-jobs": ("cli", "fileio", "experiments"),
    "audit": ("fileio", "processes", "profiles", "scc"),
}


def tiny_run(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", str(trace)]
    code = run.main(argv, sizes=workloads.TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    code, result, lines = tiny_run(capsys, workload, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [entry["name"] for entry in SPEC[group]]
    assert any(line.startswith("output_sha256: ") for line in lines)
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        for layer in EXERCISED[workload]:
            assert metrics[f"{layer}.self_s"] > 0, layer
        report = "\n".join(lines)
        for label in tracing.LAYERS + ("uncovered", "overhead"):
            assert f"  {label}" in report
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fit_fails_loudly_when_decide_is_wrong(capsys, monkeypatch):
    # The traced run sends the pipeline through prefvote.cli.main in this
    # process, so a wrong decide there must trip the argmax check.
    def worst(model, alternatives):
        return min(alternatives, key=lambda alt: float(np.dot(model.beta_hat, alt.features)))

    monkeypatch.setattr(prefvote.cli, "decide", worst)
    code, result, _ = tiny_run(capsys, "fit", 1)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload, step", [("simulate", "eval_step2"), ("simulate-jobs", "eval_step3")])
def test_simulate_fails_loudly_when_library_and_cli_disagree(capsys, monkeypatch, workload, step):
    original = getattr(experiments, step)

    def flipped(config, n_jobs=1):
        curve = original(config, n_jobs)
        return replace(curve, mean_accuracy=tuple(1.0 - v for v in curve.mean_accuracy))

    monkeypatch.setattr(experiments, step, flipped)
    code, result, _ = tiny_run(capsys, workload, 0)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_audit_fails_loudly_when_a_rule_misses_the_max_utility_winner(capsys, monkeypatch):
    monkeypatch.setattr(scc, "apply_scc", lambda kind, profile: frozenset({max(profile.alternatives)}))
    code, result, _ = tiny_run(capsys, "audit", 0)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_tracer_restores_every_rebound_function():
    original = prefvote.learning.fit_voter
    tracer = tracing.Tracer()
    with tracer.installed():
        assert prefvote.cli.fit_voter is experiments.fit_voter is not original
    assert prefvote.cli.fit_voter is experiments.fit_voter is original
    assert prefvote.fit_voter is original


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
