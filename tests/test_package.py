import dataclasses
import subprocess
import sys

import numpy as np
from childenv import child_env

import prefvote
from prefvote import fileio
from prefvote.learning import FitConfig, FitResult


def test_export_list_resolves_without_duplicates():
    names = prefvote.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(prefvote, name)] == []
    namespace = {}
    exec("from prefvote import *", namespace)
    assert set(names) <= set(namespace)


def test_test_only_helpers_are_not_in_the_package():
    # Their reference forms live in tests/oracles.py; a ranking's weight
    # reads as profile.support.get(ranking, 0.0).
    dropped = ("PreorderReport", "check_total_preorder", "restrict_ranking",
               "swap_ranking", "gaussian_kl")
    for module in (prefvote, prefvote.profiles, prefvote.pipeline):
        assert [name for name in dropped if hasattr(module, name)] == []
    assert not hasattr(prefvote.Ranking, "position")
    assert not hasattr(prefvote.Ranking, "prefers")
    assert not hasattr(prefvote.AnonymousProfile, "weight")
    # Tests build profiles from index rows with oracles.profile_from_orders.
    assert not hasattr(prefvote.AnonymousProfile, "from_orders")
    # Borda scores through the private scc._positional; every fit starts
    # from zero weights; a process's dimension is len(spec.beta).
    for module in (prefvote, prefvote.scc):
        assert not hasattr(module, "positional_scores")
    assert not hasattr(prefvote.ProcessSpec, "dim")
    # Model files are written from FitResults and read back as arrays.
    assert not hasattr(fileio, "VoterModelRecord")
    assert [field.name for field in dataclasses.fields(FitConfig)] == [
        "max_iterations", "gradient_tolerance", "l2_penalty"
    ]


def _run_probe(probe: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_does_not_load_scipy_optimize():
    # The fit is a Newton solve of its own; the package needs no optimizer,
    # nor any other scipy module.
    probe = (
        "import sys, prefvote\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _run_probe(probe) == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only simulate --jobs uses the pool, so fit, summarize and decide
    # children need not load multiprocessing.
    probe = (
        "import sys, prefvote.cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    assert _run_probe(probe) == "False"


def test_cli_import_leaves_experiments_unloaded():
    # Only simulate runs experiments, so fit, summarize and decide
    # children need not compile and run it.
    probe = (
        "import sys, prefvote.cli\n"
        "print('prefvote.experiments' in sys.modules)\n"
    )
    assert _run_probe(probe) == "False"


def _scipy_modules_after(tmp_path, commands) -> str:
    # Runs each command through prefvote.cli.main in one fresh interpreter,
    # in tmp_path, and returns the scipy modules it left loaded.
    probe = (
        "import contextlib, io, os, sys\n"
        "import prefvote, prefvote.cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert prefvote.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    return _run_probe(probe)


def test_summarize_decide_and_axioms_run_without_scipy(tmp_path):
    # The package's numerics are numpy and math alone: the decision-time
    # commands, a Thurstone pair probability included, load no scipy module.
    fileio.save_voter_models(
        str(tmp_path / "models.json"),
        ["v1", "v2"],
        [
            FitResult(np.array([1.0, 0.5]), 0.0, True, 3),
            FitResult(np.array([2.0, -0.5]), 0.0, True, 4),
        ],
        FitConfig(),
    )
    (tmp_path / "alternatives.csv").write_text("id,f_1,f_2\na,3,0\nb,-3,0\nc,0,-1\n")
    (tmp_path / "pair.csv").write_text("id,f_1,f_2\na,3,0\nc,0,-1\n")
    (tmp_path / "profile.csv").write_text("weight,ranking\n0.6,a>b>c\n0.4,b>a>c\n")
    stability = ["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", "summary.json", "--subset", "a,c", "--mode", "exact"]
    commands = [
        ["summarize", "--models", "models.json", "--out", "summary.json"],
        ["decide", "--summary", "summary.json", "--alternatives", "alternatives.csv"],
        ["axioms", "--check", "swd", "--scc", "borda", "--profile", "profile.csv"],
        stability + ["--alternatives", "alternatives.csv", "--family", "pl"],
        stability + ["--alternatives", "pair.csv", "--family", "tm"],
    ]
    assert _scipy_modules_after(tmp_path, commands) == "[]"


def test_fit_and_simulate_run_without_scipy(tmp_path):
    # The probit fit and the synthetic experiments load no scipy module either.
    (tmp_path / "comparisons.csv").write_text(
        "voter_id,c_1,c_2,r_1,r_2\nv1,1,0,0,1\nv1,2,1,0,0\nv2,0,1,1,0\n"
    )
    (tmp_path / "config.json").write_text(
        '{"n_runs": 1, "n_voters": 3, "n_test_instances": 2, '
        '"comparisons_grid": [5], "voters_grid": [1, 2], '
        '"profile_sample_count": 50}'
    )
    commands = [
        ["fit", "--comparisons", "comparisons.csv", "--out", "models.json"],
        ["simulate", "step2", "--config", "config.json"],
        ["simulate", "step3", "--config", "config.json"],
    ]
    assert _scipy_modules_after(tmp_path, commands) == "[]"
