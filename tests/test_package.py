import os
import subprocess
import sys

import prefvote
from prefvote import fileio
from prefvote.learning import FitConfig


def test_export_list_resolves_without_duplicates():
    names = prefvote.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(prefvote, name)] == []
    namespace = {}
    exec("from prefvote import *", namespace)
    assert set(names) <= set(namespace)


def _run_probe(probe: str) -> str:
    source = os.path.dirname(os.path.dirname(prefvote.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_does_not_load_scipy_optimize():
    # The fit is a Newton solve of its own; the package needs no optimizer.
    probe = "import sys, prefvote; print('scipy.optimize' in sys.modules)"
    assert _run_probe(probe) == "False"


def test_summarize_decide_and_axioms_run_without_scipy(tmp_path):
    # Only fitting, the experiments and pair probabilities read scipy; the
    # decision-time commands must not pay for loading it.
    models = tmp_path / "models.json"
    fileio.save_voter_models(
        str(models),
        [
            fileio.VoterModelRecord("v1", (1.0, 0.5), True, 3),
            fileio.VoterModelRecord("v2", (2.0, -0.5), True, 4),
        ],
        FitConfig(),
    )
    (tmp_path / "alternatives.csv").write_text("id,f_1,f_2\na,3,0\nb,-3,0\nc,0,-1\n")
    (tmp_path / "profile.csv").write_text("weight,ranking\n0.6,a>b>c\n0.4,b>a>c\n")
    commands = [
        ["summarize", "--models", "models.json", "--out", "summary.json"],
        ["decide", "--summary", "summary.json", "--alternatives", "alternatives.csv"],
        ["axioms", "--check", "swd", "--scc", "borda", "--profile", "profile.csv"],
        ["axioms", "--check", "stability", "--scc", "borda",
         "--summary", "summary.json", "--alternatives", "alternatives.csv",
         "--subset", "a,c", "--family", "pl", "--mode", "exact"],
    ]
    probe = (
        "import contextlib, io, os, sys\n"
        "import prefvote, prefvote.cli\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert prefvote.cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _run_probe(probe) == "[]"


def test_experiments_import_loads_scipy_special():
    # Deliberate: experiments loads scipy.special at import so that a
    # simulate run does not load it part-way through (CHANGES.md has the
    # measurements behind this).
    probe = "import sys, prefvote.experiments; print('scipy.special' in sys.modules)"
    assert _run_probe(probe) == "True"
