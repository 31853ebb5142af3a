import os
import subprocess
import sys

import prefvote


def test_export_list_resolves_without_duplicates():
    names = prefvote.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(prefvote, name)] == []
    namespace = {}
    exec("from prefvote import *", namespace)
    assert set(names) <= set(namespace)


def test_import_does_not_load_scipy_optimize():
    # The fit is a Newton solve of its own; the package needs no optimizer.
    source = os.path.dirname(os.path.dirname(prefvote.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    probe = "import sys, prefvote; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
