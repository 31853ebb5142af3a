"""The environment for a child Python process that runs this prefvote."""

import os

import prefvote


def child_env() -> dict[str, str]:
    """This process's environment with prefvote's source first on PYTHONPATH.

    A child started with ``sys.executable`` then imports the package under
    test, whether or not it is installed.
    """
    source = os.path.dirname(os.path.dirname(prefvote.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env
