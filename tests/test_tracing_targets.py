"""Every function the benchmark's tracer rebinds must exist in prefvote.

``bench/tracing.py`` wraps ``prefvote.<module>.<attribute>`` for each
entry of its ``TARGETS``; a renamed or deleted function would otherwise
surface only in the slow benchmark self-tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for module_name, attribute, _, _ in targets:
        module = importlib.import_module(f"prefvote.{module_name}")
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
