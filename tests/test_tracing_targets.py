"""Every function the benchmark's tracer rebinds must exist in prefvote.

``bench/tracing.py`` wraps ``prefvote.<module>.<attribute>`` for each
entry of its ``TARGETS``; a renamed or deleted function would otherwise
surface only in the slow benchmark self-tests.
"""

import collections
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import numpy as np

from prefvote import experiments, fileio, learning, processes, scc

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


def test_comparison_counters_read_what_the_package_returns():
    # _count_parse_comparisons counts fileio.rows as len(result), and the
    # `prefvote fit` hands the parser's result straight to group_comparisons.
    text = "voter_id,c_1,r_1\nv1,1,0\n\nv2,0,1\nv1,2,1\n"
    table = fileio.parse_comparisons(io.StringIO(text))
    assert len(table) == 3
    grouped = fileio.group_comparisons(table)
    assert [rows.shape for rows in grouped] == [(2, 1), (1, 1)]


def test_fit_voter_takes_config_second():
    # _count_fit reads the FitConfig from args[1].
    parameters = list(inspect.signature(learning.fit_voter).parameters)
    assert parameters[1] == "config"


def test_fit_counter_reads_what_fit_voter_returns():
    # _count_fit adds up one voter's iterations, budget hit and
    # convergence; a row of arrays in their place would fail here.
    data = np.array([[1.0, 0.0], [0.5, 1.0], [-1.0, 2.0]])
    config = learning.FitConfig()
    result = learning.fit_voter(data, config)
    counts = collections.defaultdict(int)
    _load_tracing()._count_fit(counts, (data, config), {}, result)
    assert dict(counts) == {
        "learning.iterations": result.iterations,
        "learning.max_iteration_hits": 0,
        "learning.nonconverged": int(not result.converged),
    }
    assert all(type(value) is int for value in counts.values())


def test_span_namers_and_sample_counter_read_these_positions():
    # _apply_name reads args[0], _stability_name args[4],
    # _count_estimate args[2], and _gt_name and _count_gt args[0] and
    # args[2] when the call passes them positionally.
    assert list(inspect.signature(scc.apply_scc).parameters)[0] == "kind"
    assert list(inspect.signature(scc.check_stability).parameters)[4] == "mode"
    parameters = list(inspect.signature(processes.estimate_profile).parameters)
    assert parameters[2] == "n_samples"
    parameters = list(inspect.signature(experiments.ground_truth_winner).parameters)
    assert parameters[:3] == ["betas", "alternatives", "n_samples"]
