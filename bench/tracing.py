"""In-memory span recorder wrapped around prefvote's public functions.

Tracing rebinds module attributes: ``prefvote.learning.fit_voter`` and
every other ``prefvote`` module that imported it by name, such as
``prefvote.cli.fit_voter`` and ``prefvote.experiments.fit_voter``, are
replaced by one wrapper that records (name, layer, start, end, parent).
Nothing in the package itself changes, and leaving the ``installed()``
block restores every original attribute.  Each layer is named after the
``prefvote`` module that implements the wrapped function.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "fileio",
    "learning",
    "pipeline",
    "processes",
    "profiles",
    "scc",
    "experiments",
)

#: Populations above this size count as "large" for ground-truth spans;
#: the synthetic protocol uses at most 50 voters, criterion 10 uses 10k.
SMALL_POPULATION = 50


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _stream_size(args, kwargs) -> int:
    stream = args[0] if args else kwargs.get("stream")
    if isinstance(stream, io.StringIO):
        return len(stream.getvalue())
    return _path_size(getattr(stream, "name", None))


def _count_parse_comparisons(counts, args, kwargs, result):
    counts["fileio.rows"] += len(result)
    counts["fileio.bytes_read"] += _stream_size(args, kwargs)


def _count_stream_bytes(counts, args, kwargs, result):
    counts["fileio.bytes_read"] += _stream_size(args, kwargs)


def _count_path_bytes(counts, args, kwargs, result):
    counts["fileio.bytes_read"] += _path_size(args[0] if args else kwargs.get("path"))


def _count_fit(counts, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    budget = config.max_iterations if config is not None else 500
    counts["learning.iterations"] += result.iterations
    counts["learning.max_iteration_hits"] += result.iterations >= budget
    counts["learning.nonconverged"] += not result.converged


def _count_estimate(counts, args, kwargs, result):
    counts["processes.samples_drawn"] += args[2] if len(args) > 2 else kwargs["n_samples"]


def _count_exact(counts, args, kwargs, result):
    counts["processes.rankings_enumerated"] += len(result.support)


def _gt_name(args, kwargs):
    betas = args[0] if args else kwargs["betas"]
    size = "small_n" if len(betas) <= SMALL_POPULATION else "large_n"
    return f"ground_truth_winner_{size}"


def _count_gt(counts, args, kwargs, result):
    n_samples = args[2] if len(args) > 2 else kwargs["n_samples"]
    counts[f"experiments.{_gt_name(args, kwargs)}_samples"] += n_samples


def _apply_name(args, kwargs):
    return f"apply_scc.{args[0] if args else kwargs['kind']}"


def _stability_name(args, kwargs):
    mode = args[4] if len(args) > 4 else kwargs.get("mode", "exact")
    return f"check_stability_{mode}"


# (module, attribute, counter, namer).  A namer picks the span name from
# the call's arguments; by default the span is named after the attribute.
TARGETS = (
    ("cli", "main", None, None),
    ("fileio", "parse_comparisons", _count_parse_comparisons, None),
    ("fileio", "group_comparisons", None, None),
    ("fileio", "save_voter_models", None, None),
    ("fileio", "load_voter_models", _count_path_bytes, None),
    ("fileio", "save_summary_model", None, None),
    ("fileio", "load_summary_model", _count_path_bytes, None),
    ("fileio", "parse_alternatives", _count_stream_bytes, None),
    ("fileio", "parse_profile", _count_stream_bytes, None),
    ("fileio", "format_curve", None, None),
    ("learning", "fit_voter", _count_fit, None),
    ("experiments", "eval_step2", None, None),
    ("experiments", "eval_step3", None, None),
    ("experiments", "gen_population", None, None),
    ("experiments", "gen_voter_comparisons", None, None),
    ("experiments", "ground_truth_winner", _count_gt, _gt_name),
    ("pipeline", "summarize", None, None),
    ("pipeline", "decide", None, None),
    ("processes", "exact_profile", _count_exact, None),
    ("processes", "estimate_profile", _count_estimate, None),
    ("profiles", "swap_dominates", None, None),
    ("profiles", "marginalize_profile", None, None),
    ("scc", "apply_scc", None, _apply_name),
    ("scc", "check_swd_efficiency", None, None),
    ("scc", "check_strong_swd_efficiency", None, None),
    ("scc", "check_stability", None, _stability_name),
    ("scc", "check_profile_stability", None, None),
)


class Tracer:
    """Spans and counters recorded while ``installed()`` is active.

    A span is ``(name, layer, start, end, parent)`` with ``parent`` the
    index of the enclosing span, or -1 for a root.  Spans stay in memory
    until the run ends.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, fn, name, layer, counter, namer):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = namer(args, kwargs) if namer else name
                spans[index] = (label, layer, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded prefvote module."""
        import prefvote.profiles

        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "prefvote" or key.startswith("prefvote.")
        ]
        saved = []
        for layer, attr, counter, namer in TARGETS:
            original = getattr(sys.modules[f"prefvote.{layer}"], attr)
            wrapper = self._wrap(original, attr, layer, counter, namer)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        profile_cls = prefvote.profiles.AnonymousProfile
        init = profile_cls.__init__
        saved.append((profile_cls, "__init__", init))
        profile_cls.__init__ = self._wrap(
            init, "AnonymousProfile", "profiles", None, None
        )
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self) -> dict[str, list[float]]:
        """Span durations grouped by ``layer.name``."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, layer, start, end, _ in self.spans:
            out[f"{layer}.{name}"].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by that span's children."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for index, (_, layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - covered[index]
        return out

    def root_time(self) -> float:
        """Total duration of the spans that have no traced parent."""
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)


def layer_metrics(tracer: Tracer, n_ops: int, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics per traced operation, keyed as in BENCHMARK.json."""
    per_op = 1.0 / max(n_ops, 1)
    spans = tracer.durations()
    counts = tracer.counts

    def total(key):
        return sum(spans.get(key, ())) * per_op

    def calls(key):
        return len(spans.get(key, ())) * per_op

    out = {f"{layer}.self_s": t * per_op for layer, t in tracer.self_times().items()}
    out["trace.uncovered_s"] = (traced_wall - tracer.root_time()) * per_op

    parse_s = sum(spans.get("fileio.parse_comparisons", ()))
    out["fileio.rows_per_s"] = counts["fileio.rows"] / parse_s if parse_s else 0.0
    out["fileio.bytes_read"] = counts["fileio.bytes_read"] * per_op
    for name in (
        "parse_comparisons",
        "group_comparisons",
        "save_voter_models",
        "load_voter_models",
        "parse_alternatives",
        "parse_profile",
    ):
        out[f"fileio.{name}_s"] = total(f"fileio.{name}")

    fits = spans.get("learning.fit_voter", [])
    out["learning.fit_voter_s"] = total("learning.fit_voter")
    out["learning.fit_voter_calls"] = calls("learning.fit_voter")
    out["learning.fit_voter_p50_ms"] = float(np.percentile(fits, 50)) * 1e3 if fits else 0.0
    out["learning.fit_voter_p99_ms"] = float(np.percentile(fits, 99)) * 1e3 if fits else 0.0
    for key in ("iterations", "max_iteration_hits", "nonconverged"):
        out[f"learning.{key}"] = counts[f"learning.{key}"] * per_op
    out["learning.nonconverged_frac"] = (
        counts["learning.nonconverged"] / len(fits) if fits else 0.0
    )

    for size in ("small_n", "large_n"):
        key = f"experiments.ground_truth_winner_{size}"
        n = len(spans.get(key, ()))
        out[f"{key}_s"] = total(key)
        out[f"{key}_calls"] = n * per_op
        out[f"{key}_samples"] = counts[f"{key}_samples"] * per_op
        out[f"{key}_ms_per_call"] = sum(spans.get(key, ())) / n * 1e3 if n else 0.0
    for name in ("gen_voter_comparisons", "gen_population"):
        out[f"experiments.{name}_s"] = total(f"experiments.{name}")

    decides = spans.get("pipeline.decide", [])
    out["pipeline.summarize_s"] = total("pipeline.summarize")
    out["pipeline.decide_s"] = total("pipeline.decide")
    out["pipeline.decide_calls"] = calls("pipeline.decide")
    out["pipeline.decide_us_per_call"] = (
        sum(decides) / len(decides) * 1e6 if decides else 0.0
    )

    out["processes.exact_profile_s"] = total("processes.exact_profile")
    out["processes.estimate_profile_s"] = total("processes.estimate_profile")
    out["processes.rankings_enumerated"] = counts["processes.rankings_enumerated"] * per_op
    out["processes.samples_drawn"] = counts["processes.samples_drawn"] * per_op

    out["profiles.swap_dominates_s"] = total("profiles.swap_dominates")
    out["profiles.swap_dominates_calls"] = calls("profiles.swap_dominates")
    out["profiles.marginalize_profile_s"] = total("profiles.marginalize_profile")
    out["profiles.anonymous_profile_init_s"] = total("profiles.AnonymousProfile")

    for rule in ("plurality", "borda", "copeland", "maximin", "bucklin"):
        out[f"scc.apply_scc.{rule}_s"] = total(f"scc.apply_scc.{rule}")
    for name in (
        "check_swd_efficiency",
        "check_strong_swd_efficiency",
        "check_stability_exact",
        "check_stability_mc",
        "check_profile_stability",
    ):
        out[f"scc.{name}_s"] = total(f"scc.{name}")
    return out
