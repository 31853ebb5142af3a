"""Synthetic end-to-end evaluation of the learn/summarize/decide pipeline.

The protocol: draw a voter population with normally distributed weight
vectors around a shared center, generate noisy pairwise choices per
voter, fit each voter, and measure how often downstream decisions match
the ground truth chosen by the true population.  Ground truth is the
Borda winner of the population's ranking profile, estimated by sampling
rankings from uniformly chosen voters.

Two curves are produced: accuracy vs comparisons per voter (fit each
voter, decide from a ranking profile of the fitted population) and
accuracy vs number of voters (decide from the mean of the true weight
vectors).  Every run derives its generator from (master seed, stream,
run index) alone, so results are reproducible bit for bit regardless of
parallelism.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import processes
from .learning import fit_voter, fit_voters  # noqa: F401 (see cli)
from .pipeline import as_population, decide, summarize
from .profiles import Alternative, _as_count, _as_int, _finite_array

# Stream codes keep the per-run generators of different experiment kinds
# disjoint under one master seed.
_STEP2_STREAM = 2
_STEP3_STREAM = 3


@dataclass(frozen=True)
class SyntheticConfig:
    """Protocol sizes and seeds for the synthetic evaluation."""

    d: int = 10
    n_voters: int = 20
    alts_per_instance: int = 5
    n_test_instances: int = 100
    n_runs: int = 50
    comparisons_grid: tuple[int, ...] = (10, 30, 60, 100)
    voters_grid: tuple[int, ...] = (1, 2, 5, 10, 20, 50)
    profile_sample_count: int = 10_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "d",
            "n_voters",
            "alts_per_instance",
            "n_test_instances",
            "n_runs",
            "profile_sample_count",
        ):
            object.__setattr__(self, name, _as_count(getattr(self, name), name))
        for name in ("comparisons_grid", "voters_grid"):
            values = getattr(self, name)
            if not isinstance(values, Iterable):
                raise ValueError(f"{name} must be a sequence, got {values!r}")
            grid = tuple(_as_int(v, f"{name} entry") for v in values)
            if not grid or any(v < 1 for v in grid):
                raise ValueError(f"{name} must be a nonempty tuple of positive ints")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} entries must be distinct, got {grid}")
            object.__setattr__(self, name, grid)
        seed = _as_int(self.master_seed, "master_seed")
        if seed < 0:
            raise ValueError("master_seed must be nonnegative")
        object.__setattr__(self, "master_seed", seed)


@dataclass(frozen=True)
class AccuracyCurve:
    """Accuracy at each grid point, with per-run detail."""

    x_values: tuple[int, ...]
    mean_accuracy: tuple[float, ...]
    per_run: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.x_values) != len(self.mean_accuracy):
            raise ValueError("x_values and mean_accuracy disagree on length")
        for row in self.per_run:
            if len(row) != len(self.x_values):
                raise ValueError("per-run row length does not match the grid")
        flat = list(self.mean_accuracy) + [v for row in self.per_run for v in row]
        if any(not 0.0 <= v <= 1.0 for v in flat):
            raise ValueError("accuracies must lie in [0, 1]")

    @classmethod
    def from_runs(
        cls, x_values: Sequence[int], per_run: Sequence[Sequence[float]]
    ) -> "AccuracyCurve":
        rows = tuple(tuple(row) for row in per_run)
        if not rows:
            raise ValueError("need at least one run")
        if any(len(row) != len(x_values) for row in rows):
            raise ValueError("per-run row length does not match the grid")
        means = tuple(
            float(np.mean([row[k] for row in rows])) for k in range(len(x_values))
        )
        return cls(
            x_values=tuple(int(x) for x in x_values),
            mean_accuracy=means,
            per_run=rows,
        )

    def stderr(self) -> tuple[float, ...]:
        """Standard error of the mean across runs (0 for a single run)."""
        n = len(self.per_run)
        if n < 2:
            return tuple(0.0 for _ in self.x_values)
        out = []
        for k in range(len(self.x_values)):
            column = [row[k] for row in self.per_run]
            out.append(float(np.std(column, ddof=1) / math.sqrt(n)))
        return tuple(out)


def run_rng(master_seed: int, stream: int, run_index: int) -> np.random.Generator:
    """Generator derived only from (master seed, stream, run index)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(stream, run_index))
    return np.random.default_rng(seq)


def gen_population(config: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw voter weight vectors: a shared uniform center plus unit noise.

    Returns one ``(n_voters, d)`` array, a row per voter.
    """
    center = rng.uniform(-1.0, 1.0, size=config.d)
    offsets = rng.standard_normal((config.n_voters, config.d))
    return center + offsets


def gen_voter_comparisons(
    beta: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Simulate ``n`` noisy pairwise choices for one voter.

    Each comparison draws two standard-normal feature vectors, gives each
    a Normal(beta . x, 1/2) utility, and records which one won.  Returns
    the ``(n, d)`` chosen-minus-rejected rows that ``fit_voter`` takes.
    """
    n = _as_count(n, "n")
    beta = _finite_array(beta, "beta")
    pairs = rng.standard_normal((n, 2, beta.shape[0]))
    utilities = processes._draw_utilities(processes.TM, pairs @ beta, n, rng)
    # A utility tie goes to the first vector, as in a stable sort.
    first = (utilities[:, 0] >= utilities[:, 1])[:, None]
    return np.where(first, pairs[:, 0] - pairs[:, 1], pairs[:, 1] - pairs[:, 0])


def ground_truth_winner(
    betas: np.ndarray | Sequence[np.ndarray],
    alternatives: Sequence[Alternative],
    n_samples: int,
    rng: np.random.Generator,
) -> Alternative:
    """Borda winner of the population's sampled ranking profile.

    ``betas`` is the ``(N, d)`` population (a list of vectors also works).
    Each sample picks a voter uniformly and draws one noisy ranking from
    that voter's ``"tm"`` process.  Borda scores are integer position
    counts, so the only tolerance in play is the sampling itself; score
    ties break to the smallest id.  Every voter's utility for every
    alternative must be finite.
    """
    n_samples = _as_count(n_samples, "n_samples")
    population = as_population(betas)
    alts, mode = processes._scored_alternatives(alternatives, population)
    if len(alts) == 1:
        return alts[0]
    voter_idx = rng.integers(0, population.shape[0], size=n_samples)
    utilities = processes._draw_utilities(
        processes.TM, np.take(mode, voter_idx, axis=0), n_samples, rng
    )
    return alts[int(np.argmax(processes._borda_scores(utilities)))]


def _instance_alternatives(
    config: SyntheticConfig, rng: np.random.Generator
) -> list[Alternative]:
    features = rng.standard_normal((config.alts_per_instance, config.d))
    return [
        Alternative(id=f"a{k:02d}", features=tuple(row))
        for k, row in enumerate(features)
    ]


def _step2_run(config: SyntheticConfig, run_index: int) -> tuple[float, ...]:
    """One run of the accuracy-vs-comparisons experiment."""
    rng = run_rng(config.master_seed, _STEP2_STREAM, run_index)
    true_betas = gen_population(config, rng)
    pool_size = max(config.comparisons_grid)
    pools = [gen_voter_comparisons(b, pool_size, rng) for b in true_betas]
    fitted = {
        count: np.array(
            [fit.beta for fit in fit_voters([pool[:count] for pool in pools])]
        )
        for count in config.comparisons_grid
    }
    matches = {count: 0 for count in config.comparisons_grid}
    for _ in range(config.n_test_instances):
        alts = _instance_alternatives(config, rng)
        truth = ground_truth_winner(
            true_betas, alts, config.profile_sample_count, rng
        ).id
        for count in config.comparisons_grid:
            guess = ground_truth_winner(
                fitted[count], alts, config.profile_sample_count, rng
            ).id
            matches[count] += guess == truth
    return tuple(
        matches[count] / config.n_test_instances
        for count in config.comparisons_grid
    )


def _step3_run(config: SyntheticConfig, run_index: int) -> tuple[float, ...]:
    """One run of the accuracy-vs-voters experiment.

    Voter subsets are nested prefixes of one population and all grid
    points share the same test instances, so curve points differ only in
    how many voters they see.
    """
    rng = run_rng(config.master_seed, _STEP3_STREAM, run_index)
    n_max = max(config.voters_grid)
    population = gen_population(replace(config, n_voters=n_max), rng)
    instances = [
        _instance_alternatives(config, rng)
        for _ in range(config.n_test_instances)
    ]
    accuracies = []
    for n in config.voters_grid:
        subset = population[:n]
        model = summarize(subset)
        matched = 0
        for alts in instances:
            truth = ground_truth_winner(
                subset, alts, config.profile_sample_count, rng
            ).id
            matched += decide(model, alts).id == truth
        accuracies.append(matched / config.n_test_instances)
    return tuple(accuracies)


def _collect_runs(
    worker: Callable[[SyntheticConfig, int], tuple[float, ...]],
    config: SyntheticConfig,
    n_jobs: int,
) -> list[tuple[float, ...]]:
    n_jobs = _as_count(n_jobs, "n_jobs")
    indices = range(config.n_runs)
    # More workers than usable CPUs or runs only adds start-up cost.
    if hasattr(os, "sched_getaffinity"):
        n_cpus = len(os.sched_getaffinity(0))
    else:
        n_cpus = os.cpu_count() or 1
    n_workers = min(n_jobs, n_cpus, config.n_runs)
    if n_workers <= 1:
        return [worker(config, k) for k in indices]
    # Imported here: it loads multiprocessing, which only pools need.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(partial(worker, config), indices))


def eval_step2(config: SyntheticConfig, n_jobs: int = 1) -> AccuracyCurve:
    """Accuracy of decisions from fitted voters vs comparisons per voter."""
    runs = _collect_runs(_step2_run, config, n_jobs)
    return AccuracyCurve.from_runs(config.comparisons_grid, runs)


def eval_step3(config: SyntheticConfig, n_jobs: int = 1) -> AccuracyCurve:
    """Accuracy of mean-model decisions vs number of voters summarized."""
    runs = _collect_runs(_step3_run, config, n_jobs)
    return AccuracyCurve.from_runs(config.voters_grid, runs)
