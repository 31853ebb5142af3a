import concurrent.futures
import math

import numpy as np
import pytest
from scipy import special

from prefvote import experiments
from prefvote.experiments import (
    AccuracyCurve,
    SyntheticConfig,
    eval_step2,
    eval_step3,
    gen_population,
    gen_voter_comparisons,
    ground_truth_winner,
    run_rng,
)
from prefvote.pipeline import decide, summarize
from prefvote.profiles import Alternative

SMALL_STEP2 = SyntheticConfig(
    d=2,
    n_voters=2,
    alts_per_instance=2,
    n_test_instances=5,
    n_runs=2,
    comparisons_grid=(3, 6),
    voters_grid=(1, 2),
    profile_sample_count=200,
    master_seed=11,
)
SMALL_STEP3 = SyntheticConfig(
    d=3,
    n_voters=4,
    alts_per_instance=3,
    n_test_instances=8,
    n_runs=2,
    comparisons_grid=(3,),
    voters_grid=(1, 2, 4),
    profile_sample_count=300,
    master_seed=11,
)


def test_run_rng_reproducible_and_stream_separated():
    a = run_rng(7, 2, 0).standard_normal(4)
    b = run_rng(7, 2, 0).standard_normal(4)
    assert np.array_equal(a, b)
    other_stream = run_rng(7, 3, 0).standard_normal(4)
    other_run = run_rng(7, 2, 1).standard_normal(4)
    assert not np.array_equal(a, other_stream)
    assert not np.array_equal(a, other_run)


def test_config_defaults_match_reported_setup():
    config = SyntheticConfig()
    assert config.d == 10
    assert config.n_voters == 20
    assert config.alts_per_instance == 5
    assert config.n_test_instances == 100
    assert config.n_runs == 50
    assert config.comparisons_grid == (10, 30, 60, 100)
    assert config.voters_grid == (1, 2, 5, 10, 20, 50)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(d=0)
    with pytest.raises(ValueError):
        SyntheticConfig(n_runs=0)
    with pytest.raises(ValueError):
        SyntheticConfig(comparisons_grid=())
    with pytest.raises(ValueError):
        SyntheticConfig(voters_grid=(0, 2))
    with pytest.raises(ValueError, match="comparisons_grid entries must be distinct"):
        SyntheticConfig(comparisons_grid=(10, 10, 30))
    with pytest.raises(ValueError, match="voters_grid entries must be distinct"):
        SyntheticConfig(voters_grid=[1, 2, np.int64(1)])
    coerced = SyntheticConfig(comparisons_grid=[np.int64(10), 30])
    assert coerced.comparisons_grid == (10, 30)


@pytest.mark.parametrize(
    "field, value",
    [
        ("comparisons_grid", [10.7]),
        ("comparisons_grid", [10.0, 30.0]),
        ("voters_grid", [True, 2]),
        ("voters_grid", 5),
        ("n_runs", 1.5),
        ("n_runs", True),
        ("d", np.float64(3.0)),
        ("master_seed", 0.0),
        ("master_seed", -1),  # an integer, but a seed is nonnegative
    ],
)
def test_config_rejects_non_integer_values(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticConfig(**{field: value})


def test_config_normalizes_numpy_integers():
    config = SyntheticConfig(n_runs=np.int64(2), master_seed=np.uint8(7))
    assert (config.n_runs, config.master_seed) == (2, 7)
    assert type(config.n_runs) is int and type(config.master_seed) is int


def test_gen_population_shared_center_and_determinism():
    config = SyntheticConfig(d=4, n_voters=6)
    pop = gen_population(config, run_rng(3, 1, 0))
    again = gen_population(config, run_rng(3, 1, 0))
    assert len(pop) == 6
    assert all(b.shape == (4,) for b in pop)
    assert all(np.array_equal(x, y) for x, y in zip(pop, again))
    assert isinstance(pop, np.ndarray) and pop.shape == (6, 4)


def test_gen_population_mean_tracks_center():
    config = SyntheticConfig(d=4, n_voters=10_000)
    center = run_rng(3, 1, 0).uniform(-1.0, 1.0, size=4)
    pop = gen_population(config, run_rng(3, 1, 0))
    gap = np.abs(np.mean(pop, axis=0) - center)
    assert gap.max() < 0.05


def test_comparisons_shapes_and_coin_symmetry_at_zero():
    rng = run_rng(5, 9, 0)
    diffs = gen_voter_comparisons(np.zeros(3), 4000, rng)
    assert diffs.shape == (4000, 3)
    # chosen[0] > rejected[0] exactly when their difference is positive
    frac = np.mean(diffs[:, 0] > 0)
    assert abs(frac - 0.5) < 0.04


def test_comparisons_follow_strong_preferences():
    rng = run_rng(5, 9, 1)
    beta = np.array([20.0, 0.0])
    diffs = gen_voter_comparisons(beta, 500, rng)
    align = np.mean(diffs @ beta > 0)
    assert align >= 0.95


def test_comparisons_validation():
    with pytest.raises(ValueError):
        gen_voter_comparisons(np.zeros(2), 0, run_rng(0, 9, 0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gen_voter_comparisons(np.array([bad, 0.0]), 5, run_rng(0, 9, 0))


def test_ground_truth_trivial_cases():
    rng = run_rng(1, 9, 2)
    only = Alternative(id="z", features=(1.0,))
    assert ground_truth_winner([np.ones(1)], [only], 10, rng) is only
    with pytest.raises(ValueError):
        ground_truth_winner([], [only], 10, rng)
    for n_samples in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_samples"):
            ground_truth_winner([np.ones(1)], [only], n_samples, rng)
    pair = [Alternative(id="a", features=(1.0,)), Alternative(id="a", features=(0.0,))]
    with pytest.raises(ValueError, match="unique"):
        ground_truth_winner([np.ones(1)], pair, 10, rng)


def test_ground_truth_picks_clear_favorite():
    rng = run_rng(1, 9, 3)
    alts = [
        Alternative(id="a", features=(0.0, 0.0)),
        Alternative(id="b", features=(4.0, 0.0)),
        Alternative(id="c", features=(-4.0, 0.0)),
    ]
    betas = [np.array([2.0, 0.1]), np.array([2.2, -0.1])]
    winner = ground_truth_winner(betas, alts, 2000, rng)
    assert winner.id == "b"


def expected_borda_winner(betas, alts):
    """Closed-form winner: the voter mean of sum_b P(a before b).

    P is Phi(u_a - u_b) in the tm process (Azari Soufiani, Parkes & Xia,
    NeurIPS 2012).
    """
    alts = sorted(alts, key=lambda a: a.id)
    utilities = np.asarray(betas) @ np.array([a.features for a in alts]).T
    gaps = utilities[:, :, None] - utilities[:, None, :]
    # the diagonal adds the same 1/2 to every alternative
    scores = special.ndtr(gaps).sum(axis=2).mean(axis=0)
    return alts[int(np.argmax(scores))]


def test_ground_truth_matches_expected_borda_oracle():
    config = SyntheticConfig()
    rng = run_rng(5, 9, 0)
    instances = 200
    agree = 0
    for _ in range(instances):
        betas = gen_population(config, rng)
        alts = [
            Alternative(id=f"a{j:02d}", features=tuple(row))
            for j, row in enumerate(rng.standard_normal((5, config.d)))
        ]
        sampled = ground_truth_winner(betas, alts, 10_000, rng)
        agree += sampled.id == expected_borda_winner(betas, alts).id
    assert agree >= 0.97 * instances


def test_ground_truth_same_for_list_and_array_population():
    config = SyntheticConfig(d=3, n_voters=7)
    betas = gen_population(config, run_rng(6, 9, 0))
    alts = [
        Alternative(id=f"x{k}", features=tuple(row))
        for k, row in enumerate(run_rng(6, 9, 1).standard_normal((4, 3)))
    ]
    for seed in range(20):
        from_array = ground_truth_winner(betas, alts, 50, run_rng(seed, 9, 2))
        from_list = ground_truth_winner(list(betas), alts, 50, run_rng(seed, 9, 2))
        assert from_array is from_list


def test_identical_voters_collapse_to_single_model():
    beta = np.array([0.7, -0.2])
    betas = [beta.copy() for _ in range(5)]
    summary = summarize(betas)
    assert np.array_equal(summary.beta_hat, beta)
    rng = run_rng(4, 9, 0)
    alts = [
        Alternative(id="a", features=(3.0, 0.0)),
        Alternative(id="b", features=(-3.0, 0.0)),
    ]
    assert ground_truth_winner(betas, alts, 2000, rng).id == "a"
    assert decide(summary, alts).id == "a"


def reference_ground_truth_winner(betas, alternatives, n_samples, rng):
    """Copy of the previous ground truth: sort every sample, count positions."""
    population = np.asarray(betas, dtype=float)
    alts = sorted(alternatives, key=lambda a: a.id)
    if len(alts) == 1:
        return alts[0]
    mode = population @ np.array([a.features for a in alts]).T
    voter_idx = rng.integers(0, population.shape[0], size=n_samples)
    noise = rng.normal(0.0, math.sqrt(0.5), size=(n_samples, len(alts)))
    orders = np.argsort(-(mode[voter_idx] + noise), axis=1, kind="stable")
    m = len(alts)
    scores = np.zeros(m, dtype=np.int64)
    for k in range(m):
        scores += np.bincount(orders[:, k], minlength=m) * (m - 1 - k)
    return alts[int(np.argmax(scores))]


def reference_voter_comparisons(beta, n, rng):
    """Copy of the previous comparison generator, as (chosen, rejected) pairs."""
    pairs = rng.standard_normal((n, 2, len(beta)))
    noise = rng.normal(0.0, math.sqrt(0.5), size=(n, 2))
    orders = np.argsort(-(pairs @ beta + noise), axis=1, kind="stable")
    return [(pairs[k, c], pairs[k, r]) for k, (c, r) in enumerate(orders.tolist())]


@pytest.mark.parametrize("n_voters", [1, 20, 2000])
def test_ground_truth_equals_previous_sort_and_count(n_voters):
    config = SyntheticConfig(d=4, n_voters=n_voters)
    for m in range(1, 11):
        rng = run_rng(m, 8, n_voters)
        betas = gen_population(config, rng)
        alts = [
            Alternative(id=f"a{j:02d}", features=tuple(row))
            for j, row in enumerate(rng.standard_normal((m, config.d)))
        ]
        new_rng, old_rng = run_rng(m, 7, 0), run_rng(m, 7, 0)
        winner = ground_truth_winner(betas, alts, 10_000, new_rng)
        expected = reference_ground_truth_winner(betas, alts, 10_000, old_rng)
        assert winner.id == expected.id
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 20, 2000])
def test_voter_comparisons_equal_previous_generator(n):
    # A huge weight overflows most utilities to +-inf: exact ties.
    betas = [run_rng(seed, 8, 1).standard_normal(3) for seed in range(5)]
    for seed, beta in enumerate([*betas, np.array([1e308])]):
        new_rng, old_rng = run_rng(seed, 7, 1), run_rng(seed, 7, 1)
        with np.errstate(over="ignore"):
            diffs = gen_voter_comparisons(beta, n, new_rng)
            expected = reference_voter_comparisons(beta, n, old_rng)
        assert diffs.shape == (len(expected), len(beta))
        for row, (chosen, rejected) in zip(diffs, expected):
            assert row.tobytes() == (chosen - rejected).tobytes()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_ground_truth_rejects_non_finite_population():
    alts = [Alternative(id="a", features=(1.0,)), Alternative(id="b", features=(0.0,))]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ground_truth_winner([[bad], [1.0]], alts, 10, run_rng(0, 9, 0))
    # Finite weights and features whose utility overflows, as ``decide``
    # refuses them.
    huge = [Alternative("a", (1e300, -1e300)), Alternative("c", (-1.0, -1.0))]
    for population, subset in (
        ([[1e300, 1e300]], huge),
        ([[1.0, 1.0], [1e300, 1e300]], huge[:1]),
    ):
        with pytest.raises(ValueError, match="'a' has non-finite utility"):
            ground_truth_winner(population, subset, 10, run_rng(0, 9, 0))


@pytest.mark.parametrize(
    "n_jobs, n_cpus, n_runs, expected",
    [(64, 4, 10, 4), (3, 4, 10, 3), (64, 8, 2, 2), (2, 1, 10, None), (5, 4, 1, None)],
)
def test_collect_runs_caps_workers_at_cpus_and_runs(
    monkeypatch, n_jobs, n_cpus, n_runs, expected
):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(
        experiments.os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False
    )
    config = SyntheticConfig(n_runs=n_runs)
    runs = experiments._collect_runs(lambda c, k: (k,), config, n_jobs)
    assert runs == [(k,) for k in range(n_runs)]
    assert sizes == ([] if expected is None else [expected])


@pytest.mark.parametrize("n_jobs", [0, -3, 1.5, 2.0, True, "2"])
def test_collect_runs_refuses_a_bad_job_count(monkeypatch, n_jobs):
    # 0 and -3 used to run serially; 1.5 reached ProcessPoolExecutor.
    def no_pool(max_workers):
        raise AssertionError("no pool may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="n_jobs must be"):
        experiments._collect_runs(lambda c, k: (k,), SyntheticConfig(n_runs=2), n_jobs)
    with pytest.raises(ValueError, match="n_jobs must be"):
        eval_step3(SMALL_STEP3, n_jobs=n_jobs)


def test_eval_step2_small_golden():
    curve = eval_step2(SMALL_STEP2)
    assert curve.x_values == (3, 6)
    assert curve.mean_accuracy == (0.5, 0.8)
    assert curve.per_run == ((0.8, 1.0), (0.2, 0.6))


def test_eval_step3_small_golden():
    curve = eval_step3(SMALL_STEP3)
    assert curve.x_values == (1, 2, 4)
    assert curve.mean_accuracy == (1.0, 1.0, 0.875)
    assert curve.per_run == ((1.0, 1.0, 0.75), (1.0, 1.0, 1.0))
    assert curve.stderr() == (0.0, 0.0, 0.125)


def test_eval_step2_deterministic_across_calls():
    first = eval_step2(SMALL_STEP2)
    second = eval_step2(SMALL_STEP2)
    assert first.mean_accuracy == second.mean_accuracy
    assert first.per_run == second.per_run


def test_eval_step2_parallel_matches_serial():
    serial = eval_step2(SMALL_STEP2, n_jobs=1)
    parallel = eval_step2(SMALL_STEP2, n_jobs=2)
    assert serial.per_run == parallel.per_run


def test_eval_step3_parallel_matches_serial():
    serial = eval_step3(SMALL_STEP3, n_jobs=1)
    parallel = eval_step3(SMALL_STEP3, n_jobs=2)
    assert serial.per_run == parallel.per_run


def test_accuracy_curve_aggregation():
    curve = AccuracyCurve.from_runs((10, 20), [(0.8, 0.9), (0.9, 1.0)])
    assert curve.mean_accuracy == pytest.approx((0.85, 0.95))
    assert curve.stderr() == pytest.approx((0.05, 0.05))
    single = AccuracyCurve.from_runs((10,), [(0.7,)])
    assert single.stderr() == (0.0,)


def test_accuracy_curve_validation():
    with pytest.raises(ValueError):
        AccuracyCurve.from_runs((10,), [(1.2,)])
    with pytest.raises(ValueError):
        AccuracyCurve.from_runs((10, 20), [(0.5,)])
    with pytest.raises(ValueError):
        AccuracyCurve.from_runs((10,), [])
    with pytest.raises(ValueError, match="disagree on length"):
        AccuracyCurve((1, 2), (0.5,), ())
    with pytest.raises(ValueError, match="row length"):
        AccuracyCurve((1,), (0.5,), ((0.5, 0.5),))
