"""Acceptance suite: one test per shipped claim, with pinned tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line so a log scrape
shows the full scorecard.  The reproduction tests (7 through 10) rerun
the synthetic protocols end to end and take a few minutes combined;
criteria 7, 8 and all three population variants of criterion 9 spread
their runs over two worker processes.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from childenv import child_env
from oracles import gaussian_kl
from scipy import stats

from prefvote.experiments import (
    SyntheticConfig,
    eval_step2,
    eval_step3,
    gen_population,
    ground_truth_winner,
    run_rng,
)
from prefvote.learning import (
    FitConfig,
    fit_voter,
    objective_and_gradient,
)
from prefvote.pipeline import decide, summarize
from prefvote.processes import (
    EXACT_PROFILE_MAX_SIZE,
    ProcessSpec,
    estimate_profile,
    exact_profile,
)
from prefvote.profiles import (
    Alternative,
    AnonymousProfile,
    Ranking,
    marginalize_profile,
    swap_dominates,
)
from prefvote.scc import (
    SCC_KINDS,
    apply_scc,
    check_stability,
    check_strong_swd_efficiency,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _scalar_alts(mus) -> list[Alternative]:
    names = "abcdefghij"
    return [
        Alternative(id=names[k], features=(float(mu),)) for k, mu in enumerate(mus)
    ]


def _best_id(mus) -> str:
    # highest mode utility, smallest id among exact ties
    alts = _scalar_alts(mus)
    top = max(a.features[0] for a in alts)
    return min(a.id for a in alts if a.features[0] == top)


def test_criterion_01_golden_examples(bloc_profile, split_majority_profile):
    start = time.perf_counter()
    checks = []

    checks.append(apply_scc("borda", bloc_profile) == frozenset({"x"}))
    bloc_sub = marginalize_profile(bloc_profile, {"w", "x", "y"})
    checks.append(apply_scc("borda", bloc_sub) == frozenset({"y"}))

    checks.append(apply_scc("copeland", bloc_profile) == frozenset({"x"}))
    checks.append(apply_scc("copeland", bloc_sub) == frozenset({"y"}))

    checks.append(apply_scc("plurality", split_majority_profile) == frozenset({"a", "b"}))
    split_sub = marginalize_profile(split_majority_profile, {"a", "b"})
    checks.append(apply_scc("plurality", split_sub) == frozenset({"a"}))

    ids = ("a", "b", "c")
    relation = {
        (x, y)
        for x in ids
        for y in ids
        if x != y and swap_dominates(split_majority_profile, x, y)
    }
    checks.append(relation == {("a", "b"), ("b", "c"), ("a", "c")})

    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(1, ok, f"{sum(checks)}/7 golden checks, {elapsed:.3f} s (budget 1 s)")


def test_criterion_02_max_utility_wins_every_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    spec_beta = (1.0,)

    pl_hits = 0
    pl_trials = 500
    for _ in range(pl_trials):
        m = int(rng.integers(2, 6))
        mus = rng.normal(0.0, 1.0, m)
        profile = exact_profile(
            ProcessSpec(family="pl", beta=spec_beta), _scalar_alts(mus)
        )
        best = _best_id(mus)
        if all(best in apply_scc(kind, profile) for kind in SCC_KINDS):
            pl_hits += 1

    tm_hits = 0
    tm_trials = 100
    for _ in range(tm_trials):
        m = int(rng.integers(2, 6))
        gaps = 0.2 + rng.uniform(0.0, 0.5, m - 1)
        levels = np.concatenate([[0.0], np.cumsum(gaps)])
        rng.shuffle(levels)
        profile = estimate_profile(
            ProcessSpec(family="tm", beta=spec_beta),
            _scalar_alts(levels),
            100_000,
            rng,
        )
        best = _best_id(levels)
        if all(best in apply_scc(kind, profile) for kind in SCC_KINDS):
            tm_hits += 1

    elapsed = time.perf_counter() - start
    ok = pl_hits == pl_trials and tm_hits >= 0.99 * tm_trials and elapsed < 120.0
    _report(
        2,
        ok,
        f"exact PL {pl_hits}/{pl_trials}, sampled TM {tm_hits}/{tm_trials} "
        f"(need >=99%), {elapsed:.1f} s (budget 120 s)",
    )


def _random_sparse_profile(rng) -> AnonymousProfile:
    m = int(rng.integers(2, 5))
    ids = list("abcd"[:m])
    support = {}
    n_rankings = int(rng.integers(1, 7))
    for _ in range(n_rankings):
        order = list(ids)
        rng.shuffle(order)
        support[Ranking(order=tuple(order))] = float(rng.uniform(0.05, 1.0))
    total = sum(support.values())
    return AnonymousProfile({r: w / total for r, w in support.items()})


def test_criterion_03_strong_swap_dominance(split_majority_profile):
    rng = np.random.default_rng(303)
    violations = 0
    trials = 500
    for _ in range(trials):
        profile = _random_sparse_profile(rng)
        for kind in ("borda", "copeland"):
            report = check_strong_swd_efficiency(kind, profile)
            violations += len(report.violations)

    plurality = check_strong_swd_efficiency("plurality", split_majority_profile)
    ok = violations == 0 and len(plurality.violations) >= 1
    _report(
        3,
        ok,
        f"borda/copeland violations {violations}/0 over {trials} profiles, "
        f"plurality shows {len(plurality.violations)} on the split profile",
    )


def test_criterion_04_stability_of_borda_and_copeland():
    rng = np.random.default_rng(404)
    trials = 200
    unstable = 0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        mus = rng.normal(0.0, 1.0, m)
        alts = _scalar_alts(mus)
        spec = ProcessSpec(family="pl", beta=(1.0,))
        size = int(rng.integers(1, m + 1))
        subset = [a.id for a in rng.choice(alts, size=size, replace=False)]
        for kind in ("borda", "copeland"):
            report = check_stability(spec, kind, alts, subset, mode="exact")
            if not report.stable:
                unstable += 1
    ok = unstable == 0
    _report(4, ok, f"{unstable} unstable cases over {trials} random subsets")


def test_criterion_05_mean_minimizes_kl():
    rng = np.random.default_rng(505)
    wins = 0
    trials = 100
    for _ in range(trials):
        n, d = int(rng.integers(2, 7)), 4
        betas = rng.normal(0.0, 1.0, (n, d))
        x = rng.normal(0.0, 1.0, d)
        mean_beta = betas.mean(axis=0)

        def objective(candidate):
            return sum(
                gaussian_kl(float(b @ x), 0.5, float(candidate @ x), 0.5)
                for b in betas
            )

        base = objective(mean_beta)
        beaten = False
        for _ in range(100):
            direction = rng.normal(0.0, 1.0, d)
            direction /= np.linalg.norm(direction)
            candidate = mean_beta + rng.uniform(0.0, 1.0) * direction
            if objective(candidate) < base - 1e-12:
                beaten = True
                break
        wins += int(not beaten)
    ok = wins == trials
    _report(5, ok, f"mean optimal in {wins}/{trials} instances")


def test_criterion_06_learning_numerics():
    rng = np.random.default_rng(606)
    pairs = [
        (rng.normal(0.0, 1.0, 3), rng.normal(0.0, 1.0, 3)) for _ in range(12)
    ]
    comparisons = np.array([chosen - rejected for chosen, rejected in pairs])
    penalty = 1e-4

    max_rel = 0.0
    step = 1e-6
    for _ in range(20):
        beta = rng.normal(0.0, 1.0, 3)
        _, grad = objective_and_gradient(beta, comparisons, penalty)
        for k in range(3):
            bump = np.zeros(3)
            bump[k] = step
            hi, _ = objective_and_gradient(beta + bump, comparisons, penalty)
            lo, _ = objective_and_gradient(beta - bump, comparisons, penalty)
            fd = (hi - lo) / (2 * step)
            rel = abs(fd - grad[k]) / max(1.0, abs(fd))
            max_rel = max(max_rel, rel)
    gradient_ok = max_rel <= 1e-5

    convex_ok = True
    for _ in range(25):
        a = rng.normal(0.0, 1.0, 3)
        b = rng.normal(0.0, 1.0, 3)
        fa, _ = objective_and_gradient(a, comparisons, penalty)
        fb, _ = objective_and_gradient(b, comparisons, penalty)
        fm, _ = objective_and_gradient(0.5 * (a + b), comparisons, penalty)
        if fm > 0.5 * (fa + fb) + 1e-10:
            convex_ok = False

    direction = np.array([1.0, 0.0])
    bases = rng.normal(0.0, 1.0, (10, 2))
    separable = (bases + direction) - bases
    result = fit_voter(separable, FitConfig())
    separable_ok = bool(np.all(np.isfinite(result.beta)))

    ok = gradient_ok and convex_ok and separable_ok
    _report(
        6,
        ok,
        f"max gradient error {max_rel:.2e} (tol 1e-5), convexity "
        f"{'ok' if convex_ok else 'violated'}, separable fit finite "
        f"{separable_ok}",
    )


def test_criterion_07_step2_accuracy_curve():
    start = time.perf_counter()
    curve = eval_step2(SyntheticConfig(), n_jobs=2)
    elapsed = time.perf_counter() - start
    acc = dict(zip(curve.x_values, curve.mean_accuracy))
    err = dict(zip(curve.x_values, curve.stderr()))

    within = abs(acc[30] - 0.843) <= 0.05 and abs(acc[100] - 0.924) <= 0.05
    rho = stats.spearmanr(curve.x_values, curve.mean_accuracy).statistic
    trend_ok = rho > 0.9
    chance = 1.0 / SyntheticConfig().alts_per_instance
    above_chance = all(
        acc[x] >= chance + 3.0 * err[x] for x in curve.x_values
    )
    ok = within and trend_ok and above_chance and elapsed < 1800.0
    _report(
        7,
        ok,
        f"acc(30)={acc[30]:.4f} (target 0.843+-0.05), "
        f"acc(100)={acc[100]:.4f} (target 0.924+-0.05), spearman {rho:.2f}, "
        f"{elapsed:.0f} s (budget 1800 s)",
    )


def test_criterion_08_step3_accuracy_at_max_voters():
    curve = eval_step3(SyntheticConfig(), n_jobs=2)
    final = curve.mean_accuracy[-1]
    ok = abs(final - 0.939) <= 0.05
    _report(
        8,
        ok,
        f"accuracy {final:.4f} at {curve.x_values[-1]} voters "
        f"(target 0.939+-0.05)",
    )


def _variant_detail(tag, pairs) -> str:
    parts = [
        f"{tag} {label}={value:.4f} (target {target}+-0.05)"
        for label, value, target in pairs
    ]
    return ", ".join(parts)


def test_criterion_09_three_alternative_variant():
    step2 = eval_step2(
        SyntheticConfig(alts_per_instance=3, comparisons_grid=(30, 100), n_runs=25),
        n_jobs=2,
    )
    step3 = eval_step3(SyntheticConfig(alts_per_instance=3, n_runs=25), n_jobs=2)
    acc30, acc100 = step2.mean_accuracy
    final = step3.mean_accuracy[-1]
    ok = (
        abs(acc30 - 0.888) <= 0.05
        and abs(acc100 - 0.935) <= 0.05
        and abs(final - 0.962) <= 0.05
    )
    _report(
        9,
        ok,
        _variant_detail(
            "m=3",
            [("acc(30)", acc30, 0.888), ("acc(100)", acc100, 0.935),
             ("step3", final, 0.962)],
        ),
    )


def test_criterion_09_forty_voter_variant():
    step2 = eval_step2(
        SyntheticConfig(n_voters=40, comparisons_grid=(30, 100), n_runs=25),
        n_jobs=2,
    )
    acc30, acc100 = step2.mean_accuracy
    ok = abs(acc30 - 0.893) <= 0.05 and abs(acc100 - 0.949) <= 0.05
    _report(
        9,
        ok,
        _variant_detail("N=40", [("acc(30)", acc30, 0.893),
                                 ("acc(100)", acc100, 0.949)]),
    )


def test_criterion_09_twenty_feature_variant():
    step2 = eval_step2(
        SyntheticConfig(d=20, comparisons_grid=(30, 100), n_runs=25), n_jobs=2
    )
    step3 = eval_step3(SyntheticConfig(d=20, n_runs=25), n_jobs=2)
    acc30, acc100 = step2.mean_accuracy
    final = step3.mean_accuracy[-1]
    ok = (
        abs(acc30 - 0.746) <= 0.05
        and abs(acc100 - 0.882) <= 0.05
        and abs(final - 0.947) <= 0.05
    )
    _report(
        9,
        ok,
        _variant_detail(
            "d=20",
            [("acc(30)", acc30, 0.746), ("acc(100)", acc100, 0.882),
             ("step3", final, 0.947)],
        ),
    )


def test_criterion_10_large_population_decline():
    config = SyntheticConfig(n_voters=10_000, alts_per_instance=10)
    rng = run_rng(config.master_seed, 4, 0)
    betas = gen_population(config, rng)
    summary = summarize(betas)

    instances = 500
    samples = 10_000
    hits = {m: 0 for m in range(2, 11)}
    for _ in range(instances):
        features = rng.standard_normal((10, config.d))
        alts = [
            Alternative(id=f"a{k:02d}", features=tuple(row))
            for k, row in enumerate(features)
        ]
        for m in range(2, 11):
            subset = alts[:m]
            truth = ground_truth_winner(betas, subset, samples, rng)
            if truth.id == decide(summary, subset).id:
                hits[m] += 1

    curve = [(m, hits[m] / instances) for m in range(2, 11)]
    accuracies = [acc for _, acc in curve]
    start_ok = accuracies[0] >= 0.90
    rises = [b - a for a, b in zip(accuracies, accuracies[1:])]
    monotone_ok = max(rises) <= 0.02
    ok = start_ok and monotone_ok
    _report(
        10,
        ok,
        f"acc(2)={accuracies[0]:.3f} (need >=0.90), acc(10)={accuracies[-1]:.3f}, "
        f"max rise {max(rises):+.3f} (allowance +0.02)",
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    config = {
        "d": 5,
        "n_voters": 5,
        "alts_per_instance": 3,
        "n_test_instances": 20,
        "n_runs": 5,
        "comparisons_grid": [10, 30],
        "voters_grid": [1, 2, 5],
        "profile_sample_count": 2000,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs, env = {}, child_env()
    for step in ("step2", "step3"):
        command = [sys.executable, "-m", "prefvote.cli", "simulate", step,
                   "--config", str(config_path), "--seed", "0"]
        first = subprocess.run(command, capture_output=True, check=True, env=env)
        second = subprocess.run(command, capture_output=True, check=True, env=env)
        outputs[step] = first.stdout == second.stdout and first.stdout

    ok = bool(outputs["step2"]) and bool(outputs["step3"])
    _report(
        11,
        ok,
        "step2 and step3 curve tables byte-identical across two executions",
    )


def test_criterion_12_strong_audit_at_exact_profile_limit():
    rng = np.random.default_rng(1212)
    m = EXACT_PROFILE_MAX_SIZE
    mus = rng.normal(0.0, 1.0, m)
    start = time.perf_counter()
    profile = exact_profile(ProcessSpec(family="pl", beta=(1.0,)), _scalar_alts(mus))
    best = _best_id(mus)
    slowest = 0.0
    checks = []
    for kind in SCC_KINDS:
        audit_start = time.perf_counter()
        winners = apply_scc(kind, profile)
        report = check_strong_swd_efficiency(kind, profile)
        slowest = max(slowest, time.perf_counter() - audit_start)
        checks.append(best in winners)
        if kind in ("borda", "copeland"):
            checks.append(report.holds)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 5.0
    _report(
        12,
        ok,
        f"m={m}: {sum(checks)}/{len(checks)} checks, slowest rule+audit "
        f"{slowest:.2f} s, {elapsed:.2f} s in total (budget 5 s)",
    )
