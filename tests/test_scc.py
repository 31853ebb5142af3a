import itertools
import math

import numpy as np
import pytest

from prefvote.processes import ProcessSpec, estimate_profile, exact_profile
from prefvote.profiles import Alternative, AnonymousProfile, Ranking
from prefvote.scc import (
    SCC_KINDS,
    SCORE_TIE_TOL,
    _top_k_masses,
    _winner_margin,
    apply_scc,
    check_profile_stability,
    check_stability,
    check_strong_swd_efficiency,
    check_swd_efficiency,
    copeland_scores,
    pairwise_support,
    positional_scores,
)


def test_positional_scores_bloc(bloc_profile):
    borda = positional_scores(bloc_profile, [4, 3, 2, 1, 0])
    assert borda == pytest.approx(
        {"x": 3.0, "y": 2.5, "u": 2.0, "w": 1.5, "v": 1.0}
    )
    plurality = positional_scores(bloc_profile, [1, 0, 0, 0, 0])
    assert plurality == pytest.approx(
        {"x": 0.5, "y": 0.5, "u": 0.0, "v": 0.0, "w": 0.0}
    )


def test_positional_scores_validation(bloc_profile):
    with pytest.raises(ValueError, match="length"):
        positional_scores(bloc_profile, [1, 0])
    with pytest.raises(ValueError, match="non-increasing"):
        positional_scores(bloc_profile, [0, 1, 2, 3, 4])


def test_pairwise_support(split_majority_profile):
    p = split_majority_profile
    assert pairwise_support(p, "a", "b") == pytest.approx(0.55, abs=1e-12)
    assert pairwise_support(p, "b", "a") == pytest.approx(0.45, abs=1e-12)
    assert pairwise_support(p, "c", "a") == pytest.approx(0.20, abs=1e-12)
    with pytest.raises(ValueError):
        pairwise_support(p, "a", "a")


def _array_oracle_profiles(bloc_profile, split_majority_profile):
    rng = np.random.default_rng(12)
    alts = [Alternative("abcdef"[k], tuple(rng.standard_normal(2))) for k in range(6)]
    beta = tuple(rng.standard_normal(2))
    return [
        bloc_profile,
        split_majority_profile,
        exact_profile(ProcessSpec("pl", beta), alts),
        estimate_profile(ProcessSpec("tm", beta), alts, 500, rng),
    ]


def test_pairwise_matrix_equals_fsum_scan(bloc_profile, split_majority_profile):
    for profile in _array_oracle_profiles(bloc_profile, split_majority_profile):
        matrix = profile.pairwise_matrix()
        for i, j in itertools.permutations(range(len(profile.ids)), 2):
            a, b = profile.ids[i], profile.ids[j]
            scan = math.fsum(
                w for r, w in profile.support.items() if r.prefers(a, b)
            )
            assert matrix[i, j] == scan
            assert pairwise_support(profile, a, b) == scan


def test_positional_and_bucklin_equal_fsum_scans(
    bloc_profile, split_majority_profile
):
    for profile in _array_oracle_profiles(bloc_profile, split_majority_profile):
        m = len(profile.ids)
        vector = [float(m - 1 - k) ** 1.5 for k in range(m)]
        scores = positional_scores(profile, vector)
        masses = [_top_k_masses(profile, top + 1) for top in range(m)]
        for alt in profile.ids:
            ranks = [
                (r.position(alt) - 1, w) for r, w in profile.support.items()
            ]
            assert scores[alt] == math.fsum(w * vector[k] for k, w in ranks)
            assert [table[alt] for table in masses] == [
                math.fsum(w for k, w in ranks if k <= top) for top in range(m)
            ]


def bucklin_oracle(profile):
    """Bucklin winners and margin from a scan of ``profile.support``.

    Each alternative's pivotal rank is the first k whose top-k weight
    clears one half by more than the tie tolerance (m if none does); the
    winners have the smallest pivotal rank and, among those, a top-k
    weight within the tolerance of the largest.  The margin is twice the
    smallest distance of a top-k weight from one half, over k < m.
    """
    ids = sorted(profile.alternatives)
    m = len(ids)
    mass = {
        (alt, k): math.fsum(
            w for r, w in profile.support.items() if r.position(alt) <= k
        )
        for alt in ids
        for k in range(1, m + 1)
    }
    pivotal = {}
    for alt in ids:
        k = next(
            (k for k in range(1, m + 1) if mass[alt, k] > 0.5 + SCORE_TIE_TOL), m
        )
        pivotal[alt] = (k, mass[alt, k])
    best_rank = min(k for k, _ in pivotal.values())
    at_best = {alt: s for alt, (k, s) in pivotal.items() if k == best_rank}
    best = max(at_best.values())
    winners = frozenset(a for a, s in at_best.items() if s >= best - SCORE_TIE_TOL)
    margin = 2.0 * min(
        abs(mass[alt, k] - 0.5) for alt in ids for k in range(1, m)
    )
    return winners, margin


def test_bucklin_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    exact_halves = 0
    for case in range(330):
        m = int(rng.integers(2, 6))
        perms = list(itertools.permutations("abcde"[:m]))
        if case % 3 == 0:
            # Equal weights on an even number of rankings: top-k weights
            # land exactly on one half.
            count = min(len(perms), int(rng.choice([2, 4, 6])))
            weights = np.full(count, 1.0 / count)
        else:
            count = int(rng.integers(1, min(len(perms), 8) + 1))
            weights = rng.dirichlet(np.ones(count))
        chosen = rng.choice(len(perms), size=count, replace=False)
        profile = AnonymousProfile(
            {Ranking(perms[j]): w for j, w in zip(chosen, weights)}
        )
        winners, margin = bucklin_oracle(profile)
        exact_halves += margin == 0.0
        assert apply_scc("bucklin", profile) == winners
        assert _winner_margin("bucklin", profile) == margin
    assert exact_halves >= 50


def test_copeland_scores_golden(bloc_profile):
    assert copeland_scores(bloc_profile) == {"x": 2, "y": 1, "u": 1, "v": 0, "w": 0}
    restricted = {"w", "x", "y"}
    from prefvote.profiles import marginalize_profile

    assert copeland_scores(marginalize_profile(bloc_profile, restricted)) == {
        "y": 1,
        "x": 0,
        "w": 0,
    }


def test_borda_winners_change_under_restriction(bloc_profile):
    from prefvote.profiles import marginalize_profile

    assert apply_scc("borda", bloc_profile) == frozenset({"x"})
    marg = marginalize_profile(bloc_profile, {"w", "x", "y"})
    assert apply_scc("borda", marg) == frozenset({"y"})
    assert apply_scc("copeland", bloc_profile) == frozenset({"x"})
    assert apply_scc("copeland", marg) == frozenset({"y"})


def test_plurality_winners(split_majority_profile):
    from prefvote.profiles import marginalize_profile

    assert apply_scc("plurality", split_majority_profile) == frozenset({"a", "b"})
    marg = marginalize_profile(split_majority_profile, {"a", "b"})
    assert apply_scc("plurality", marg) == frozenset({"a"})


def test_maximin_and_bucklin_golden(split_majority_profile):
    # maximin: a -> 0.55, b -> 0.45, c -> 0.20
    assert apply_scc("maximin", split_majority_profile) == frozenset({"a"})
    # bucklin: nobody clears 1/2 in the first rank; at rank two the
    # cumulative masses are a: 0.9, b: 0.8, c: 0.3 and a takes it
    assert apply_scc("bucklin", split_majority_profile) == frozenset({"a"})


def test_apply_scc_unknown_kind_and_singleton():
    single = AnonymousProfile({Ranking(("a",)): 1.0})
    for kind in SCC_KINDS:
        assert apply_scc(kind, single) == frozenset({"a"})
    with pytest.raises(ValueError, match="unknown rule"):
        apply_scc("veto", single)


def test_winner_sets_never_empty_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        ids = list("abcd"[:m])
        perms = list(itertools.permutations(ids))
        weights = rng.dirichlet(np.ones(len(perms)))
        profile = AnonymousProfile(
            {Ranking(p): w for p, w in zip(perms, weights)}
        )
        for kind in SCC_KINDS:
            winners = apply_scc(kind, profile)
            assert winners and winners <= profile.alternatives


def test_neutrality_under_relabeling():
    rng = np.random.default_rng(8)
    ids = ["a", "b", "c", "d"]
    relabel = {"a": "d", "b": "c", "c": "a", "d": "b"}
    perms = list(itertools.permutations(ids))
    weights = rng.dirichlet(np.ones(len(perms)) * 0.5)
    profile = AnonymousProfile({Ranking(p): w for p, w in zip(perms, weights)})
    renamed = AnonymousProfile(
        {
            Ranking(tuple(relabel[x] for x in r.order)): w
            for r, w in profile.support.items()
        }
    )
    for kind in SCC_KINDS:
        winners = apply_scc(kind, profile)
        assert apply_scc(kind, renamed) == frozenset(relabel[w] for w in winners)


def test_tied_scores_within_tolerance():
    r1 = Ranking.from_string("a>b")
    r2 = Ranking.from_string("b>a")
    profile = AnonymousProfile({r1: 0.5 + 4e-10, r2: 0.5 - 4e-10})
    # the 8e-10 plurality gap sits inside the tie tolerance
    assert apply_scc("plurality", profile) == frozenset({"a", "b"})
    assert apply_scc("copeland", profile) == frozenset({"a", "b"})


def test_swd_efficiency_reports(split_majority_profile):
    report = check_swd_efficiency("plurality", split_majority_profile)
    # winners {a, b} include b, and a dominates b, but a also wins: holds
    assert report.holds
    strong = check_strong_swd_efficiency("plurality", split_majority_profile)
    assert not strong.holds
    assert ("a", "b") in strong.violations
    for kind in ("borda", "copeland", "maximin", "bucklin"):
        assert check_strong_swd_efficiency(kind, split_majority_profile).holds


def test_bucklin_reports_carry_note(split_majority_profile):
    report = check_swd_efficiency("bucklin", split_majority_profile)
    assert report.notes and "pivotal" in report.notes[0]
    assert check_swd_efficiency("borda", split_majority_profile).notes == ()


def test_borda_copeland_strong_efficiency_random():
    rng = np.random.default_rng(77)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        ids = list("abcd"[:m])
        perms = list(itertools.permutations(ids))
        k = int(rng.integers(1, min(len(perms), 5) + 1))
        chosen = rng.choice(len(perms), size=k, replace=False)
        raw = rng.uniform(0.1, 1.0, k)
        raw /= raw.sum()
        profile = AnonymousProfile(
            {Ranking(perms[j]): w for j, w in zip(chosen, raw)}
        )
        for kind in ("borda", "copeland"):
            assert check_strong_swd_efficiency(kind, profile).holds


def test_profile_stability_golden(bloc_profile):
    report = check_profile_stability("borda", bloc_profile, {"w", "x", "y"})
    assert report.winners_full == frozenset({"x"})
    assert report.winners_subset == frozenset({"y"})
    assert report.intersection == frozenset({"x"})
    assert report.applicable
    assert not report.stable
    # restricting to a set that drops every winner is vacuous
    vacuous = check_profile_stability("borda", bloc_profile, {"u", "v"})
    assert not vacuous.applicable
    assert vacuous.stable


def test_check_stability_exact_pl():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = [
        Alternative("a", (1.0,)),
        Alternative("b", (0.4,)),
        Alternative("c", (-0.3,)),
        Alternative("d", (-1.0,)),
    ]
    report = check_stability(spec, "borda", alts, ["a", "c", "d"], mode="exact")
    assert report.winners_full == frozenset({"a"})
    assert report.winners_subset == frozenset({"a"})
    assert report.applicable and report.stable
    assert not report.low_confidence


def test_check_stability_validation():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = [Alternative("a", (1.0,)), Alternative("b", (0.0,))]
    with pytest.raises(ValueError, match="subset"):
        check_stability(spec, "borda", alts, [])
    with pytest.raises(ValueError, match="subset"):
        check_stability(spec, "borda", alts, ["zz"])
    with pytest.raises(ValueError, match="mode"):
        check_stability(spec, "borda", alts, ["a"], mode="approx")


def test_check_stability_mc_deterministic():
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = [
        Alternative("a", (0.9,)),
        Alternative("b", (0.1,)),
        Alternative("c", (-0.6,)),
    ]
    r1 = check_stability(
        spec, "copeland", alts, ["a", "b"], mode="mc", n_samples=20_000, seed=4
    )
    r2 = check_stability(
        spec, "copeland", alts, ["a", "b"], mode="mc", n_samples=20_000, seed=4
    )
    assert r1 == r2
    assert r1.winners_full == frozenset({"a"})
    assert r1.stable


def test_check_stability_mc_flags_close_calls():
    # two alternatives with identical utilities: every margin sits inside
    # sampling noise, so the checker must not pretend to a verdict
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = [
        Alternative("a", (0.5,)),
        Alternative("b", (0.5,)),
        Alternative("c", (-2.0,)),
    ]
    report = check_stability(
        spec, "borda", alts, ["a", "b"], mode="mc", n_samples=2_000, seed=0
    )
    assert report.low_confidence


def test_stability_subset_equals_full_set():
    spec = ProcessSpec(family="pl", beta=(1.0, -0.5))
    alts = [
        Alternative("a", (0.7, 0.1)),
        Alternative("b", (0.2, -0.4)),
        Alternative("c", (-0.1, 0.9)),
    ]
    report = check_stability(spec, "maximin", alts, ["a", "b", "c"], mode="exact")
    assert report.winners_full == report.winners_subset
    assert report.stable
