import collections
import itertools
import math
import re

import numpy as np
import pytest
from oracles import fsum_positional_scores, position, prefers

from prefvote import processes, scc
from prefvote.processes import ProcessSpec, estimate_profile, exact_profile
from prefvote.profiles import (
    _LIMB_ROWS,
    Alternative,
    AnonymousProfile,
    Ranking,
    marginalize_profile,
)
from prefvote.scc import (
    SCC_KINDS,
    SCORE_TIE_TOL,
    _outcome,
    apply_scc,
    check_profile_stability,
    check_stability,
    check_strong_swd_efficiency,
    check_swd_efficiency,
    copeland_scores,
)


def positional_scores(profile, vector):
    """``scc._positional`` on ``profile``'s position matrix: Borda's scorer."""
    vector = np.asarray(vector, dtype=float)
    return scc._positional(profile.ids, *profile.position_matrix(), vector)


def test_positional_scores_bloc(bloc_profile):
    borda = positional_scores(bloc_profile, [4, 3, 2, 1, 0])
    assert borda == pytest.approx(
        {"x": 3.0, "y": 2.5, "u": 2.0, "w": 1.5, "v": 1.0}
    )
    plurality = positional_scores(bloc_profile, [1, 0, 0, 0, 0])
    assert plurality == pytest.approx(
        {"x": 0.5, "y": 0.5, "u": 0.0, "v": 0.0, "w": 0.0}
    )


def test_pairwise_support(split_majority_profile):
    p = split_majority_profile
    matrix = p.pairwise_matrix()
    a, b, c = (p.ids.index(x) for x in "abc")
    assert matrix[a, b] == pytest.approx(0.55, abs=1e-12)
    assert matrix[b, a] == pytest.approx(0.45, abs=1e-12)
    assert matrix[c, a] == pytest.approx(0.20, abs=1e-12)


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
                w for r, w in profile.support.items() if prefers(r, a, b)
            )
            assert matrix[i, j] == scan


def test_positional_and_bucklin_equal_fsum_scans(
    bloc_profile, split_majority_profile
):
    for profile in _array_oracle_profiles(bloc_profile, split_majority_profile):
        m = len(profile.ids)
        vector = [float(m - 1 - k) ** 1.5 for k in range(m)]
        scores = positional_scores(profile, vector)
        masses = [
            positional_scores(profile, [1.0] * (top + 1) + [0.0] * (m - top - 1))
            for top in range(m)
        ]
        for alt in profile.ids:
            ranks = [
                (position(r, alt) - 1, w) for r, w in profile.support.items()
            ]
            assert scores[alt] == math.fsum(w * vector[k] for k, w in ranks)
            assert [table[alt] for table in masses] == [
                math.fsum(w for k, w in ranks if k <= top) for top in range(m)
            ]


SIGNED_CREDITS = [
    [2.0, 0.5, 0.0, -0.0, -1.0, -7.25],
    [0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
    [1e-300, 1e-310, 0.0, -5e-324, -1e-300, -1.0],
    [1e300, 3.0, 1.0, -2.0, -1e150, -1e300],
    [1.0, 1.0, 1.0, 0.0, -0.0, 0.0],
]


@pytest.mark.parametrize("n_rows", [5, _LIMB_ROWS - 1, _LIMB_ROWS, 700])
def test_positional_scores_equal_fsum_oracle_on_signed_credits(n_rows):
    # Mixed signs, -0.0 and subnormal credits on weights from 1e-300 to 1,
    # on both sides of the row count where the limb sums take over.
    rng = np.random.default_rng(n_rows)
    orders = np.array([rng.permutation(6) for _ in range(n_rows)])
    tiny = 10.0 ** rng.uniform(-300, 0, n_rows - 1) / n_rows
    weights = np.r_[tiny, 1.0 - math.fsum(tiny.tolist())]
    profile = AnonymousProfile.from_orders(tuple("abcdef"), orders, weights)
    for vector in SIGNED_CREDITS:
        scores = positional_scores(profile, vector)
        expected = fsum_positional_scores(profile, vector)
        assert {a: s.hex() for a, s in scores.items()} == {
            a: s.hex() for a, s in expected.items()
        }, vector


@pytest.mark.parametrize("m", range(2, 9))
def test_exact_pl_positional_scores_equal_fsum_oracle(m):
    rng = np.random.default_rng(m)
    mus = rng.normal(0.0, 2.0, m).tolist()
    alts = [Alternative(f"x{k}", (mu,)) for k, mu in enumerate(mus)]
    profile = exact_profile(ProcessSpec("pl", (1.0,)), alts)
    vectors = [[m - 1.0 - k for k in range(m)]] + [
        [1.0] * k + [0.0] * (m - k) for k in range(1, m)
    ]
    for vector in vectors:
        scores = positional_scores(profile, vector)
        expected = fsum_positional_scores(profile, vector)
        assert {a: s.hex() for a, s in scores.items()} == {
            a: s.hex() for a, s in expected.items()
        }, vector


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
            w for r, w in profile.support.items() if position(r, alt) <= k
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


def scan_oracle(kind, profile):
    """Plurality, Borda, Copeland or maximin winners and margin by a scan.

    Scores come from ``profile.support`` one ranking at a time; winners
    are within the tie tolerance of the best.  The margin is the best
    score minus the best loser's (divided by m-1 for Borda, 0 when
    everyone wins), and for Copeland twice the smallest distance of a
    pairwise support from one half.
    """
    ids = sorted(profile.alternatives)
    m = len(ids)
    items = profile.support.items()

    def support(a, b):
        return math.fsum(w for r, w in items if prefers(r, a, b))

    if kind == "plurality":
        scores = {
            a: math.fsum(w for r, w in items if position(r, a) == 1) for a in ids
        }
    elif kind == "borda":
        scores = {
            a: math.fsum(w * float(m - position(r, a)) for r, w in items)
            for a in ids
        }
    elif kind == "copeland":
        scores = dict.fromkeys(ids, 0)
        for a, b in itertools.combinations(ids, 2):
            if support(a, b) > 0.5 + SCORE_TIE_TOL:
                scores[a] += 1
            elif support(a, b) < 0.5 - SCORE_TIE_TOL:
                scores[b] += 1
    else:
        scores = {a: min(support(a, b) for b in ids if b != a) for a in ids}
    best = max(scores.values())
    winners = frozenset(a for a, s in scores.items() if s >= best - SCORE_TIE_TOL)
    if kind == "copeland":
        margin = 2.0 * min(
            abs(support(a, b) - 0.5) for a, b in itertools.combinations(ids, 2)
        )
    else:
        losers = [s for a, s in scores.items() if a not in winners]
        scale = float(m - 1) if kind == "borda" else 1.0
        margin = (best - max(losers)) / scale if losers else 0.0
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
        assert _outcome("bucklin", profile, True) == (winners, margin)
        for kind in ("plurality", "borda", "copeland", "maximin"):
            winners, margin = scan_oracle(kind, profile)
            assert apply_scc(kind, profile) == winners, kind
            assert _outcome(kind, profile, True) == (winners, margin), kind
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


def efficiency_oracle(profile, winners, strong):
    """Violations of either efficiency audit by a scan over dominance pairs.

    Lists every (a, b, mutual) with ``a`` swap-dominating ``b != a`` and
    ``mutual`` telling whether ``b`` dominates ``a`` back, then flags a
    pair by the audit's predicate on which of the two are in ``winners``.
    """
    ids = profile.ids
    dominance = profile.dominance_matrix()
    first, second = np.nonzero(dominance)
    pairs = [
        (ids[i], ids[j], bool(dominance[j, i]))
        for i, j in zip(first.tolist(), second.tolist())
        if i != j
    ]
    if strong:
        def violates(a_wins, b_wins, mutual):
            return a_wins != b_wins if mutual else b_wins
    else:
        def violates(a_wins, b_wins, mutual):
            return b_wins and not a_wins
    return tuple(sorted(
        (a, b) for a, b, mutual in pairs if violates(a in winners, b in winners, mutual)
    ))


def audit_profiles(seed, count):
    """Random profiles with small integer weights; every other one has its
    support closed under one swap, so that dominance, mutual included,
    is common."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        m = int(rng.integers(2, 6))
        ids = "abcde"[:m]
        perms = list(itertools.permutations(ids))
        size = int(rng.integers(1, min(len(perms), 6) + 1))
        chosen = rng.choice(len(perms), size=size, replace=False)
        support = {
            Ranking(perms[j]): float(w)
            for j, w in zip(chosen, rng.integers(1, 4, size))
        }
        if case % 2 == 0:
            a, b = rng.choice(list(ids), 2, replace=False).tolist()
            for ranking, weight in list(support.items()):
                image = tuple(b if x == a else a if x == b else x for x in ranking.order)
                support.setdefault(Ranking(image), float(rng.integers(1, weight + 1)))
        total = sum(support.values())
        yield rng, AnonymousProfile({r: w / total for r, w in support.items()})


AUDITS = ((False, check_swd_efficiency), (True, check_strong_swd_efficiency))


def test_efficiency_audits_match_pair_scan_oracle():
    mutual_pairs = flagged = 0
    for _, profile in audit_profiles(31, 240):
        dominance = profile.dominance_matrix()
        mutual_pairs += int(np.count_nonzero(dominance & dominance.T)) - len(dominance)
        for kind in SCC_KINDS:
            winners = apply_scc(kind, profile)
            for strong, audit in AUDITS:
                report = audit(kind, profile)
                expected = efficiency_oracle(profile, winners, strong)
                assert report.violations == expected, (profile, kind, strong)
                assert report.holds is (not expected)
                assert report.kind == kind
                flagged += bool(expected)
    assert mutual_pairs >= 80
    assert flagged >= 10


def test_efficiency_audits_match_oracle_on_any_winner_set(monkeypatch):
    # The rules are efficient, so the weak audit's predicate only fires on
    # winner sets no rule picks: audit those instead.
    flagged = {False: 0, True: 0}
    for rng, profile in audit_profiles(32, 200):
        ids = profile.ids
        winners = frozenset(
            rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False).tolist()
        )
        monkeypatch.setattr(scc, "_outcome", lambda kind, p, margin=False: (winners, None))
        for strong, audit in AUDITS:
            expected = efficiency_oracle(profile, winners, strong)
            assert audit("borda", profile).violations == expected, (profile, winners)
            flagged[strong] += bool(expected)
    assert min(flagged.values()) >= 40


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


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        ("7", "seed must be an integer, got '7'"),
        (-1, "seed must be nonnegative"),
    ],
)
def test_check_stability_refuses_a_bad_seed_before_building_profiles(
    monkeypatch, mode, seed, message
):
    built = []
    for builder in ("exact_profile", "estimate_profile"):
        monkeypatch.setattr(processes, builder, lambda *args: built.append(args))
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = [Alternative("a", (1.0,)), Alternative("b", (0.0,))]
    with pytest.raises(ValueError, match=re.escape(message)):
        check_stability(spec, "borda", alts, ["a"], mode=mode, n_samples=100, seed=seed)
    assert built == []


def test_check_stability_takes_any_integer_seed():
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = [Alternative("a", (0.2,)), Alternative("b", (0.0,))]
    reports = [
        check_stability(spec, "borda", alts, ["a"], mode="mc", n_samples=200, seed=seed)
        for seed in (5, np.int64(5))
    ]
    assert reports[0] == reports[1]


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


def test_unknown_rule_or_mode_fails_before_any_profile_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a profile for a call that must fail")

    monkeypatch.setattr(processes, "estimate_profile", refuse)
    monkeypatch.setattr(processes, "exact_profile", refuse)
    monkeypatch.setattr(scc, "marginalize_profile", refuse)
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = [Alternative("a", (1.0,)), Alternative("b", (0.0,))]
    for mode in ("exact", "mc"):
        with pytest.raises(ValueError, match="unknown rule 'veto'"):
            check_stability(spec, "veto", alts, ["a"], mode=mode)
    with pytest.raises(ValueError, match="mode"):
        check_stability(spec, "borda", alts, ["a"], mode="approx")
    profile = AnonymousProfile({Ranking.from_string("a>b"): 1.0})
    with pytest.raises(ValueError, match="unknown rule 'veto'"):
        check_profile_stability("veto", profile, ["a"])


def test_check_stability_mc_low_confidence_for_every_rule():
    # a and b tie in utility, so every rule's margin is sampling noise;
    # spread features (3, 0, -3) give every rule a clear margin
    spec = ProcessSpec(family="tm", beta=(1.0,))
    for features, expected in (((1.0, 1.0, -3.0), True), ((3.0, 0.0, -3.0), False)):
        alts = [Alternative(i, (f,)) for i, f in zip("abc", features)]
        for kind in SCC_KINDS:
            report = check_stability(
                spec, kind, alts, ["a", "b"], mode="mc", n_samples=20_000, seed=3
            )
            assert report.low_confidence is expected, (features, kind)
        exact = check_stability(spec, "borda", alts[:2], ["a", "b"], mode="exact")
        assert exact.low_confidence is False


@pytest.mark.parametrize(
    "kind, matrix",
    [
        ("plurality", "position_matrix"),
        ("borda", "position_matrix"),
        ("maximin", "pairwise_matrix"),
        ("bucklin", "position_matrix"),
    ],
)
def test_mc_stability_scores_each_profile_once(monkeypatch, kind, matrix):
    # winners and margin come from one read of the profile's matrix: the
    # full set (m=4) once, then the subset (m=2) once
    calls = []
    original = getattr(AnonymousProfile, matrix)

    def counted(self):
        calls.append(len(self.ids))
        return original(self)

    monkeypatch.setattr(AnonymousProfile, matrix, counted)
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = [Alternative(i, (f,)) for i, f in zip("abcd", (1.0, 0.5, 0.0, -0.5))]
    check_stability(spec, kind, alts, ["a", "b"], mode="mc", n_samples=500)
    assert calls == [4, 2]


def test_stability_refuses_a_string_subset():
    # "ab" used to be read as the ids "a" and "b".
    profile = AnonymousProfile(
        {Ranking(("ab", "c", "d")): 0.6, Ranking(("d", "c", "ab")): 0.4}
    )
    with pytest.raises(ValueError, match="collection of alternative ids"):
        check_profile_stability("borda", profile, "ab")
    assert check_profile_stability("borda", profile, ["ab"]).winners_subset == {"ab"}
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = [Alternative("ab", (1.0,)), Alternative("c", (0.0,)), Alternative("d", (-1.0,))]
    with pytest.raises(ValueError, match="collection of alternative ids"):
        check_stability(spec, "borda", alts, "ab")
    with pytest.raises(ValueError, match="collection of alternative ids"):
        check_stability(spec, "borda", alts, "cd", mode="mc", n_samples=100)


def cache_contract_cases():
    """(ids, orders, weights, subsets): seeded sparse profiles and one exact
    PL profile at m=5, as the arrays a fresh equal profile is built from."""
    rng = np.random.default_rng(2201)
    for _ in range(12):
        m = int(rng.integers(3, 7))
        ids = tuple("abcdef"[:m])
        size = int(rng.integers(1, 9))
        orders = np.array([rng.permutation(m) for _ in range(size)])
        weights = rng.dirichlet(np.ones(size))
        subsets = [
            sorted(rng.choice(ids, size=int(rng.integers(1, m)), replace=False).tolist())
            for _ in range(2)
        ]
        yield ids, orders, weights, subsets
    alts = [Alternative(i, (f,)) for i, f in zip("abcde", (1.0, 0.6, 0.1, -0.4, -1.0))]
    exact = exact_profile(ProcessSpec(family="pl", beta=(1.3,)), alts)
    positions, weights = exact.position_matrix()
    yield exact.ids, np.argsort(positions, axis=1), weights, [["a", "c", "e"], ["b", "d"]]


def audit_calls(subsets):
    """Every rule through every check, each stability check on each subset."""
    calls = []
    for kind in SCC_KINDS:
        calls += [
            (apply_scc, kind), (check_swd_efficiency, kind), (check_strong_swd_efficiency, kind)
        ]
        calls += [(check_profile_stability, kind, subset) for subset in subsets]
    return calls


def test_audits_on_one_profile_equal_audits_on_fresh_profiles():
    rng = np.random.default_rng(7)
    for ids, orders, weights, subsets in cache_contract_cases():
        profile = AnonymousProfile.from_orders(ids, orders, weights)
        calls = audit_calls(subsets)
        for k in rng.permutation(len(calls)).tolist():
            check, *args = calls[k]
            fresh = AnonymousProfile.from_orders(ids, orders, weights)
            assert fresh == profile
            expected = check(args[0], fresh, *args[1:])
            assert check(args[0], profile, *args[1:]) == expected, (ids, calls[k])


def test_each_rule_is_scored_once_per_profile_and_margin(monkeypatch):
    runs = collections.Counter()
    score = scc._score

    def counted(kind, profile, margin):
        runs[id(profile), kind, margin] += 1
        return score(kind, profile, margin)

    monkeypatch.setattr(scc, "_score", counted)
    for ids, orders, weights, subsets in cache_contract_cases():
        profile = AnonymousProfile.from_orders(ids, orders, weights)
        marginal = marginalize_profile(profile, subsets[0])
        runs.clear()
        for _ in range(2):
            for check, *args in audit_calls(subsets[:1]):
                check(args[0], profile, *args[1:])
            for kind in SCC_KINDS:
                assert _outcome(kind, profile, True)[0] == apply_scc(kind, profile)
        assert marginalize_profile(profile, subsets[0]) is marginal
        expected = {
            (id(profile), kind, margin): 1 for kind in SCC_KINDS for margin in (False, True)
        }
        expected.update({(id(marginal), kind, False): 1 for kind in SCC_KINDS})
        assert runs == expected


def test_stability_on_a_second_subset_replaces_the_marginal():
    for ids, orders, weights, (first, second) in cache_contract_cases():
        if first == second:
            continue
        profile = AnonymousProfile.from_orders(ids, orders, weights)
        for kind in SCC_KINDS:
            check_profile_stability(kind, profile, first)
            report = check_profile_stability(kind, profile, second)
            fresh = AnonymousProfile.from_orders(ids, orders, weights)
            assert report == check_profile_stability(kind, fresh, second), (ids, kind)
        # The memory bound: one marginal, the last, and one outcome per rule.
        kept = profile._memo
        assert list(kept["marginal"]) == [frozenset(second)]
        assert set(kept) - {"support", "dominance", "pairwise", "limbs"} == {
            "marginal", *((kind, False) for kind in SCC_KINDS)
        }
