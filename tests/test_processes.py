import itertools
import math
import warnings

import numpy as np
import pytest
from oracles import permutations_exact_profile, sorted_estimate_profile
from scipy import special

from prefvote import processes
from prefvote.processes import (
    EXACT_PROFILE_MAX_SIZE,
    ExactProfileUnsupported,
    ProcessSpec,
    estimate_profile,
    exact_profile,
    log_normal_cdf,
    mode_utility,
    normal_cdf,
    pairwise_prob,
    _borda_scores,
    _draw_utilities,
    _scored_alternatives,
)
from prefvote.experiments import ground_truth_winner
from prefvote.pipeline import SummaryModel, decide
from prefvote.profiles import (
    Alternative,
    AnonymousProfile,
    Ranking,
    marginalize_profile,
    swap_dominates,
    _permutation_rows,
    _ranks,
)
from prefvote.scc import check_stability

# reference: mpmath ncdf(1) at 40 digits
PHI_1 = 0.8413447460685429


def alt(name, *features):
    return Alternative(id=name, features=tuple(features))


def scalar_alts(mus):
    """One-feature alternatives named a, b, c, ... with beta = (1,)."""
    names = "abcdefghij"
    return [alt(names[k], float(mu)) for k, mu in enumerate(mus)]


def total_variation(p, q):
    keys = set(p.support) | set(q.support)
    return 0.5 * sum(abs(p.support.get(r, 0.0) - q.support.get(r, 0.0)) for r in keys)


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ProcessSpec(family="probit", beta=(1.0,))
    spec = ProcessSpec(family="tm", beta=(1, 2))
    assert spec.beta == (1.0, 2.0) and type(spec.beta[0]) is float


@pytest.mark.parametrize("family", ["tm", "pl"])
@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, pytest.param(10**400, id="past-float-range")],
)
def test_spec_refuses_non_finite_beta(family, bad):
    with pytest.raises(ValueError, match="beta must be finite"):
        ProcessSpec(family=family, beta=(1.0, bad))


def test_mode_utility():
    spec = ProcessSpec(family="tm", beta=(1.0, 2.0))
    assert mode_utility(spec, alt("a", 3.0, 4.0)) == pytest.approx(11.0)
    with pytest.raises(ValueError, match="dimension"):
        mode_utility(spec, alt("a", 3.0))
    huge = ProcessSpec(family="tm", beta=(1e300, 1e300))
    with pytest.raises(ValueError, match="'a' has non-finite utility"):
        mode_utility(huge, alt("a", 1e300, -1e300))
    with pytest.raises(ValueError, match="'a' has non-finite utility"):
        pairwise_prob(huge, alt("a", 1e300, -1e300), alt("c", -1.0, -1.0))


def test_pairwise_prob_tm_golden():
    spec = ProcessSpec(family="tm", beta=(1.0,))
    assert pairwise_prob(spec, alt("a", 1.0), alt("b", 0.0)) == pytest.approx(
        PHI_1, abs=1e-12
    )
    assert pairwise_prob(spec, alt("b", 0.0), alt("a", 1.0)) == pytest.approx(
        1 - PHI_1, abs=1e-12
    )
    assert pairwise_prob(spec, alt("a", 2.0), alt("b", 2.0)) == 0.5
    with pytest.raises(ValueError):
        pairwise_prob(spec, alt("a", 1.0), alt("a", 0.0))
    with pytest.raises(ValueError, match="dimension"):
        pairwise_prob(spec, alt("a", 1.0, 2.0), alt("b", 0.0, 0.0))
    # antisymmetry on random five-feature instances
    rng = np.random.default_rng(44)
    spec5 = ProcessSpec(family="tm", beta=tuple(rng.normal(0, 1, 5)))
    for _ in range(10):
        a, b = alt("a", *rng.normal(0, 1, 5)), alt("b", *rng.normal(0, 1, 5))
        p, q = pairwise_prob(spec5, a, b), pairwise_prob(spec5, b, a)
        assert p + q == pytest.approx(1.0, abs=1e-12)


def test_pairwise_prob_pl_golden():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    p = pairwise_prob(spec, alt("a", math.log(3)), alt("b", 0.0))
    assert p == pytest.approx(0.75, abs=1e-12)
    # Gumbel noise of scale 2 is the standard process at beta / 2: the
    # gap halves
    spec2 = ProcessSpec(family="pl", beta=(0.5,))
    p2 = pairwise_prob(spec2, alt("a", math.log(3)), alt("b", 0.0))
    assert p2 == pytest.approx(1.0 / (1.0 + 3 ** -0.5), abs=1e-12)


def _assert_matches_oracle(got, expected):
    # Relative agreement where the oracle is a normal float, absolute in
    # the subnormal tail, where floats themselves carry little precision.
    normal = np.abs(expected) >= np.finfo(float).tiny
    assert np.all(np.abs(got - expected)[normal] <= 1e-12 * np.abs(expected[normal]))
    assert np.all(np.abs(got - expected)[~normal] <= 1e-300)


def test_normal_cdf_and_its_log_match_scipy():
    rng = np.random.default_rng(46)
    t = np.concatenate([np.linspace(-60.0, 40.0, 100_001), rng.standard_normal(10_000)])
    _assert_matches_oracle(log_normal_cdf(t), special.log_ndtr(t))
    _assert_matches_oracle(np.array([normal_cdf(x) for x in t.tolist()]), special.ndtr(t))
    assert log_normal_cdf(np.array([-math.inf, math.inf])).tolist() == [-math.inf, 0.0]
    assert log_normal_cdf(np.empty(0)).shape == (0,)


def test_log_normal_cdf_takes_each_logarithm_only_where_it_applies():
    # The same bits as evaluating both logarithms everywhere and picking
    # per entry, on whole arrays and on chunks of every kind (all entries
    # at or above -1, and mixed); the tail below -37 is left out.
    t = np.linspace(-60.0, 40.0, 400_001)
    t = t[t >= -37.0]
    upper = t >= -1.0
    x = np.where(upper, t, -t) * math.sqrt(0.5)
    half = 0.5 * np.array([math.erfc(v) for v in x.tolist()])
    with np.errstate(divide="ignore"):  # 1 - Phi underflows to 0 above t = 38
        expected = np.where(upper, np.log1p(-half), np.log(half))
    assert log_normal_cdf(t).tobytes() == expected.tobytes()
    chunks = np.array_split(np.arange(len(t)), 3000)
    assert all(log_normal_cdf(t[k]).tobytes() == expected[k].tobytes() for k in chunks)


@pytest.mark.parametrize("family", ["tm", "pl"])
def test_pairwise_prob_saturates_at_huge_gaps(family):
    # exp(1000) overflows a float; the probability must still round to 0 or 1
    spec = ProcessSpec(family=family, beta=(1.0,))
    assert pairwise_prob(spec, alt("a", 500.0), alt("b", -500.0)) == 1.0
    assert pairwise_prob(spec, alt("a", -500.0), alt("b", 500.0)) == 0.0


def test_pairwise_prob_matches_random_utility_draws():
    # oracle: the defining utility race, sampled directly
    rng = np.random.default_rng(42)
    n = 200_000
    gumbel_wins = (rng.gumbel(math.log(3), 1.0, n) > rng.gumbel(0.0, 1.0, n)).mean()
    assert gumbel_wins == pytest.approx(0.75, abs=0.005)
    normal_wins = (
        rng.normal(1.0, math.sqrt(0.5), n) > rng.normal(0.0, math.sqrt(0.5), n)
    ).mean()
    assert normal_wins == pytest.approx(PHI_1, abs=0.005)


def test_exact_profile_pl_golden():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    profile = exact_profile(spec, scalar_alts([math.log(4), math.log(2), 0.0]))
    # sequential-choice closed form with weights 4:2:1
    assert profile.support.get(Ranking.from_string("a>b>c"), 0.0) == pytest.approx(
        8 / 21, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("a>c>b"), 0.0) == pytest.approx(
        4 / 21, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("b>a>c"), 0.0) == pytest.approx(
        8 / 35, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("b>c>a"), 0.0) == pytest.approx(
        2 / 35, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("c>a>b"), 0.0) == pytest.approx(
        2 / 21, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("c>b>a"), 0.0) == pytest.approx(
        1 / 21, abs=1e-12
    )
    assert math.fsum(profile.support.values()) == pytest.approx(1.0, abs=1e-12)


def per_permutation_weights(beta, alts, gumbel_scale):
    """Sequential-choice weight of every ranking, one permutation at a time,
    with Gumbel noise of scale ``gumbel_scale``."""
    spec = ProcessSpec(family="pl", beta=beta)
    mu = np.array([mode_utility(spec, a) for a in alts])
    weights = np.exp((mu - mu.max()) / gumbel_scale)
    expected = {}
    for perm in itertools.permutations(range(len(alts))):
        w = weights[list(perm)]
        denom = np.cumsum(w[::-1])[::-1]
        expected[Ranking(tuple(alts[j].id for j in perm))] = float(np.prod(w / denom))
    return AnonymousProfile(expected).support


def assert_weights_close(actual, expected):
    assert actual.keys() == expected.keys()
    for ranking, weight in expected.items():
        assert actual[ranking] == pytest.approx(weight, rel=1e-12, abs=0)


@pytest.mark.parametrize("m, seed", [(5, 0), (5, 1), (6, 2), (7, 3), (8, 4)])
def test_exact_profile_matches_per_permutation_formula(m, seed):
    # Gumbel noise of scale gamma is the standard process at beta / gamma.
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.5, 2.0))
    alts = [alt("abcdefgh"[k], *rng.standard_normal(2)) for k in range(m)]
    profile = exact_profile(ProcessSpec("pl", (1.0 / scale, -0.5 / scale)), alts)
    expected = per_permutation_weights((1.0, -0.5), alts, scale)
    assert_weights_close(profile.support, expected)
    standard = exact_profile(ProcessSpec("pl", (1.0, -0.5)), alts)
    assert standard.support == per_permutation_weights((1.0, -0.5), alts, 1.0)


def test_exact_profile_pl_uniform():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    profile = exact_profile(spec, scalar_alts([2.0, 2.0, 2.0]))
    for ranking in profile.support:
        assert profile.support.get(ranking, 0.0) == pytest.approx(1 / 6, abs=1e-12)


def test_exact_profile_pl_pair():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    profile = exact_profile(spec, scalar_alts([math.log(2), 0.0]))
    assert profile.support.get(Ranking.from_string("a>b"), 0.0) == pytest.approx(
        2 / 3, abs=1e-12
    )


def test_exact_profile_tm_pair():
    spec = ProcessSpec(family="tm", beta=(1.0,))
    profile = exact_profile(spec, scalar_alts([1.0, 0.0]))
    assert profile.support.get(Ranking.from_string("a>b"), 0.0) == pytest.approx(
        PHI_1, abs=1e-12
    )
    assert profile.support.get(Ranking.from_string("b>a"), 0.0) == pytest.approx(
        1 - PHI_1, abs=1e-12
    )


def test_exact_profile_singleton_and_errors():
    tm = ProcessSpec(family="tm", beta=(1.0,))
    single = exact_profile(tm, scalar_alts([3.0]))
    assert single.support.get(Ranking(("a",)), 0.0) == 1.0
    with pytest.raises(ExactProfileUnsupported):
        exact_profile(tm, scalar_alts([1.0, 2.0, 3.0]))
    assert issubclass(ExactProfileUnsupported, ValueError)
    pl = ProcessSpec(family="pl", beta=(1.0,))
    with pytest.raises(ValueError, match=str(EXACT_PROFILE_MAX_SIZE)):
        exact_profile(pl, scalar_alts(range(9)))
    with pytest.raises(ValueError, match="unique"):
        exact_profile(pl, [alt("a", 1.0), alt("a", 2.0)])


def log_space_pl_weights(mu):
    """Sequential-choice weight of every ranking of ``mu``'s columns, each
    stage's log-sum-exp taken over the alternatives left."""
    weights = {}
    for perm in itertools.permutations(range(len(mu))):
        logs = [mu[perm[s]] - np.logaddexp.reduce(mu[list(perm[s:])]) for s in range(len(mu))]
        weights[perm] = math.exp(math.fsum(logs))
    return weights


@pytest.mark.parametrize("beta", [800.0, 2000.0, 1e5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_exact_pl_profile_holds_at_any_utility_spread(beta, m):
    # exp(mu - max) underflows to 0 past a spread of about 745, where a
    # stage of weights all 0 would give a 0/0 factor.
    rng = np.random.default_rng([int(beta), m])
    spec = ProcessSpec(family="pl", beta=(beta,))
    for _ in range(20):
        features = rng.standard_normal(m)
        features[int(rng.integers(m))] = features[0] + rng.uniform(0, 5.0 / beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = exact_profile(spec, scalar_alts(features))
        for perm, expected in log_space_pl_weights(beta * features).items():
            ranking = Ranking(tuple("abcd"[j] for j in perm))
            weight = profile.support.get(ranking, 0.0)
            assert weight == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_exact_pl_profile_stage_of_underflowed_weights():
    # a is first in any ranking that weighs more than e^-792; after it, b and
    # c are 800 and 792 below it, so their weights both underflow to 0.
    profile = exact_profile(ProcessSpec("pl", (1.0,)), scalar_alts([800.0, 0.0, 8.0]))
    b_before_c = 1.0 / (1.0 + math.exp(8.0))
    weight = profile.support
    assert weight[Ranking.from_string("a>b>c")] == pytest.approx(b_before_c)
    assert weight[Ranking.from_string("a>c>b")] == pytest.approx(1 - b_before_c)
    # 739 and 740 below a, b and c weigh subnormal floats of a few hundred
    # units in the last place, too coarse for their ratio.
    profile = exact_profile(ProcessSpec("pl", (1.0,)), scalar_alts([800.0, 61.0, 60.0]))
    b_before_c = 1.0 / (1.0 + math.exp(-1.0))
    weight = profile.support[Ranking.from_string("a>b>c")]
    assert weight == pytest.approx(b_before_c, rel=1e-12)


HUGE_BETA = (1e300, 1e300)
BAD_SETS = {
    "empty": ([], "alternative set must be nonempty"),
    "duplicate ids": (
        [alt("a", 0.0, 0.0), alt("a", 1e-300, 0.0)],
        "alternative ids must be unique within a set",
    ),
    "feature count": (
        [alt("a", 0.0, 0.0), alt("b", 1e-300)],
        "alternative 'b' has dimension 1, expected 2",
    ),
    "lone feature count": ([alt("b", 1e-300)], "alternative 'b' has dimension 1, expected 2"),
    "overflow": (
        [alt("a", 0.0, 0.0), alt("h", 1e300, 1e300)],
        "alternative 'h' has non-finite utility inf",
    ),
    "lone overflow": ([alt("h", 1e300, 1e300)], "alternative 'h' has non-finite utility inf"),
    # 1e600 - 1e600: BLAS gives inf or -inf by the product's shape
    "cancelling overflow": (
        [alt("a", 0.0, 0.0), alt("h", 1e300, -1e300)],
        "alternative 'h' has non-finite utility nan",
    ),
    "lone cancelling overflow": (
        [alt("h", 1e300, -1e300)],
        "alternative 'h' has non-finite utility nan",
    ),
}
ENTRY_POINTS = {
    "decide": lambda alts: decide(SummaryModel(np.array(HUGE_BETA), 1), alts),
    "ground_truth_winner": lambda alts: ground_truth_winner(
        [HUGE_BETA], alts, 10, np.random.default_rng(0)
    ),
    "ground_truth_winner_2_voters": lambda alts: ground_truth_winner(
        [HUGE_BETA, HUGE_BETA], alts, 10, np.random.default_rng(0)
    ),
    "mode_utility": lambda alts: mode_utility(ProcessSpec("tm", HUGE_BETA), *alts),
    "exact_profile": lambda alts: exact_profile(ProcessSpec("pl", HUGE_BETA), alts),
    "estimate_profile": lambda alts: estimate_profile(
        ProcessSpec("tm", HUGE_BETA), alts, 10, np.random.default_rng(0)
    ),
    "check_stability_exact": lambda alts: check_stability(
        ProcessSpec("pl", HUGE_BETA), "borda", alts, ["a"], mode="exact"
    ),
    "check_stability_mc": lambda alts: check_stability(
        ProcessSpec("tm", HUGE_BETA), "borda", alts, ["a"], mode="mc", n_samples=10
    ),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in ENTRY_POINTS
        for case, (alternatives, _) in BAD_SETS.items()
        # mode_utility scores one alternative, not a set
        if entry != "mode_utility" or len(alternatives) == 1
    ],
)
def test_entry_points_refuse_bad_alternative_sets_alike(entry, case):
    alternatives, message = BAD_SETS[case]
    with pytest.raises(ValueError) as refusal:
        ENTRY_POINTS[entry](alternatives)
    assert type(refusal.value) is ValueError
    assert str(refusal.value) == message


def test_refusals_name_a_non_finite_utility():
    # A left-to-right sum can stay finite where BLAS, summing in another
    # order, overflows; the refusal then names the product's value.
    rng = np.random.default_rng(5)
    values = [1e308, -1e308, 9e307, -9e307, 1.0, 0.0]
    refused = 0
    for _ in range(300):
        d, m, n = (int(v) for v in rng.integers([2, 1, 1], [12, 4, 3]))
        alts = [alt(f"x{k}", *rng.choice(values, size=d)) for k in range(m)]
        try:
            _scored_alternatives(alts, np.ones((n, d)))
        except ValueError as exc:
            refused += 1
            assert not math.isfinite(float(str(exc).rsplit(" ", 1)[1])), exc
    assert refused >= 100


def test_good_alternative_set_passes_every_entry_point():
    # The refusals above come from the bad alternative, not the settings.
    good = [alt("a", 0.0, 0.0), alt("b", 1e-300, -2e-300)]
    for name, entry in ENTRY_POINTS.items():
        entry(good[:1] if name == "mode_utility" else good)


def test_pl_consistency_under_marginalization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(3, 6))
        spec = ProcessSpec(family="pl", beta=(1.0,))
        alts = scalar_alts(rng.normal(0, 1.5, m))
        full = exact_profile(spec, alts)
        k = int(rng.integers(2, m))
        chosen = sorted(rng.choice([a.id for a in alts], size=k, replace=False))
        marginal = marginalize_profile(full, chosen)
        direct = exact_profile(spec, [a for a in alts if a.id in chosen])
        for ranking in set(marginal.support) | set(direct.support):
            gap = marginal.support.get(ranking, 0.0) - direct.support.get(ranking, 0.0)
            assert abs(gap) <= 1e-9


def test_tm_pair_consistency_via_sampling():
    # the m=2 closed form must match the marginal of a sampled 3-set profile
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = scalar_alts([0.8, 0.0, -0.5])
    rng = np.random.default_rng(11)
    sampled = estimate_profile(spec, alts, 200_000, rng)
    marginal = marginalize_profile(sampled, ["a", "b"])
    closed = exact_profile(spec, alts[:2])
    assert total_variation(marginal, closed) <= 0.01


def test_estimate_profile_close_to_exact():
    spec = ProcessSpec(family="pl", beta=(1.0,))
    alts = scalar_alts([1.0, 0.3, -0.2])
    exact = exact_profile(spec, alts)
    rng = np.random.default_rng(5)
    estimate = estimate_profile(spec, alts, 100_000, rng)
    assert total_variation(exact, estimate) <= 0.02


def test_estimate_profile_validation_and_determinism():
    spec = ProcessSpec(family="tm", beta=(1.0,))
    alts = scalar_alts([0.5, 0.0, -0.5, 1.2])
    for n_samples in (0, 2.5, True):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_profile(spec, alts, n_samples, np.random.default_rng(0))
    p1 = estimate_profile(spec, alts, 5000, np.random.default_rng(9))
    p2 = estimate_profile(spec, alts, 5000, np.random.default_rng(9))
    assert p1 == p2


def test_utility_dominance_composition():
    # mode-utility order must match swap dominance on every exact profile
    rng = np.random.default_rng(17)
    spec = ProcessSpec(family="pl", beta=(1.0,))
    for _ in range(10):
        m = int(rng.integers(2, 6))
        alts = scalar_alts(rng.normal(0, 1.0, m))
        profile = exact_profile(spec, alts)
        by_id = {a.id: a for a in alts}
        for a, b in itertools.permutations(sorted(by_id), 2):
            dominates = mode_utility(spec, by_id[a]) >= mode_utility(spec, by_id[b])
            assert swap_dominates(profile, a, b) == dominates


def _renormalized(items):
    """The previous profile constructor: fsum total, exact divide, no zeros."""
    total = math.fsum(weight for _, weight in items)
    return {ranking: weight / total for ranking, weight in items if weight > 0}


def reference_exact_weights(spec, alternatives, gumbel_scale=1.0):
    """Copy of the previous exact_profile, which built one Ranking per row,
    with Gumbel noise of scale ``gumbel_scale`` in the ``"pl"`` family."""
    alts = sorted(alternatives, key=lambda a: a.id)
    ids = [a.id for a in alts]
    m = len(ids)
    if m == 1:
        return {Ranking((ids[0],)): 1.0}
    if spec.family == "tm":
        p = pairwise_prob(spec, alts[0], alts[1])
        return _renormalized(
            [(Ranking((ids[0], ids[1])), p), (Ranking((ids[1], ids[0])), 1.0 - p)]
        )
    _, mu = _scored_alternatives(alts, spec.beta)
    weights = np.exp((mu - mu.max()) / gumbel_scale)
    perms = np.array(list(itertools.permutations(range(m))))
    w = weights[perms]
    denom = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    probs = np.prod(w / denom, axis=1)
    return _renormalized(
        list(zip(map(Ranking, itertools.permutations(ids)), probs.tolist()))
    )


def _stable_orders(utilities):
    return np.argsort(-utilities, axis=1, kind="stable")


def reference_estimate_weights(spec, alternatives, n_samples, rng, branch):
    """Copy of the previous estimate_profile's two counting branches."""
    alts = sorted(alternatives, key=lambda a: a.id)
    ids = [a.id for a in alts]
    m = len(ids)
    if m == 1:
        return {Ranking((ids[0],)): 1.0}
    _, mu = _scored_alternatives(alts, spec.beta)
    orders = _stable_orders(_draw_utilities(spec.family, mu, n_samples, rng))
    items = []
    if branch == "codes":
        powers = (m ** np.arange(m, dtype=np.int64))[::-1]
        codes = orders.astype(np.int64) @ powers
        unique_codes, counts = np.unique(codes, return_counts=True)
        for code, count in zip(unique_codes.tolist(), counts.tolist()):
            perm = []
            for p in powers.tolist():
                perm.append(code // p)
                code %= p
            items.append((Ranking(tuple(ids[j] for j in perm)), count / n_samples))
    else:
        unique_rows, counts = np.unique(orders, axis=0, return_counts=True)
        for row, count in zip(unique_rows.tolist(), counts.tolist()):
            items.append((Ranking(tuple(ids[j] for j in row)), count / n_samples))
    return _renormalized(items)


def _seeded_instance(seed, m):
    rng = np.random.default_rng(seed)
    alts = [alt(f"x{k:02d}", *rng.standard_normal(2)) for k in range(m)]
    beta = tuple(rng.standard_normal(2))
    return alts, beta, float(rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("m", range(1, 9))
def test_exact_profile_weights_equal_previous_builder(m):
    alts, beta, _ = _seeded_instance(100 + m, m)
    families = ("pl", "tm") if m <= 2 else ("pl",)
    for family in families:
        spec = ProcessSpec(family, beta)
        expected = reference_exact_weights(spec, alts)
        assert dict(exact_profile(spec, alts).support) == expected


@pytest.mark.parametrize("m", range(1, 9))
def test_exact_profile_at_scaled_weights_is_the_scaled_gumbel_process(m):
    # The documented recipe: Gumbel noise of scale gamma is the standard
    # "pl" process at beta / gamma.
    alts, beta, scale = _seeded_instance(100 + m, m)
    scaled = ProcessSpec("pl", tuple(np.array(beta) / scale))
    expected = reference_exact_weights(ProcessSpec("pl", beta), alts, scale)
    assert_weights_close(dict(exact_profile(scaled, alts).support), expected)


@pytest.mark.parametrize("m", [*range(1, 9), 16])
def test_estimate_profile_weights_equal_previous_branches(m):
    alts, beta, _ = _seeded_instance(200 + m, m)
    branches = ("codes", "rows") if m <= 15 else ("rows",)
    for family in ("pl", "tm"):
        spec = ProcessSpec(family, beta)
        profile = estimate_profile(spec, alts, 3_000, np.random.default_rng(m))
        for branch in branches:
            expected = reference_estimate_weights(
                spec, alts, 3_000, np.random.default_rng(m), branch
            )
            assert dict(profile.support) == expected


def reference_borda_counts(orders):
    """Copy of the previous Borda count: bincount the columns of sorted orders."""
    m = orders.shape[1]
    scores = np.zeros(m, dtype=np.int64)
    for k in range(m):
        scores += np.bincount(orders[:, k], minlength=m) * (m - 1 - k)
    return scores


def _tie_heavy_utilities(rng, n, m):
    """Continuous draws, small integers (many exact ties) and a mix of
    signed zeros and infinities, which a stable sort treats as ties too."""
    tie_values = np.array([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf])
    return (
        rng.standard_normal((n, m)),
        rng.integers(-2, 3, size=(n, m)).astype(float),
        tie_values[rng.integers(0, len(tie_values), size=(n, m))],
    )


@pytest.mark.parametrize("m", range(2, 11))
def test_borda_scores_equal_sorted_order_counts(m):
    rng = np.random.default_rng(300 + m)
    for n in (1, 7, 1000):
        for utilities in _tie_heavy_utilities(rng, n, m):
            expected = reference_borda_counts(_stable_orders(utilities))
            assert np.array_equal(_borda_scores(utilities), expected)


def test_borda_scores_break_exact_ties_toward_the_smaller_column():
    tied = np.array([[0.0, -0.0, 0.0], [-np.inf, -np.inf, -np.inf]])
    assert _borda_scores(tied).tolist() == [4, 2, 0]
    assert _borda_scores(np.array([[1.0, 2.0, 2.0]])).tolist() == [0, 2, 1]


@pytest.mark.parametrize("m", range(2, 9))
def test_ranks_of_negated_utilities_are_the_ranks_of_their_positions(m):
    # estimate_profile counts draws by these ranks up to 8 alternatives.
    rng = np.random.default_rng(700 + m)
    rows = _permutation_rows(m)
    for n in (1, 7, 1000):
        for utilities in _tie_heavy_utilities(rng, n, m):
            positions = np.argsort(_stable_orders(utilities), axis=1)
            ranks = _ranks(-utilities)
            assert ranks.dtype == np.min_scalar_type(math.factorial(m) - 1)
            assert np.array_equal(ranks, _ranks(positions))
            assert np.array_equal(rows[ranks], positions)


def _assert_same_arrays(profile, reference):
    """Equal position bytes, dtype, row order and weights, to the bit."""
    assert profile.ids == reference.ids
    positions, weights = profile.position_matrix()
    expected_positions, expected_weights = reference.position_matrix()
    assert positions.dtype == expected_positions.dtype == np.uint8
    assert positions.tobytes() == expected_positions.tobytes()
    assert positions.shape == expected_positions.shape
    assert weights.tobytes() == expected_weights.tobytes()


@pytest.mark.parametrize("m", [*range(1, 13), 16])
@pytest.mark.parametrize("family", ["tm", "pl"])
def test_estimate_profile_arrays_equal_the_sorting_builder(family, m):
    for seed in range(3):
        alts, beta, _ = _seeded_instance(500 + 10 * m + seed, m)
        spec = ProcessSpec(family, beta)
        profile = estimate_profile(spec, alts, 2_000, np.random.default_rng(seed))
        reference = sorted_estimate_profile(
            spec, alts, 2_000, np.random.default_rng(seed)
        )
        _assert_same_arrays(profile, reference)


@pytest.mark.parametrize("m", [9, 10, 16])
def test_estimate_profile_ranks_wide_sets_by_the_draws_tie_rule(m, monkeypatch):
    # Past 8 alternatives each draw is ranked by sorting, not by its rank.
    rng = np.random.default_rng(800 + m)
    alts, beta, _ = _seeded_instance(800 + m, m)
    ids = tuple(sorted(a.id for a in alts))
    for n in (1, 7, 1000):
        for utilities in _tie_heavy_utilities(rng, n, m):
            monkeypatch.setattr(
                processes, "_draw_utilities", lambda *args: utilities.copy()
            )
            profile = estimate_profile(ProcessSpec("pl", beta), alts, n, rng)
            rows, counts = np.unique(
                _stable_orders(utilities), axis=0, return_counts=True
            )
            _assert_same_arrays(
                profile, AnonymousProfile.from_orders(ids, rows, counts / n)
            )


@pytest.mark.parametrize("m", range(1, 9))
def test_exact_profile_arrays_equal_the_permutations_builder(m):
    alts, beta, _ = _seeded_instance(600 + m, m)
    families = ("pl", "tm") if m <= 2 else ("pl",)
    for family in families:
        spec = ProcessSpec(family, beta)
        reference = permutations_exact_profile(spec, alts)
        _assert_same_arrays(exact_profile(spec, alts), reference)
    # Utility spreads past 745, where exp underflows and rows drop.
    for spread in (300.0, 800.0, 2000.0):
        alts = scalar_alts(np.linspace(0.0, spread, m)[::-1])
        spec = ProcessSpec("pl", (1.0,))
        profile = exact_profile(spec, alts)
        _assert_same_arrays(profile, permutations_exact_profile(spec, alts))
        if spread > 745 and m > 1:
            assert len(profile.position_matrix()[1]) < math.factorial(m)
