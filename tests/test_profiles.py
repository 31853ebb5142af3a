import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefvote.processes import ProcessSpec, estimate_profile, exact_profile
from prefvote.profiles import (
    Alternative,
    AnonymousProfile,
    Ranking,
    check_total_preorder,
    marginalize_profile,
    restrict_ranking,
    swap_dominates,
    swap_ranking,
)


def test_ranking_basics():
    r = Ranking.from_string("b > a > c")
    assert r.order == ("b", "a", "c")
    assert r.position("b") == 1
    assert r.position("c") == 3
    assert r.prefers("b", "c")
    assert not r.prefers("c", "a")
    assert r.to_string() == "b>a>c"
    assert len(r) == 3


def test_ranking_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Ranking(("a", "b", "a"))
    with pytest.raises(ValueError):
        Ranking(())
    with pytest.raises(KeyError):
        Ranking(("a", "b")).position("z")


def test_ranking_refuses_a_string_order():
    # a string would be read as one id per character
    with pytest.raises(ValueError, match="Ranking.from_string"):
        Ranking("abc")
    with pytest.raises(ValueError, match="Ranking.from_string"):
        Ranking("a>b")


@pytest.mark.parametrize("features", ["12", 5])
def test_alternative_refuses_string_and_scalar_features(features):
    # "12" would be read as the features (1.0, 2.0)
    with pytest.raises(ValueError, match="1-dimensional array of reals"):
        Alternative("a", features)


def test_alternative_refuses_a_non_string_id():
    # an int id would break the id sort that every tie-break relies on
    with pytest.raises(ValueError, match="nonempty string, got 5"):
        Alternative(5, (1.0,))
    with pytest.raises(ValueError, match="nonempty string"):
        Alternative("", (1.0,))


def test_alternative_features_keep_their_bits():
    values = np.array([0.1, -5e-324, 1e308, -0.0])
    alt = Alternative("a", values)
    assert all(type(v) is float for v in alt.features)
    assert np.array(alt.features).tobytes() == values.tobytes()


def test_profile_validation():
    r1 = Ranking.from_string("a>b")
    r2 = Ranking.from_string("b>a")
    with pytest.raises(ValueError, match="sum"):
        AnonymousProfile({r1: 0.6, r2: 0.6})
    with pytest.raises(ValueError, match="negative"):
        AnonymousProfile({r1: 1.5, r2: -0.5})
    with pytest.raises(ValueError, match="cover"):
        AnonymousProfile({r1: 0.5, Ranking.from_string("a>c"): 0.5})
    with pytest.raises(ValueError):
        AnonymousProfile({})


def test_profile_normalizes_and_drops_zeros():
    r1 = Ranking.from_string("a>b")
    r2 = Ranking.from_string("b>a")
    p = AnonymousProfile({r1: 1.0 - 4e-10, r2: 0.0})
    assert p.weight(r1) == 1.0
    assert r2 not in p.support
    assert p.alternatives == frozenset({"a", "b"})


def test_restrict_ranking():
    r = Ranking.from_string("x>u>v>y>w")
    assert restrict_ranking(r, {"w", "x", "y"}).order == ("x", "y", "w")
    with pytest.raises(ValueError):
        restrict_ranking(r, {"x", "zz"})
    with pytest.raises(ValueError):
        restrict_ranking(r, set())


def test_swap_ranking_identity_and_swap():
    r = Ranking.from_string("a>b>c")
    assert swap_ranking(r, "a", "a") == r
    assert swap_ranking(r, "a", "c").order == ("c", "b", "a")
    assert swap_ranking(swap_ranking(r, "a", "b"), "a", "b") == r
    with pytest.raises(ValueError):
        swap_ranking(r, "a", "z")


def test_marginalize_bloc_profile(bloc_profile):
    marg = marginalize_profile(bloc_profile, {"w", "x", "y"})
    assert marg.weight(Ranking.from_string("x>y>w")) == 0.5
    assert marg.weight(Ranking.from_string("y>w>x")) == 0.5
    # marginalizing to the full set is the identity
    assert marginalize_profile(bloc_profile, bloc_profile.alternatives) == bloc_profile


def test_marginalize_merges_rankings(split_majority_profile):
    marg = marginalize_profile(split_majority_profile, {"a", "b"})
    assert marg.weight(Ranking.from_string("a>b")) == pytest.approx(0.55, abs=1e-12)
    assert marg.weight(Ranking.from_string("b>a")) == pytest.approx(0.45, abs=1e-12)


def test_swap_dominance_golden(split_majority_profile):
    p = split_majority_profile
    assert swap_dominates(p, "a", "b")
    assert swap_dominates(p, "b", "c")
    assert swap_dominates(p, "a", "c")
    assert not swap_dominates(p, "b", "a")
    assert not swap_dominates(p, "c", "b")
    assert not swap_dominates(p, "c", "a")
    with pytest.raises(ValueError):
        swap_dominates(p, "a", "a")
    with pytest.raises(ValueError):
        swap_dominates(p, "a", "zz")


def test_preorder_report_golden(split_majority_profile):
    report = check_total_preorder(split_majority_profile)
    assert report.is_total_preorder
    assert report.is_total and report.is_transitive
    strict = {(a, b) for a, b in report.relation if a != b}
    assert strict == {("a", "b"), ("b", "c"), ("a", "c")}


def test_preorder_incomparable_pair(bloc_profile):
    # the two bloc leaders x and y do not dominate each other
    report = check_total_preorder(bloc_profile)
    assert not report.is_total
    assert not report.is_total_preorder
    assert ("x", "y") not in report.relation
    assert ("y", "x") not in report.relation


def test_preorder_single_ranking_is_chain():
    p = AnonymousProfile({Ranking.from_string("c>a>b"): 1.0})
    report = check_total_preorder(p)
    assert report.is_total_preorder
    assert ("c", "a") in report.relation and ("a", "b") in report.relation
    assert ("b", "c") not in report.relation


def brute_force_swap_dominates(profile, a, b):
    """Oracle: scan every ranking of the alternative set."""
    for perm in itertools.permutations(sorted(profile.alternatives)):
        ranking = Ranking(perm)
        if ranking.prefers(a, b):
            swapped = swap_ranking(ranking, a, b)
            if profile.weight(ranking) < profile.weight(swapped):
                return False
    return True


@st.composite
def profiles(draw, min_m=2, max_m=4, symmetrize_in=None):
    m = draw(st.integers(min_m, max_m))
    ids = tuple("abcde"[:m])
    perms = draw(
        st.lists(
            st.permutations(ids), min_size=1, max_size=6, unique_by=tuple
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=len(perms),
            max_size=len(perms),
        )
    )
    support = {}
    for perm, w in zip(perms, weights):
        support[Ranking(tuple(perm))] = support.get(Ranking(tuple(perm)), 0.0) + w
    if symmetrize_in is not None and draw(st.booleans()):
        a, b = draw(st.sampled_from(list(itertools.combinations(ids, 2))))
        halved = {}
        for ranking, w in support.items():
            halved[ranking] = halved.get(ranking, 0.0) + w / 2
            image = swap_ranking(ranking, a, b)
            halved[image] = halved.get(image, 0.0) + w / 2
        support = halved
    total = sum(support.values())
    return AnonymousProfile({r: w / total for r, w in support.items()})


@given(profiles())
@settings(max_examples=150, deadline=None)
def test_swap_dominance_matches_brute_force(profile):
    for a, b in itertools.permutations(sorted(profile.alternatives), 2):
        assert swap_dominates(profile, a, b) == brute_force_swap_dominates(
            profile, a, b
        )


def test_swap_dominance_brute_force_five_alternatives(bloc_profile):
    for a, b in itertools.permutations(sorted(bloc_profile.alternatives), 2):
        assert swap_dominates(bloc_profile, a, b) == brute_force_swap_dominates(
            bloc_profile, a, b
        )


@given(profiles(min_m=3, max_m=4), st.data())
@settings(max_examples=100, deadline=None)
def test_marginalization_tower(profile, data):
    alts = sorted(profile.alternatives)
    mid = data.draw(
        st.sets(st.sampled_from(alts), min_size=2, max_size=len(alts))
    )
    inner = data.draw(st.sets(st.sampled_from(sorted(mid)), min_size=1, max_size=2))
    direct = marginalize_profile(profile, inner)
    staged = marginalize_profile(marginalize_profile(profile, mid), inner)
    assert direct.alternatives == staged.alternatives
    for ranking in set(direct.support) | set(staged.support):
        assert abs(direct.weight(ranking) - staged.weight(ranking)) <= 1e-12


@given(profiles(symmetrize_in=True))
@settings(max_examples=100, deadline=None)
def test_mutual_dominance_iff_swap_invariant(profile):
    for a, b in itertools.combinations(sorted(profile.alternatives), 2):
        mutual = swap_dominates(profile, a, b) and swap_dominates(profile, b, a)
        invariant = all(
            profile.weight(r) == profile.weight(swap_ranking(r, a, b))
            for r in profile.support
        )
        assert mutual == invariant


@given(st.permutations("abcde"), st.data())
@settings(max_examples=100, deadline=None)
def test_restrict_commutes_with_swap(perm, data):
    ranking = Ranking(tuple(perm))
    subset = data.draw(st.sets(st.sampled_from(perm), min_size=2, max_size=4))
    a, b = data.draw(st.sampled_from(list(itertools.permutations(sorted(subset), 2))))
    assert restrict_ranking(swap_ranking(ranking, a, b), subset) == swap_ranking(
        restrict_ranking(ranking, subset), a, b
    )


def candidate_set_swap_dominates(profile, a, b):
    """Reference: the per-call scan over the support and its swap images."""
    candidates = set(profile.support)
    candidates.update(swap_ranking(r, a, b) for r in profile.support)
    for ranking in candidates:
        if ranking.prefers(a, b):
            if profile.weight(ranking) < profile.weight(swap_ranking(ranking, a, b)):
                return False
    return True


def _seeded_profiles():
    rng = np.random.default_rng(41)
    out = []
    for m, tm_samples in ((5, 300), (6, 2_000), (7, 400)):
        alts = [
            Alternative(id="abcdefg"[j], features=tuple(rng.standard_normal(2)))
            for j in range(m)
        ]
        beta = tuple(rng.standard_normal(2))
        if m < 7:
            out.append(exact_profile(ProcessSpec("pl", beta), alts))
        out.append(estimate_profile(ProcessSpec("tm", beta), alts, tm_samples, rng))
    return out


@pytest.mark.parametrize("index", range(5))
def test_dominance_matrix_matches_brute_force(index):
    profile = _seeded_profiles()[index]
    relation = profile.dominance_matrix()
    ids = profile.ids
    for i, j in itertools.permutations(range(len(ids)), 2):
        assert relation[i, j] == brute_force_swap_dominates(profile, ids[i], ids[j])
    assert relation.diagonal().all()


def test_dominance_on_sixteen_alternatives_matches_candidate_scan():
    rng = np.random.default_rng(16)
    ids = [f"x{k:02d}" for k in range(16)]
    base = list(rng.permutation(ids))
    support = {Ranking(tuple(base)): 0.3}
    # swap images of the base ranking and of each other, plus strangers
    for _ in range(12):
        order = list(rng.choice(list(support)).order)
        i, j = rng.choice(16, size=2, replace=False)
        order[i], order[j] = order[j], order[i]
        support[Ranking(tuple(order))] = float(rng.choice([0.3, 0.2, 0.1]))
    for _ in range(3):
        support[Ranking(tuple(rng.permutation(ids)))] = 0.2
    total = sum(support.values())
    profile = AnonymousProfile({r: w / total for r, w in support.items()})
    assert len(profile.ids) == 16
    for a, b in itertools.permutations(ids, 2):
        assert swap_dominates(profile, a, b) == candidate_set_swap_dominates(
            profile, a, b
        )


def test_profile_caches_are_per_object(split_majority_profile):
    relation = split_majority_profile.dominance_matrix()
    assert split_majority_profile.dominance_matrix() is relation
    assert not relation.flags.writeable
    twin = AnonymousProfile(dict(split_majority_profile.support))
    assert twin == split_majority_profile
    assert twin.dominance_matrix() is not relation
    assert (twin.dominance_matrix() == relation).all()
    marginal = marginalize_profile(split_majority_profile, {"b", "c"})
    assert marginal.ids == ("b", "c")
    assert marginal.dominance_matrix().tolist() == [[True, True], [False, True]]
    assert split_majority_profile.dominance_matrix().shape == (3, 3)


@pytest.mark.parametrize(
    "bad, message",
    [(math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "negative")],
)
def test_profile_rejects_non_finite_weights(bad, message):
    # A NaN weight used to pass the weight-sum check and leave rules
    # with an empty winner set.
    a_b, b_a = Ranking.from_string("a>b"), Ranking.from_string("b>a")
    with pytest.raises(ValueError, match=message):
        AnonymousProfile({a_b: bad, b_a: 1.0})
    with pytest.raises(ValueError, match=message):
        AnonymousProfile.from_orders(("a", "b"), [[0, 1], [1, 0]], [bad, 1.0])


def test_from_orders_validation():
    ids = ("a", "b", "c")
    for rows in ([[0, 1, 1]], [[0, 1, 3]], [[-1, 0, 1]]):
        with pytest.raises(ValueError, match="does not rank"):
            AnonymousProfile.from_orders(ids, rows, [1.0])
    for bad_ids in (("b", "a", "c"), ("a", "a", "c"), ("", "b", "c"), ()):
        with pytest.raises(ValueError, match="sorted distinct ids"):
            AnonymousProfile.from_orders(bad_ids, [[0, 1, 2]], [1.0])
    for rows, weights in (
        ([[0.0, 1.0, 2.0]], [1.0]),
        ([[0, 1]], [1.0]),
        ([[0, 1, 2]], [0.5, 0.5]),
        (np.zeros((0, 3), dtype=int), []),
    ):
        with pytest.raises(ValueError, match="integer rows of length 3"):
            AnonymousProfile.from_orders(ids, rows, weights)
    with pytest.raises(ValueError, match="sum"):
        AnonymousProfile.from_orders(ids, [[0, 1, 2]], [0.5])


def test_from_orders_merges_equal_rows_and_drops_zeros():
    profile = AnonymousProfile.from_orders(
        ("a", "b", "c"),
        np.array([[0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 0, 2]]),
        [0.25, 0.5, 0.25, 0.0],
    )
    expected = {Ranking.from_string("a>b>c"): 0.5, Ranking.from_string("c>b>a"): 0.5}
    assert dict(profile.support) == expected
    assert profile == AnonymousProfile(expected)
    positions, weights = profile.position_matrix()
    assert positions.shape == (2, 3) and weights.tolist() == [0.5, 0.5]


def test_profile_equality_ignores_insertion_order(split_majority_profile):
    items = list(split_majority_profile.support.items())
    reordered = AnonymousProfile(dict(reversed(items)))
    assert reordered == split_majority_profile
    assert list(reordered.support) == list(split_majority_profile.support)
    shifted = dict(items)
    shifted[items[0][0]] += 0.05
    shifted[items[1][0]] -= 0.05
    assert AnonymousProfile(shifted) != split_majority_profile


def test_support_view_is_cached_read_only_and_in_key_order(split_majority_profile):
    view = split_majority_profile.support
    assert split_majority_profile.support is view
    with pytest.raises(TypeError):
        view[Ranking.from_string("a>b>c")] = 1.0
    positions, weights = split_majority_profile.position_matrix()
    keys = [row.tobytes() for row in positions]
    assert keys == sorted(keys)
    ids = split_majority_profile.ids
    assert [r.order for r in view] == [
        tuple(ids[j] for j in np.argsort(row)) for row in positions
    ]
    assert list(view.values()) == weights.tolist()


def reference_marginal(profile, subset):
    """Restrict each support ranking and ``fsum`` the weights per image."""
    groups = {}
    for ranking, weight in profile.support.items():
        groups.setdefault(restrict_ranking(ranking, subset), []).append(weight)
    total = math.fsum(profile.support.values())
    return {r: math.fsum(ws) / total for r, ws in groups.items()}


def test_marginals_match_restrict_and_sum():
    rng = np.random.default_rng(29)
    for case in range(24):
        m = 3 + case % 5
        alts = [
            Alternative(id="abcdefg"[j], features=tuple(rng.standard_normal(2)))
            for j in range(m)
        ]
        spec = ProcessSpec("pl" if case % 2 else "tm", tuple(rng.standard_normal(2)))
        if case % 2:
            profile = exact_profile(spec, alts)
        else:
            profile = estimate_profile(spec, alts, 3_000, rng)
        ids = [a.id for a in alts]
        subset = rng.choice(ids, size=int(rng.integers(1, m + 1)), replace=False)
        marginal = marginalize_profile(profile, subset.tolist())
        expected = reference_marginal(profile, subset.tolist())
        assert set(marginal.support) == set(expected)
        for ranking, weight in expected.items():
            assert abs(marginal.weight(ranking) - weight) <= 1e-15


def test_weight_reads_the_arrays_and_agrees_with_support():
    rng = np.random.default_rng(31)
    for case in range(10):
        m = 2 + case % 5
        alts = [
            Alternative(id="abcdefg"[j], features=tuple(rng.standard_normal(2)))
            for j in range(m)
        ]
        spec = ProcessSpec("pl", tuple(rng.standard_normal(2)))
        if case % 2:
            profile, twin = exact_profile(spec, alts), exact_profile(spec, alts)
        else:
            # A few samples leave most rankings outside the support.
            seed = int(rng.integers(1 << 30))
            profile, twin = (
                estimate_profile(spec, alts, 40, np.random.default_rng(seed))
                for _ in range(2)
            )
        support = twin.support
        ids = [a.id for a in alts]
        for order in itertools.permutations(ids):
            ranking = Ranking(order)
            assert profile.weight(ranking) == support.get(ranking, 0.0)
        # Rankings over another alternative set weigh nothing.
        assert profile.weight(Ranking(tuple(ids[:-1]))) == 0.0
        assert profile.weight(Ranking((*ids, "z"))) == 0.0
        assert profile.weight(Ranking(tuple("zyxwvu"[:m]))) == 0.0
        assert profile._support is None
