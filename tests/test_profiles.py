import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fsum_pairwise_supports,
    prefers,
    restrict_ranking,
    swap_dominance_by_scan,
    swap_ranking,
    total_preorder,
)

from prefvote import profiles as profiles_module
from prefvote.processes import ProcessSpec, estimate_profile, exact_profile
from prefvote.profiles import (
    _LIMB_ROWS,
    _LIMB_TOP,
    Alternative,
    AnonymousProfile,
    Ranking,
    _exact_sums,
    _permutation_rows,
    _ranks,
    _row_keys,
    _split,
    _swap_table,
    marginalize_profile,
    swap_dominates,
)


def test_ranking_basics():
    r = Ranking.from_string("b > a > c")
    assert r.order == ("b", "a", "c")
    assert r.to_string() == "b>a>c"
    assert len(r) == 3


def test_ranking_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Ranking(("a", "b", "a"))
    with pytest.raises(ValueError):
        Ranking(())


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


def test_alternative_refuses_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="'a' features must be finite"):
        Alternative("a", (10**400,))


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
    assert p.support[r1] == 1.0
    assert r2 not in p.support
    assert p.alternatives == frozenset({"a", "b"})


def test_marginalize_bloc_profile(bloc_profile):
    marg = marginalize_profile(bloc_profile, {"w", "x", "y"})
    assert marg.support[Ranking.from_string("x>y>w")] == 0.5
    assert marg.support[Ranking.from_string("y>w>x")] == 0.5
    # marginalizing to the full set is the identity
    assert marginalize_profile(bloc_profile, bloc_profile.alternatives) == bloc_profile


def test_marginalize_merges_rankings(split_majority_profile):
    marg = marginalize_profile(split_majority_profile, {"a", "b"})
    assert marg.support[Ranking.from_string("a>b")] == pytest.approx(0.55, abs=1e-12)
    assert marg.support[Ranking.from_string("b>a")] == pytest.approx(0.45, abs=1e-12)


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
    is_total, is_transitive, relation = total_preorder(split_majority_profile)
    assert is_total and is_transitive
    strict = {(a, b) for a, b in relation if a != b}
    assert strict == {("a", "b"), ("b", "c"), ("a", "c")}


def test_preorder_incomparable_pair(bloc_profile):
    # the two bloc leaders x and y do not dominate each other
    is_total, _, relation = total_preorder(bloc_profile)
    assert not is_total
    assert ("x", "y") not in relation
    assert ("y", "x") not in relation


def test_preorder_single_ranking_is_chain():
    p = AnonymousProfile({Ranking.from_string("c>a>b"): 1.0})
    is_total, is_transitive, relation = total_preorder(p)
    assert is_total and is_transitive
    assert ("c", "a") in relation and ("a", "b") in relation
    assert ("b", "c") not in relation


def brute_force_swap_dominates(profile, a, b):
    """Oracle: scan every ranking of the alternative set."""
    weight = profile.support
    for perm in itertools.permutations(sorted(profile.alternatives)):
        ranking = Ranking(perm)
        if prefers(ranking, a, b):
            swapped = swap_ranking(ranking, a, b)
            if weight.get(ranking, 0.0) < weight.get(swapped, 0.0):
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
        gap = direct.support.get(ranking, 0.0) - staged.support.get(ranking, 0.0)
        assert abs(gap) <= 1e-12


@given(profiles(symmetrize_in=True))
@settings(max_examples=100, deadline=None)
def test_mutual_dominance_iff_swap_invariant(profile):
    weight = profile.support
    for a, b in itertools.combinations(sorted(profile.alternatives), 2):
        mutual = swap_dominates(profile, a, b) and swap_dominates(profile, b, a)
        invariant = all(
            w == weight.get(swap_ranking(r, a, b), 0.0) for r, w in weight.items()
        )
        assert mutual == invariant


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


def _swap_rich_profile(rng, m):
    """Swap images of a base ranking and of each other, plus strangers,
    made symmetric in x00 and x01.

    Each ranking and its x00/x01 swap image weigh the same, so x00 and
    x01 dominate each other only because an image of equal weight
    passes.  The other weights repeat from a short list, and the
    strangers' images mostly lie outside the support.
    """
    ids = [f"x{k:02d}" for k in range(m)]
    base = list(rng.permutation(ids))
    support = {Ranking(tuple(base)): 0.3}
    for _ in range(12):
        order = list(rng.choice(list(support)).order)
        i, j = rng.choice(m, size=2, replace=False)
        order[i], order[j] = order[j], order[i]
        support[Ranking(tuple(order))] = float(rng.choice([0.3, 0.2, 0.1]))
    for _ in range(3):
        support[Ranking(tuple(rng.permutation(ids)))] = 0.2
    symmetric = {}
    for ranking, weight in support.items():
        for r in (ranking, swap_ranking(ranking, "x00", "x01")):
            symmetric[r] = symmetric.get(r, 0.0) + weight / 2
    total = sum(symmetric.values())
    return AnonymousProfile({r: w / total for r, w in symmetric.items()})


def test_dominance_on_sixteen_alternatives_matches_candidate_scan():
    profile = _swap_rich_profile(np.random.default_rng(16), 16)
    assert len(profile.ids) == 16
    assert (profile.dominance_matrix() == swap_dominance_by_scan(profile)).all()


@pytest.mark.parametrize("m", [7, 8, 9, 10])
def test_dominance_matches_support_scan_across_the_key_width(m):
    # Up to 8 positions a swap image is found by its rank, wider ones by
    # searching the sorted row keys.
    rng = np.random.default_rng(90 + m)
    swap_rich = _swap_rich_profile(rng, m)
    weight = swap_rich.support
    assert any(
        swap_ranking(r, r.order[i], r.order[j]) not in weight
        for r in weight
        for i, j in itertools.combinations(range(m), 2)
    )
    relation = swap_rich.dominance_matrix()
    assert relation[0, 1] and relation[1, 0]  # through images of equal weight
    alts = [
        Alternative(id=f"x{k:02d}", features=(3.0 * k, rng.standard_normal()))
        for k in range(m)
    ]
    # Utility gaps of about 3, three standard deviations of a pair's noise
    # difference: mostly the mode ranking and near swaps of it, so some
    # pairs dominate and some do not.
    sampled = estimate_profile(ProcessSpec("tm", (1.0, 0.3)), alts, 400, rng)
    for profile in (swap_rich, sampled):
        relation = profile.dominance_matrix()
        off_diagonal = relation[~np.eye(m, dtype=bool)]
        assert off_diagonal.any() and not off_diagonal.all()
        assert (relation == swap_dominance_by_scan(profile)).all()


@pytest.mark.parametrize("m", [7, 8])
def test_dominance_on_exact_profiles_follows_mode_utility(m):
    # 5,040 and 40,320 rows: the swap images are looked up over several
    # passes of column pairs.
    mus = np.random.default_rng(70 + m).normal(0.0, 1.0, m)
    alts = [Alternative(id=f"x{k}", features=(mu,)) for k, mu in enumerate(mus)]
    profile = exact_profile(ProcessSpec("pl", (1.0,)), alts)
    assert (profile.dominance_matrix() == (mus[:, None] >= mus[None, :])).all()


@pytest.mark.parametrize("m", range(1, 17))
def test_row_keys_are_integers_in_byte_order(m):
    rng = np.random.default_rng(80 + m)
    rows = rng.integers(0, 256, size=(400, m), dtype=np.uint8)
    rows[::5] = rows[0]
    rows[1::5, 0] = rows[0, 0]
    keys = _row_keys(rows)
    by_bytes = sorted(range(len(rows)), key=lambda r: rows[r].tobytes())
    assert np.argsort(keys, kind="stable").tolist() == by_bytes
    assert len(set(keys.tolist())) == len({row.tobytes() for row in rows})


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
    [
        (math.nan, "non-finite"),
        (math.inf, "non-finite"),
        (-math.inf, "negative"),
        # integers past the float range
        pytest.param(10**400, "non-finite weight inf", id="huge-non-finite"),
        pytest.param(-10**400, "negative weight -inf", id="huge-negative"),
    ],
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
            assert abs(marginal.support[ranking] - weight) <= 1e-15


def test_marginalize_refuses_a_string_subset():
    # A string is an iterable of its characters: "cd" used to marginalize
    # onto {"c", "d"}, and "ab" over ids ab, c, d failed as ['a', 'b'].
    profile = AnonymousProfile(
        {Ranking(("ab", "c", "d")): 0.5, Ranking(("d", "c", "ab")): 0.5}
    )
    for subset in ("cd", "ab", ""):
        with pytest.raises(ValueError, match="collection of alternative ids"):
            marginalize_profile(profile, subset)
    assert marginalize_profile(profile, ["ab"]).ids == ("ab",)
    with pytest.raises(ValueError, match="nonempty"):
        marginalize_profile(profile, [])


def test_profile_refuses_weights_that_are_not_reals():
    a_b = Ranking(("a", "b"))
    for bad in ("1", True, b"1", np.bool_(True), None, 1 + 0j):
        with pytest.raises(ValueError, match=r"weight on 'a>b' must be a real"):
            AnonymousProfile({a_b: bad})
    for bad in (
        ["1"], [True], np.array([True]), [b"1"], [1 + 0j], np.array(["1"], dtype=object)
    ):
        with pytest.raises(ValueError, match="weights must be reals"):
            AnonymousProfile.from_orders(("a", "b"), [[0, 1]], bad)
    # Integer, numpy and object arrays of reals still pass.
    expected = AnonymousProfile({a_b: 1.0})
    for good in (
        [1], np.array([1], dtype=np.int8), [np.float32(1)], np.array([1.0], dtype=object)
    ):
        assert AnonymousProfile.from_orders(("a", "b"), [[0, 1]], good) == expected
    assert AnonymousProfile({a_b: np.float64(1.0)}) == AnonymousProfile({a_b: 1})


def test_profile_keeps_only_its_most_recent_marginal(bloc_profile):
    first = marginalize_profile(bloc_profile, {"w", "x", "y"})
    assert marginalize_profile(bloc_profile, ["y", "x", "w"]) is first
    second = marginalize_profile(bloc_profile, {"u", "v"})
    assert second is not first and second.ids == ("u", "v")
    assert bloc_profile._memo["marginal"] == {frozenset({"u", "v"}): second}
    again = marginalize_profile(bloc_profile, {"w", "x", "y"})
    assert again is not first and again == first
    assert list(bloc_profile._memo["marginal"].values()) == [again]


# The exact summation kernel: every sum is the float math.fsum returns.


def _hex(values):
    return [float(v).hex() for v in values]


def _adversarial_sets(rng, n_terms):
    """Seven sets of ``n_terms`` terms, one per row, each stressing exact rounding."""
    half = rng.standard_normal(n_terms // 2)
    sets = [
        rng.uniform(0.0, 1.0, n_terms) * 5e-324 * rng.integers(1, 2**20, n_terms),
        10.0 ** rng.uniform(-300, 0, n_terms),
        rng.standard_normal(n_terms) * 10.0 ** rng.integers(-300, 300, n_terms),
        rng.uniform(-1.0, 1.0, n_terms) * 10.0 ** rng.integers(-320, -290, n_terms),
        rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-54, 3 * 2.0**-54], n_terms),
        np.where(np.arange(n_terms) < n_terms // 2, -1e300, 1e300),
        np.concatenate([half, -half, rng.standard_normal(n_terms % 2) * 1e-30]),
    ]
    return np.array(sets)[:, rng.permutation(n_terms)]


@pytest.mark.parametrize("n_terms", [1, 2, _LIMB_ROWS - 1, _LIMB_ROWS, 200, 3000])
def test_exact_sums_equal_fsum_bit_for_bit(n_terms):
    rng = np.random.default_rng(n_terms)
    for trial in range(40):
        values = _adversarial_sets(rng, n_terms)
        limbs = _split(values)
        # Two sets reach 1e300 in magnitude, past the limbs' range: their
        # sums, like those of fewer terms than _LIMB_ROWS, take fsum.
        assert (limbs is None) == (
            n_terms < _LIMB_ROWS or np.abs(values).max() >= 2.0**_LIMB_TOP
        )
        expected = [math.fsum(row) for row in values.tolist()]
        assert _hex(_exact_sums(values, limbs)) == _hex(expected), trial
        in_range = values[np.abs(values).max(axis=1) < 2.0**_LIMB_TOP]
        if n_terms >= _LIMB_ROWS:
            assert _split(in_range) is not None
        expected = [math.fsum(row) for row in in_range.tolist()]
        assert _hex(_exact_sums(in_range, _split(in_range))) == _hex(expected), trial
        vector = values[trial % 7]
        masks = rng.random((5, n_terms)) < np.array([[0.0, 0.1, 0.5, 0.9, 1.0]]).T
        expected = [math.fsum(vector[mask].tolist()) for mask in masks]
        assert _hex(_exact_sums(vector, _split(vector), masks)) == _hex(expected)
        starts = sorted({0, *np.flatnonzero(rng.random(n_terms) < 0.2).tolist()})
        ends = [*starts[1:], n_terms]
        expected = [math.fsum(vector[lo:hi].tolist()) for lo, hi in zip(starts, ends)]
        got = _exact_sums(vector, _split(vector), starts=starts)
        assert _hex(got) == _hex(expected)


def test_exact_sums_round_half_ulp_ties_to_even():
    # 1 + 2**-53 and 1 + 3 * 2**-53 lie halfway between neighbouring
    # floats; the even neighbour wins unless a tiny term breaks the tie.
    padding = [0.0] * _LIMB_ROWS
    cases = {
        (1.0, 2.0**-53): 1.0,
        (1.0 + 2.0**-52, 2.0**-53): 1.0 + 2.0**-51,
        (1.0, 2.0**-53, 2.0**-300): 1.0 + 2.0**-52,
        (1.0, 2.0**-53, -(2.0**-300)): 1.0,
        (2.0**100, 2.0**47, -(2.0**-900)): 2.0**100,
        (2.0**100, 2.0**47, 2.0**-900): 2.0**100 + 2.0**48,
    }
    for terms, expected in cases.items():
        values = np.array([*terms, *padding])
        assert math.fsum(values.tolist()) == expected
        assert _exact_sums(values, _split(values))[0].hex() == expected.hex()


@pytest.mark.parametrize("n_rows", [3, _LIMB_ROWS - 1, _LIMB_ROWS, 500])
def test_profile_sums_equal_fsum_oracles_on_subnormal_and_tiny_weights(n_rows):
    rng = np.random.default_rng(7 + n_rows)
    m = 6
    orders = np.array([rng.permutation(m) for _ in range(n_rows)])
    for scale in ("subnormal", "wide"):
        if scale == "subnormal":
            tiny = 5e-324 * rng.integers(1, 2**30, n_rows - 1)
        else:
            tiny = 10.0 ** rng.uniform(-300, 0, n_rows - 1) / n_rows
        weights = np.r_[tiny, 1.0 - math.fsum(tiny.tolist())]
        ids = tuple("abcdef")
        profile = AnonymousProfile.from_orders(ids, orders, weights)
        expected = fsum_pairwise_supports(profile)
        assert _hex(profile.pairwise_matrix().ravel()) == _hex(expected.ravel())
        # Equal rows merged by from_orders sum like math.fsum, in any order.
        positions, kept = profile.position_matrix()
        rows = [tuple(np.argsort(row)) for row in positions]
        groups = {}
        for order, weight in zip(map(tuple, orders.tolist()), weights.tolist()):
            groups.setdefault(order, []).append(weight)
        total = math.fsum(weights.tolist())
        merged = [math.fsum(groups[row]) for row in rows]
        if total != 1.0:
            merged = [w / total for w in merged]
        assert _hex(kept) == _hex(merged)


@pytest.mark.parametrize("m", range(2, 9))
def test_exact_pl_profiles_sum_like_fsum(m):
    rng = np.random.default_rng(40 + m)
    mus = rng.normal(0.0, 2.0, m).tolist()
    alts = [Alternative(f"x{k}", (mu,)) for k, mu in enumerate(mus)]
    profile = exact_profile(ProcessSpec("pl", (1.0,)), alts)
    positions, weights = profile.position_matrix()
    assert len(weights) == math.factorial(m)
    expected = fsum_pairwise_supports(profile)
    assert _hex(profile.pairwise_matrix().ravel()) == _hex(expected.ravel())
    for k in range(1, m + 1):
        masks = (positions < k).T
        expected = [math.fsum(weights[mask].tolist()) for mask in masks]
        assert _hex(profile._weight_sums(masks)) == _hex(expected)


# Swap images by rank, up to 8 alternatives.


@pytest.mark.parametrize("m", range(1, 9))
def test_ranks_order_rows_as_their_keys_do(m):
    rows = _permutation_rows(m)
    assert not rows.flags.writeable and _permutation_rows(m) is rows
    assert _ranks(rows).tolist() == list(range(math.factorial(m)))
    rng = np.random.default_rng(60 + m)
    sample = rows[rng.integers(0, len(rows), 300)]
    order = np.argsort(_row_keys(sample), kind="stable")
    assert np.array_equal(np.argsort(_ranks(sample), kind="stable"), order)


@pytest.mark.parametrize("m", range(2, 9))
def test_swap_table_holds_the_rank_of_each_swap_image(m):
    table = _swap_table(m)
    rows = _permutation_rows(m)
    pairs = list(zip(*np.triu_indices(m, 1)))
    assert table.shape == (len(pairs), math.factorial(m)) and not table.flags.writeable
    assert table.dtype == np.min_scalar_type(math.factorial(m) - 1)
    rng = np.random.default_rng(m)
    for rank in rng.integers(0, len(rows), 20).tolist():
        for p, (i, j) in enumerate(pairs):
            image = rows[rank].copy()
            image[[i, j]] = image[[j, i]]
            assert rows[table[p, rank]].tolist() == image.tolist()
    if m == 8:
        assert table.nbytes == 28 * 40_320 * 2  # about 2.3 MB


@pytest.mark.parametrize("m", range(2, 9))
def test_rank_lookup_dominance_matches_scan_with_missing_images(m):
    rng = np.random.default_rng(100 + m)
    # Utility gaps of 2.1, two standard deviations of a pair's noise
    # difference: near the mode ranking, with many images never drawn.
    alts = [Alternative(f"x{k}", (3.0 * k,)) for k in range(m)]
    spec = ProcessSpec("tm", (0.7,))
    cases = [estimate_profile(spec, alts, 12, rng) for _ in range(3)]
    if m > 2:
        cases += [_swap_rich_profile(rng, m) for _ in range(2)]
    missing = 0
    for profile in cases:
        weight = profile.support
        missing += sum(
            swap_ranking(r, r.order[i], r.order[j]) not in weight
            for r in weight
            for i, j in itertools.combinations(range(m), 2)
        )
        assert (profile.dominance_matrix() == swap_dominance_by_scan(profile)).all()
    assert missing


@pytest.mark.parametrize("m", [9, 16])
def test_wide_rows_search_their_keys(monkeypatch, m):
    def refuse(width):
        raise AssertionError(f"a swap table for m={width}")

    monkeypatch.setattr(profiles_module, "_swap_table", refuse)
    profile = _swap_rich_profile(np.random.default_rng(200 + m), m)
    assert (profile.dominance_matrix() == swap_dominance_by_scan(profile)).all()


def test_each_swap_table_is_built_once():
    _swap_table.cache_clear()
    rng = np.random.default_rng(5)
    for m in (4, 6, 4, 6, 6):
        _swap_rich_profile(rng, m).dominance_matrix()
    info = _swap_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
