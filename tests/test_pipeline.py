import math

import numpy as np
import pytest
from oracles import gaussian_kl

from prefvote.pipeline import (
    SummaryModel,
    as_population,
    decide,
    summarize,
)
from prefvote.processes import ProcessSpec, exact_profile
from prefvote.profiles import Alternative
from prefvote.scc import SCC_KINDS, apply_scc

def alt(name, *features):
    return Alternative(id=name, features=tuple(features))


def test_summarize_means_and_validates():
    model = summarize([np.array([1.0, 3.0]), np.array([3.0, 5.0])])
    assert model.beta_hat == pytest.approx([2.0, 4.0])
    assert model.n_voters == 2
    assert model.dim == 2
    from_array = summarize(np.array([[1.0, 3.0], [3.0, 5.0]]))
    assert np.array_equal(from_array.beta_hat, model.beta_hat)
    assert from_array.n_voters == 2
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError, match="nonempty"):
        summarize(np.empty((0, 3)))
    with pytest.raises(ValueError, match="dimension"):
        summarize([np.ones(2), np.ones(3)])
    for empty in (np.empty((3, 0)), [[], []]):
        with pytest.raises(ValueError, match="at least one feature"):
            summarize(empty)


def test_summary_model_validation():
    with pytest.raises(ValueError):
        SummaryModel(beta_hat=np.ones((2, 2)), n_voters=1)
    with pytest.raises(ValueError):
        SummaryModel(beta_hat=np.ones(2), n_voters=0)
    with pytest.raises(ValueError, match="at least one feature"):
        SummaryModel(beta_hat=np.empty(0), n_voters=2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            SummaryModel(beta_hat=np.array([bad, 1.0]), n_voters=1)


@pytest.mark.parametrize("n_voters", [1.5, True, 2.0, "3"])
def test_summary_model_refuses_non_integer_voter_counts(n_voters):
    # n_voters=1.5 used to construct, and save_summary_model then wrote a
    # file that load_summary_model refuses.
    with pytest.raises(ValueError, match="n_voters must be an integer"):
        SummaryModel(beta_hat=np.ones(2), n_voters=n_voters)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_populations_rejected(bad):
    # summarize([[nan, 0], [1, 2]]) used to give beta_hat [nan, 1], after
    # which decide silently returned the first id.
    with pytest.raises(ValueError, match="finite"):
        as_population([[bad, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        summarize(np.array([[1.0, 2.0], [0.0, bad]]))


def test_gaussian_kl_basics():
    assert gaussian_kl(0.3, 1.2, 0.3, 1.2) == 0.0
    # closed form for equal means, var 1/(2N) against var 1/2 at N=20
    n = 20
    value = gaussian_kl(0.0, 1 / (2 * n), 0.0, 0.5)
    assert value == pytest.approx(0.5 * (math.log(n) + 1 / n - 1), rel=1e-12)
    assert gaussian_kl(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gaussian_kl(0.0, 0.0, 0.0, 1.0)


def test_mean_minimizes_kl_against_population():
    # a uniformly drawn voter's noisy utility at x is a Gaussian mixture;
    # matching it with one Normal(b . x, 1/2) per alternative, the mean
    # of the population weight vectors minimizes the summed divergence.
    rng = np.random.default_rng(14)
    n_voters, d = 12, 4
    betas = rng.normal(0, 1, (n_voters, d))
    mean_beta = betas.mean(axis=0)
    xs = rng.normal(0, 1, (6, d))

    def mixture_kl(candidate):
        total = 0.0
        for x in xs:
            locs = betas @ x
            target = candidate @ x
            # KL(mixture component avg) decomposes per voter against one
            # normal with the same variance: mean squared location gap
            total += float(np.mean((locs - target) ** 2))
        return total

    base = mixture_kl(mean_beta)
    for _ in range(100):
        perturbed = mean_beta + rng.uniform(-1, 1, d)
        assert mixture_kl(perturbed) >= base - 1e-12


def test_decide_picks_max_utility():
    model = SummaryModel(beta_hat=np.array([1.0, -1.0]), n_voters=3)
    alts = [alt("a", 0.5, 0.0), alt("b", 2.0, 0.5), alt("c", -1.0, -3.0)]
    assert decide(model, alts).id == "c"  # utilities: a 0.5, b 1.5, c 2.0
    assert decide(model, alts[:1]).id == "a"
    with pytest.raises(ValueError):
        decide(model, [])
    with pytest.raises(ValueError, match="unique"):
        decide(model, [alt("a", 1.0, 0.0), alt("a", 0.0, 0.0)])
    # finite features and weights can still overflow to a non-finite utility
    huge = SummaryModel(beta_hat=np.array([1e300, 1e300]), n_voters=1)
    with pytest.raises(ValueError, match="'z' has non-finite utility"):
        decide(huge, [alt("c", -1.0, -1.0), alt("z", 1e300, 1e300)])


def test_decide_breaks_ties_lexicographically():
    model = SummaryModel(beta_hat=np.zeros(2), n_voters=1)
    alts = [alt("m", 3.0, 1.0), alt("b", -2.0, 0.5), alt("z", 0.0, 0.0)]
    assert decide(model, alts).id == "b"
    mirrored = SummaryModel(beta_hat=np.array([1.0, 0.0]), n_voters=1)
    assert decide(mirrored, [alt("q", 2.0, 9.9), alt("k", 2.0, -1.0)]).id == "k"


def test_non_finite_features_rejected_before_decide():
    # a NaN utility never compares greater, so a NaN-featured alternative
    # listed first used to win; Alternative now refuses to exist
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            alt("a", bad, 0.0)


def test_decide_invariant_to_positive_rescaling():
    rng = np.random.default_rng(9)
    for _ in range(20):
        beta = rng.normal(0, 1, 3)
        alts = [alt(f"x{k}", *rng.normal(0, 1, 3)) for k in range(4)]
        base = decide(SummaryModel(beta_hat=beta, n_voters=1), alts)
        scaled = decide(SummaryModel(beta_hat=7.5 * beta, n_voters=1), alts)
        assert base.id == scaled.id


def test_decide_stable_under_dropping_losers():
    rng = np.random.default_rng(28)
    for _ in range(20):
        beta = rng.normal(0, 1, 3)
        model = SummaryModel(beta_hat=beta, n_voters=1)
        alts = [alt(f"x{k}", *rng.normal(0, 1, 3)) for k in range(5)]
        winner = decide(model, alts)
        keep = [a for a in alts if a.id != "x3"]
        if winner.id != "x3":
            assert decide(model, keep).id == winner.id


def test_decide_agrees_with_every_scc_on_summary_profile():
    # mode-utility argmax must sit in each rule's winner set over the
    # summary process's exact ranking distribution
    rng = np.random.default_rng(3)
    for _ in range(15):
        beta = rng.normal(0, 1, 2)
        model = SummaryModel(beta_hat=beta, n_voters=4)
        alts = [alt(f"x{k}", *rng.normal(0, 1.2, 2)) for k in range(4)]
        chosen = decide(model, alts)
        spec = ProcessSpec(family="pl", beta=tuple(beta))
        profile = exact_profile(spec, alts)
        for kind in SCC_KINDS:
            assert chosen.id in apply_scc(kind, profile)

