"""Reference implementations that the tests check the package against.

Each is the plain, definition-level form of something the package
computes from its arrays, or, for the two profile builders at the end,
the earlier sorting implementation whose arrays the package's builders
must still match byte for byte.  None of them is part of the package.
"""

import itertools
import math

import numpy as np

from prefvote.processes import (
    _TINY,
    _draw_utilities,
    _scored_alternatives,
    pairwise_prob,
)
from prefvote.profiles import AnonymousProfile, Ranking


def position(ranking, alt):
    """1-based rank of ``alt`` in ``ranking`` (1 = most preferred)."""
    return ranking.order.index(alt) + 1


def prefers(ranking, a, b):
    """True when ``ranking`` places ``a`` strictly above ``b``."""
    return position(ranking, a) < position(ranking, b)


def restrict_ranking(ranking, subset):
    """Keep only the alternatives in ``subset``, in their order."""
    return Ranking(tuple(alt for alt in ranking.order if alt in subset))


def swap_ranking(ranking, a, b):
    """Exchange the places of ``a`` and ``b``; identity when ``a == b``."""
    return Ranking(
        tuple(b if alt == a else a if alt == b else alt for alt in ranking.order)
    )


def fsum_pairwise_supports(profile):
    """Pairwise supports as an ``(m, m)`` matrix, one ``math.fsum`` per ordered pair.

    Entry ``[i, j]`` sums the weights of the position rows that rank
    column i above column j; the diagonal is zero.
    """
    positions, weights = profile.position_matrix()
    m = len(profile.ids)
    support = np.zeros((m, m))
    for i, j in itertools.permutations(range(m), 2):
        above = positions[:, i] < positions[:, j]
        support[i, j] = math.fsum(weights[above].tolist())
    return support


def fsum_positional_scores(profile, vector):
    """Each id's ``math.fsum`` of ``weight * vector[rank]``, one column at a time."""
    positions, weights = profile.position_matrix()
    terms = weights[:, None] * np.asarray(vector, dtype=float)[positions]
    columns = terms.T.tolist()
    return {alt: math.fsum(column) for alt, column in zip(profile.ids, columns)}


def swap_dominance_by_scan(profile):
    """Swap dominance as an ``(m, m)`` boolean matrix over ``profile.ids``.

    ``a`` dominates ``b`` unless some ranking that places ``a`` above
    ``b`` weighs less than its swap image.  Only a support ranking or the
    image of one can weigh anything, so each support ranking is checked
    in whichever of its two forms places ``a`` above ``b``.
    """
    weight = profile.support
    ids = profile.ids
    relation = np.ones((len(ids), len(ids)), dtype=bool)
    for (i, a), (j, b) in itertools.permutations(enumerate(ids), 2):
        for ranking in weight:
            upper = ranking if prefers(ranking, a, b) else swap_ranking(ranking, a, b)
            if weight.get(upper, 0.0) < weight.get(swap_ranking(upper, a, b), 0.0):
                relation[i, j] = False
                break
    return relation


def total_preorder(profile):
    """Swap dominance as ``(is_total, is_transitive, relation)``.

    ``relation`` holds every ordered pair of ids (a, b) with a
    swap-dominating b, the reflexive pairs included.
    """
    ids = profile.ids
    dominance = profile.dominance_matrix()
    relation = {(ids[i], ids[j]) for i, j in zip(*dominance.nonzero())}
    is_total = all((a, b) in relation or (b, a) in relation for a in ids for b in ids)
    is_transitive = all(
        (a, c) in relation
        for (a, b), (b2, c) in itertools.product(relation, repeat=2)
        if b == b2
    )
    return is_total, is_transitive, relation


def gaussian_kl(mean1, var1, mean2, var2):
    """KL divergence between two univariate normal distributions."""
    if not (var1 > 0 and var2 > 0):
        raise ValueError("variances must be positive")
    return 0.5 * (math.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / var2 - 1.0)


def sorted_estimate_profile(spec, alternatives, n_samples, rng):
    """The earlier estimate_profile: sort each drawn row, then sort the rows.

    Each row of utilities is ranked by a stable argsort, the rows are
    lexsorted so that equal ones are adjacent, and the runs are counted
    and passed to ``from_orders``.
    """
    alts, mu = _scored_alternatives(alternatives, spec.beta)
    m, ids = len(alts), [alt.id for alt in alts]
    if m == 1:
        return AnonymousProfile.from_orders(ids, [[0]], [1.0])
    utilities = _draw_utilities(spec.family, mu, n_samples, rng)
    orders = np.argsort(-utilities, axis=1, kind="stable")
    rows = orders.astype(np.min_scalar_type(m - 1))
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
    counts = np.diff(np.r_[starts, n_samples])
    return AnonymousProfile.from_orders(ids, rows[starts], counts / n_samples)


def permutations_exact_profile(spec, alternatives):
    """The earlier exact_profile: one ``itertools.permutations`` order per row.

    Each order's Plackett-Luce chance is the product of its stage
    chances, with a log-sum-exp where the weights left underflow, and
    the orders go to ``from_orders`` in permutation order.
    """
    alts, mu = _scored_alternatives(alternatives, spec.beta)
    m, ids = len(alts), [alt.id for alt in alts]
    if spec.family == "tm" and m > 1:
        p = pairwise_prob(spec, alts[0], alts[1])
        return AnonymousProfile.from_orders(ids, [[0, 1], [1, 0]], [p, 1.0 - p])
    perms = np.array(list(itertools.permutations(range(m))))
    w = np.exp(mu - mu.max())[perms]
    left = np.cumsum(w[:, ::-1], axis=1)[:, :0:-1]
    chances = w[:, :-1] / np.maximum(left, _TINY)
    rows, stages = np.nonzero(left < _TINY)
    if len(rows):
        tail = np.where(np.arange(m) >= stages[:, None], mu[perms[rows]], -np.inf)
        tail = np.exp(tail - tail.max(axis=1, keepdims=True))
        chances[rows, stages] = tail[np.arange(len(rows)), stages] / tail.sum(axis=1)
    return AnonymousProfile.from_orders(ids, perms, np.prod(chances, axis=1))
