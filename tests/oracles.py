"""Reference implementations that the tests check the package against.

Each is the plain, definition-level form of something the package
computes from its arrays; none of them is part of the package.
"""

import itertools
import math

from prefvote.profiles import Ranking


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
