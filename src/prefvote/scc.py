"""Social choice correspondences and axiom checkers.

Five classic rules are provided over anonymous profiles: plurality, Borda,
Copeland, maximin, and Bucklin.  All return the full winner set (never
empty); scores within ``SCORE_TIE_TOL`` of the best count as tied.

The checkers audit a rule against swap dominance: swap-dominance
efficiency, its strong form, and stability of winners under restriction
to a subset of alternatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import processes
from .profiles import Alternative, AnonymousProfile, marginalize_profile
from .processes import ProcessSpec

PLURALITY = "plurality"
BORDA = "borda"
COPELAND = "copeland"
MAXIMIN = "maximin"
BUCKLIN = "bucklin"
SCC_KINDS = (PLURALITY, BORDA, COPELAND, MAXIMIN, BUCKLIN)

#: Two scores within this absolute distance are treated as exactly tied.
SCORE_TIE_TOL = 1e-9

#: Caveats that every report on the rule carries.
_RULE_NOTES = {
    BUCKLIN: (
        "bucklin ties at the pivotal rank are resolved toward the larger majority",
    ),
}


def positional_scores(
    profile: AnonymousProfile, score_vector: Sequence[float]
) -> dict[str, float]:
    """Weighted positional score of every alternative.

    ``score_vector[k]`` is the credit for appearing at rank k (0-based)
    and must be non-increasing.
    """
    m = len(profile.alternatives)
    vector = [float(v) for v in score_vector]
    if len(vector) != m:
        raise ValueError(
            f"score vector has length {len(vector)}, profile has {m} alternatives"
        )
    if any(vector[k] < vector[k + 1] for k in range(m - 1)):
        raise ValueError("score vector must be non-increasing")
    positions, weights = profile.position_matrix()
    terms = weights[:, None] * np.array(vector)[positions]
    return {
        alt: math.fsum(column) for alt, column in zip(profile.ids, terms.T.tolist())
    }


def pairwise_support(profile: AnonymousProfile, a: str, b: str) -> float:
    """Total weight of rankings that place ``a`` above ``b``."""
    if a == b:
        raise ValueError("pairwise support needs two distinct alternatives")
    if a not in profile.alternatives or b not in profile.alternatives:
        raise ValueError(f"both {a!r} and {b!r} must be in the profile")
    ids = profile.ids
    return float(profile.pairwise_matrix()[ids.index(a), ids.index(b)])


def copeland_scores(profile: AnonymousProfile) -> dict[str, int]:
    """Number of strict pairwise majorities won by each alternative.

    A majority must clear one half by more than ``SCORE_TIE_TOL``; exact
    half-half splits count for neither side.
    """
    ids = profile.ids
    if len(ids) < 2:
        raise ValueError("copeland scores need at least two alternatives")
    support = profile.pairwise_matrix().tolist()
    scores = {alt: 0 for alt in ids}
    for i, j in itertools.combinations(range(len(ids)), 2):
        if support[i][j] > 0.5 + SCORE_TIE_TOL:
            scores[ids[i]] += 1
        elif support[i][j] < 0.5 - SCORE_TIE_TOL:
            scores[ids[j]] += 1
    return scores


def _maximin_scores(profile: AnonymousProfile) -> dict[str, float]:
    support = profile.pairwise_matrix().tolist()
    return {
        a: min(row[:i] + row[i + 1 :])
        for i, (a, row) in enumerate(zip(profile.ids, support))
    }


def _bucklin_cumulative(profile: AnonymousProfile) -> dict[str, list[float]]:
    """Cumulative top-k weight per alternative, for k = 1..m."""
    positions, weights = profile.position_matrix()
    m = len(profile.ids)
    by_rank = np.argsort(positions, axis=0, kind="stable")
    # ends[j, k]: how many rankings put column j within the top k + 1.
    ends = np.sum(positions[:, :, None] <= np.arange(m), axis=0)
    return {
        alt: [math.fsum(column[:end]) for end in column_ends]
        for alt, column, column_ends in zip(
            profile.ids, weights[by_rank].T.tolist(), ends.tolist()
        )
    }


def _bucklin_scores(profile: AnonymousProfile) -> dict[str, tuple[int, float]]:
    """Per alternative: (pivotal rank, cumulative weight at that rank).

    The pivotal rank is the smallest k whose cumulative top-k weight
    strictly exceeds one half; masses within the tie tolerance of one
    half count as exactly half and do not qualify.
    """
    table = _bucklin_cumulative(profile)
    m = len(table)
    out: dict[str, tuple[int, float]] = {}
    for alt, masses in table.items():
        for k, mass in enumerate(masses):
            if mass > 0.5 + SCORE_TIE_TOL:
                out[alt] = (k + 1, mass)
                break
        else:
            out[alt] = (m, masses[-1])
    return out


def _real_scores(kind: str, profile: AnonymousProfile) -> dict[str, float]:
    """Plurality, Borda or maximin score of every alternative."""
    m = len(profile.alternatives)
    if kind == PLURALITY:
        return positional_scores(profile, [1.0] + [0.0] * (m - 1))
    if kind == BORDA:
        return positional_scores(profile, [float(m - 1 - k) for k in range(m)])
    return _maximin_scores(profile)


def apply_scc(kind: str, profile: AnonymousProfile) -> frozenset[str]:
    """Winner set of the named rule; never empty."""
    if kind not in SCC_KINDS:
        raise ValueError(f"unknown rule {kind!r}; expected one of {SCC_KINDS}")
    if len(profile.alternatives) == 1:
        return profile.alternatives
    if kind in (PLURALITY, BORDA, MAXIMIN):
        return _best_within_tol(_real_scores(kind, profile))
    if kind == COPELAND:
        scores = copeland_scores(profile)
        best = max(scores.values())
        return frozenset(a for a, s in scores.items() if s == best)
    ranks = _bucklin_scores(profile)
    best_rank = min(rank for rank, _ in ranks.values())
    at_best = {a: mass for a, (rank, mass) in ranks.items() if rank == best_rank}
    return _best_within_tol(at_best)


def _best_within_tol(scores: dict[str, float]) -> frozenset[str]:
    best = max(scores.values())
    return frozenset(a for a, s in scores.items() if s >= best - SCORE_TIE_TOL)


@dataclass(frozen=True)
class EfficiencyReport:
    """Result of auditing one rule on one profile.

    ``violations`` lists offending ordered pairs (dominating, dominated);
    ``notes`` carries rule-specific caveats, e.g. the Bucklin tie rule.
    """

    kind: str
    holds: bool
    violations: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()


def _dominance_pairs(profile: AnonymousProfile) -> list[tuple[str, str, bool]]:
    """Every (a, b, mutual) with ``a`` swap-dominating ``b != a``.

    ``mutual`` tells whether ``b`` dominates ``a`` back.
    """
    ids = profile.ids
    dominance = profile.dominance_matrix()
    first, second = np.nonzero(dominance)
    mutual = dominance[second, first].tolist()
    return [
        (ids[i], ids[j], back)
        for i, j, back in zip(first.tolist(), second.tolist(), mutual)
        if i != j
    ]


def _efficiency_report(
    kind: str,
    profile: AnonymousProfile,
    violates: Callable[[bool, bool, bool], bool],
) -> EfficiencyReport:
    """Audit where ``violates(a_wins, b_wins, mutual)`` flags a pair."""
    winners = apply_scc(kind, profile)
    violations = [
        (a, b)
        for a, b, mutual in _dominance_pairs(profile)
        if violates(a in winners, b in winners, mutual)
    ]
    return EfficiencyReport(
        kind=kind,
        holds=not violations,
        violations=tuple(sorted(violations)),
        notes=_RULE_NOTES.get(kind, ()),
    )


def check_swd_efficiency(kind: str, profile: AnonymousProfile) -> EfficiencyReport:
    """Audit: a dominated winner must drag its dominator in.

    For every pair with ``a`` swap-dominating ``b``, if ``b`` wins then
    ``a`` must win too.
    """
    return _efficiency_report(
        kind, profile, lambda a_wins, b_wins, mutual: b_wins and not a_wins
    )


def check_strong_swd_efficiency(
    kind: str, profile: AnonymousProfile
) -> EfficiencyReport:
    """Audit the strict form of swap-dominance efficiency.

    When ``a`` dominates ``b`` and ``b`` does not dominate back, ``b``
    must lose; when they dominate each other, they win or lose together.
    """
    return _efficiency_report(
        kind,
        profile,
        lambda a_wins, b_wins, mutual: a_wins != b_wins if mutual else b_wins,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Winners before and after restricting to a subset of alternatives.

    The check is vacuous (``applicable`` False) when no full-set winner
    survives into the subset; otherwise stability demands that the
    surviving winners be exactly the subset winners.  ``low_confidence``
    flags sampled profiles whose margins are within sampling noise.
    """

    kind: str
    winners_full: frozenset[str]
    winners_subset: frozenset[str]
    intersection: frozenset[str]
    applicable: bool
    stable: bool
    low_confidence: bool
    notes: tuple[str, ...] = ()


def _winner_margin(kind: str, profile: AnonymousProfile) -> float:
    """Smallest score gap separating winners from losers (1.0 if none)."""
    m = len(profile.alternatives)
    if m == 1:
        return 1.0
    if kind in (PLURALITY, BORDA, MAXIMIN):
        scores = _real_scores(kind, profile)
        scale = float(m - 1) if kind == BORDA else 1.0
    elif kind == COPELAND:
        # Margin lives in the pairwise supports, not the integer scores.
        support = profile.pairwise_matrix().tolist()
        return 2.0 * min(
            abs(support[i][j] - 0.5)
            for i, j in itertools.combinations(range(m), 2)
        )
    else:
        table = _bucklin_cumulative(profile)
        return 2.0 * min(
            abs(mass - 0.5) for masses in table.values() for mass in masses[:-1]
        )
    winners = _best_within_tol(scores)
    losers = [s for a, s in scores.items() if a not in winners]
    if not losers:
        return 0.0
    return (max(scores.values()) - max(losers)) / scale


def check_stability(
    spec: ProcessSpec,
    kind: str,
    alternatives: Iterable[Alternative],
    subset_ids: Iterable[str],
    mode: str = "exact",
    n_samples: int = 100_000,
    seed: int = 0,
) -> StabilityReport:
    """Check winner stability of a rule under a process.

    Builds the ranking profile over the full alternative set and over the
    subset (exactly, or by sampling ``n_samples`` rankings per profile for
    ``mode="mc"``), applies the rule to both, and compares.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    alts = sorted(alternatives, key=lambda alt: alt.id)
    by_id = {alt.id: alt for alt in alts}
    sub_ids = sorted(set(subset_ids))
    if not sub_ids:
        raise ValueError("subset must be nonempty")
    missing = [i for i in sub_ids if i not in by_id]
    if missing:
        raise ValueError(f"subset ids not in the alternative set: {missing}")
    sub_alts = [by_id[i] for i in sub_ids]
    low_confidence = False
    if mode == "exact":
        full_profile = processes.exact_profile(spec, alts)
        sub_profile = processes.exact_profile(spec, sub_alts)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        full_profile = processes.estimate_profile(spec, alts, n_samples, rng)
        sub_profile = processes.estimate_profile(spec, sub_alts, n_samples, rng)
        noise = 2.0 * math.sqrt(0.25 / n_samples)
        low_confidence = (
            _winner_margin(kind, full_profile) < noise
            or _winner_margin(kind, sub_profile) < noise
        )
    return _stability_from_profiles(
        kind, full_profile, sub_profile, low_confidence
    )


def check_profile_stability(
    kind: str, profile: AnonymousProfile, subset_ids: Iterable[str]
) -> StabilityReport:
    """Stability check on a fixed profile, via marginalization."""
    sub_ids = sorted(set(subset_ids))
    sub_profile = marginalize_profile(profile, sub_ids)
    return _stability_from_profiles(kind, profile, sub_profile, False)


def _stability_from_profiles(
    kind: str,
    full_profile: AnonymousProfile,
    sub_profile: AnonymousProfile,
    low_confidence: bool,
) -> StabilityReport:
    winners_full = apply_scc(kind, full_profile)
    winners_subset = apply_scc(kind, sub_profile)
    intersection = winners_full & sub_profile.alternatives
    applicable = bool(intersection)
    stable = (not applicable) or intersection == winners_subset
    return StabilityReport(
        kind=kind,
        winners_full=winners_full,
        winners_subset=winners_subset,
        intersection=intersection,
        applicable=applicable,
        stable=stable,
        low_confidence=low_confidence,
        notes=_RULE_NOTES.get(kind, ()),
    )
