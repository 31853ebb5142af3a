"""Social choice correspondences and axiom checkers.

Five classic rules are provided over anonymous profiles: plurality, Borda,
Copeland, maximin, and Bucklin.  All return the full winner set (never
empty); scores within ``SCORE_TIE_TOL`` of the best count as tied.
Borda scores are exactly rounded sums of weighted credits over the
profile's position matrix; plurality scores and Bucklin's top-k weights,
whose credits are 1 or 0, sum the profile's weights over the rows that
rank each alternative in the top k.

The checkers audit a rule against swap dominance: swap-dominance
efficiency and its strong form (one scan of the dominance matrix), and
stability of winners under restriction to a subset of alternatives.

Every rule application goes through one scorer, whose winners (and
margin, when asked for) a profile keeps under the rule's name.  Auditing
one profile against every rule and check therefore scores each rule
once, and a stability check reuses the profile's most recent marginal.
A profile cannot change once built, so neither can go stale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import processes
from .profiles import (
    Alternative,
    AnonymousProfile,
    _as_int,
    _as_subset,
    _exact_sums,
    _split,
    marginalize_profile,
)
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


def _positional(
    ids: Sequence[str], positions: np.ndarray, weights: np.ndarray, vector: np.ndarray
) -> dict[str, float]:
    """Each id's sum of ``weight * vector[rank]`` over a position matrix.

    ``vector[k]`` is the finite credit for rank k (0-based); Borda passes
    m - 1, m - 2, ..., 0.  Each sum of the products is exactly rounded
    (the float ``math.fsum`` returns), for credits of any sign.
    """
    terms = weights * vector[np.ascontiguousarray(positions.T)]  # one row per id
    return dict(zip(ids, _exact_sums(terms, _split(terms))))


def _top_weights(
    profile: AnonymousProfile, positions: np.ndarray, k: int
) -> dict[str, float]:
    """Each id's total weight in the top ``k`` ranks, exactly rounded.

    This is its positional score under credits 1 for ranks below k and 0
    after: the terms are its rows' weights or zero.  ``positions`` is the
    profile's position matrix.
    """
    return dict(zip(profile.ids, profile._weight_sums((positions < k).T)))


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


def _require_rule(kind: str) -> None:
    if kind not in SCC_KINDS:
        raise ValueError(f"unknown rule {kind!r}; expected one of {SCC_KINDS}")


def _outcome(
    kind: str, profile: AnonymousProfile, margin: bool = False
) -> tuple[frozenset[str], float | None]:
    """Winner set of the named rule and, if ``margin`` is set, its margin.

    The profile keeps the result, so each (rule, margin) pair is scored
    once per profile object.
    """
    _require_rule(kind)
    return profile._cached((kind, margin), lambda: _score(kind, profile, margin))


def _score(
    kind: str, profile: AnonymousProfile, margin: bool
) -> tuple[frozenset[str], float | None]:
    """:func:`_outcome` computed afresh.

    Each rule scores the profile once; Bucklin stops at the pivotal k
    unless the margin is wanted.  The margin is None unless wanted, 1.0
    with a single alternative, and otherwise:

    - plurality, maximin: best score minus the best loser's (0.0 if all win);
    - Borda: the same gap divided by m - 1;
    - Copeland: twice the smallest distance of a pairwise support from 1/2;
    - Bucklin: twice the smallest distance of a top-k weight from 1/2, k < m.
    """
    ids = profile.ids
    m = len(ids)
    if m == 1:
        return profile.alternatives, 1.0 if margin else None
    if kind in (PLURALITY, BORDA, BUCKLIN):
        positions, weights = profile.position_matrix()
    if kind == BUCKLIN:
        scores, closest = {}, math.inf
        for k in range(1, m):
            masses = _top_weights(profile, positions, k)
            if not scores:
                scores = {a: s for a, s in masses.items() if s > 0.5 + SCORE_TIE_TOL}
            if margin:
                closest = min(closest, *(abs(s - 0.5) for s in masses.values()))
            elif scores:
                break
        scores = scores or dict.fromkeys(ids, 0.0)  # no majority: all tie
    elif kind == PLURALITY:
        scores = _top_weights(profile, positions, 1)
    elif kind == BORDA:
        scores = _positional(ids, positions, weights, (m - 1.0) - np.arange(m))
    elif kind == COPELAND:
        scores = copeland_scores(profile)
    else:
        support = profile.pairwise_matrix().tolist()
        scores = {
            a: min(row[:i] + row[i + 1 :])
            for i, (a, row) in enumerate(zip(ids, support))
        }
    best = max(scores.values())
    winners = frozenset(a for a, s in scores.items() if s >= best - SCORE_TIE_TOL)
    if not margin:
        return winners, None
    if kind == BUCKLIN:
        return winners, 2.0 * closest
    if kind == COPELAND:
        support = profile.pairwise_matrix().tolist()
        pairs = itertools.combinations(range(m), 2)
        return winners, 2.0 * min(abs(support[i][j] - 0.5) for i, j in pairs)
    losers = [s for a, s in scores.items() if a not in winners]
    if not losers:
        return winners, 0.0
    return winners, (best - max(losers)) / (float(m - 1) if kind == BORDA else 1.0)


def apply_scc(kind: str, profile: AnonymousProfile) -> frozenset[str]:
    """Winner set of the named rule; never empty.

    Plurality, Borda, Copeland and maximin elect every alternative whose
    score is within ``SCORE_TIE_TOL`` of the best.  Bucklin finds the
    smallest k at which some alternative's top-k weight exceeds one half
    by more than ``SCORE_TIE_TOL``; among those alternatives it elects
    the ones whose top-k weight is within ``SCORE_TIE_TOL`` of the
    largest.  If no k < m gives a majority, every alternative wins.
    """
    return _outcome(kind, profile)[0]


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


def _efficiency_report(
    kind: str, profile: AnonymousProfile, strong: bool
) -> EfficiencyReport:
    """Audit every ordered pair (a, b) with ``a`` swap-dominating ``b != a``.

    The weak audit flags the pair when ``b`` wins and ``a`` does not.  The
    strong audit flags it when ``b`` wins, unless ``b`` dominates ``a``
    back: then it flags it when exactly one of the two wins.
    """
    winners, _ = _outcome(kind, profile)
    ids = profile.ids
    wins = [a in winners for a in ids]
    dominance = profile.dominance_matrix().tolist()
    violations = []
    for i, j in itertools.permutations(range(len(ids)), 2):
        if not dominance[i][j]:
            continue
        if strong:
            violated = wins[i] != wins[j] if dominance[j][i] else wins[j]
        else:
            violated = wins[j] and not wins[i]
        if violated:
            violations.append((ids[i], ids[j]))
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
    return _efficiency_report(kind, profile, strong=False)


def check_strong_swd_efficiency(
    kind: str, profile: AnonymousProfile
) -> EfficiencyReport:
    """Audit the strict form of swap-dominance efficiency.

    When ``a`` dominates ``b`` and ``b`` does not dominate back, ``b``
    must lose; when they dominate each other, they win or lose together.
    """
    return _efficiency_report(kind, profile, strong=True)


@dataclass(frozen=True)
class StabilityReport:
    """Winners before and after restricting to a subset of alternatives.

    The check is vacuous (``applicable`` False) when no full-set winner
    survives into the subset; otherwise stability demands that the
    surviving winners be exactly the subset winners.  ``low_confidence``
    is set only for sampled (``mc``) profiles: it is true when the rule's
    margin on the full set or on the subset is below ``2 * sqrt(0.25 / n)``
    for ``n`` samples per profile, twice the standard error of a sampled
    share of one half.
    """

    kind: str
    winners_full: frozenset[str]
    winners_subset: frozenset[str]
    intersection: frozenset[str]
    applicable: bool
    stable: bool
    low_confidence: bool
    notes: tuple[str, ...] = ()


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
    ``mode="mc"``), applies the rule to both, and compares.  ``seed``, a
    nonnegative integer, seeds the sampler; it is checked in both modes,
    before any profile is built.  The alternative set is checked before
    the subset, a collection of ids (not a string).
    """
    _require_rule(kind)
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    alts, _ = processes._scored_alternatives(alternatives, spec.beta)
    by_id = {alt.id: alt for alt in alts}
    sub_ids = sorted(_as_subset(subset_ids))
    missing = [i for i in sub_ids if i not in by_id]
    if missing:
        raise ValueError(f"subset ids not in the alternative set: {missing}")
    sub_alts = [by_id[i] for i in sub_ids]
    if mode == "exact":
        full_profile = processes.exact_profile(spec, alts)
        sub_profile = processes.exact_profile(spec, sub_alts)
        return _stability_from_profiles(kind, full_profile, sub_profile)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    full_profile = processes.estimate_profile(spec, alts, n_samples, rng)
    sub_profile = processes.estimate_profile(spec, sub_alts, n_samples, rng)
    noise = 2.0 * math.sqrt(0.25 / n_samples)
    return _stability_from_profiles(kind, full_profile, sub_profile, noise)


def check_profile_stability(
    kind: str, profile: AnonymousProfile, subset_ids: Iterable[str]
) -> StabilityReport:
    """Stability check on a fixed profile, via marginalization.

    ``subset_ids`` is a collection of ids, not a string.
    """
    _require_rule(kind)
    sub_profile = marginalize_profile(profile, subset_ids)
    return _stability_from_profiles(kind, profile, sub_profile)


def _stability_from_profiles(
    kind: str,
    full_profile: AnonymousProfile,
    sub_profile: AnonymousProfile,
    noise: float | None = None,
) -> StabilityReport:
    """Compare winners; a margin below ``noise`` (sampled profiles) is flagged."""
    sampled = noise is not None
    winners_full, margin_full = _outcome(kind, full_profile, sampled)
    winners_subset, margin_subset = _outcome(kind, sub_profile, sampled)
    low_confidence = sampled and (margin_full < noise or margin_subset < noise)
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
