"""Rankings over finite alternative sets and anonymous preference profiles.

A ranking is a strict total order over alternative ids, most preferred
first.  An anonymous profile assigns a nonnegative weight (voter fraction)
to each ranking of one fixed alternative set; weights sum to one.  On top
of these two types the module provides restriction/marginalization, the
pairwise swap operation, and the swap-dominance relation together with a
total-preorder report for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

#: Absolute slack allowed on a profile's weight sum before normalization.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Alternative:
    """An option identified by a string id, carrying a feature vector.

    Ids double as the deterministic tie-break key everywhere: when scores
    or utilities tie exactly, the lexicographically smallest id wins.
    Features must be finite.
    """

    id: str
    features: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("alternative id must be a nonempty string")
        features = tuple(float(v) for v in self.features)
        if not all(map(math.isfinite, features)):
            raise ValueError(f"alternative {self.id!r} has a non-finite feature")
        object.__setattr__(self, "features", features)


@dataclass(frozen=True)
class Ranking:
    """A strict total order over alternative ids, most preferred first."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        if not order:
            raise ValueError("ranking must cover at least one alternative")
        if any(not name for name in order):
            raise ValueError(f"ranking contains an empty id: {order!r}")
        if len(set(order)) != len(order):
            raise ValueError(f"ranking repeats an alternative: {order!r}")
        object.__setattr__(self, "order", order)

    @classmethod
    def from_string(cls, text: str) -> "Ranking":
        """Parse ``"a>b>c"`` into a ranking."""
        return cls(tuple(part.strip() for part in text.split(">")))

    def to_string(self) -> str:
        return ">".join(self.order)

    @property
    def alternatives(self) -> frozenset[str]:
        return frozenset(self.order)

    def position(self, alt: str) -> int:
        """1-based rank of ``alt`` (1 = most preferred)."""
        try:
            return self.order.index(alt) + 1
        except ValueError:
            raise KeyError(f"{alt!r} is not ranked") from None

    def prefers(self, a: str, b: str) -> bool:
        """True when ``a`` is ranked strictly above ``b``."""
        return self.position(a) < self.position(b)

    def __len__(self) -> int:
        return len(self.order)


class AnonymousProfile:
    """A weighted distribution over rankings of one alternative set.

    Weights are voter fractions.  The constructor checks that every
    ranking covers the same alternatives, that weights are nonnegative,
    and that they sum to one within ``WEIGHT_SUM_TOL``; it then
    renormalizes exactly and drops zero-weight rankings from the stored
    support.
    """

    __slots__ = ("_support", "_alternatives")

    def __init__(
        self,
        support: Mapping[Ranking, float],
        alternatives: Iterable[str] | None = None,
    ) -> None:
        items = [(ranking, float(weight)) for ranking, weight in support.items()]
        if not items:
            raise ValueError("profile needs at least one ranking")
        if alternatives is None:
            alts = items[0][0].alternatives
        else:
            alts = frozenset(alternatives)
        for ranking, weight in items:
            if ranking.alternatives != alts:
                raise ValueError(
                    f"ranking {ranking.to_string()!r} does not cover the "
                    f"alternative set {sorted(alts)}"
                )
            if weight < 0:
                raise ValueError(
                    f"negative weight {weight} on {ranking.to_string()!r}"
                )
        total = math.fsum(weight for _, weight in items)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"profile weights sum to {total}, expected 1")
        self._support = {
            ranking: weight / total for ranking, weight in items if weight > 0
        }
        self._alternatives = alts

    @property
    def support(self) -> Mapping[Ranking, float]:
        """Read-only view of the positive-weight rankings."""
        return MappingProxyType(self._support)

    @property
    def alternatives(self) -> frozenset[str]:
        return self._alternatives

    def weight(self, ranking: Ranking) -> float:
        return self._support.get(ranking, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnonymousProfile):
            return NotImplemented
        return (
            self._alternatives == other._alternatives
            and self._support == other._support
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r.to_string()}: {w:.6g}" for r, w in sorted(
                self._support.items(), key=lambda item: item[0].order
            )
        )
        return f"AnonymousProfile({{{parts}}})"


def restrict_ranking(ranking: Ranking, subset: Iterable[str]) -> Ranking:
    """Keep only the alternatives in ``subset``, preserving their order."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    missing = subset - ranking.alternatives
    if missing:
        raise ValueError(f"subset contains unranked alternatives: {sorted(missing)}")
    return Ranking(tuple(alt for alt in ranking.order if alt in subset))


def marginalize_profile(
    profile: AnonymousProfile, subset: Iterable[str]
) -> AnonymousProfile:
    """Project a profile onto a subset of its alternatives.

    The weight of a restricted ranking is the total weight of all full
    rankings that restrict to it, so marginalizing to the full set is the
    identity and marginalizing in stages equals marginalizing directly.
    """
    subset = frozenset(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if not subset <= profile.alternatives:
        extra = sorted(subset - profile.alternatives)
        raise ValueError(f"subset is not contained in the profile: {extra}")
    out: dict[Ranking, float] = {}
    for ranking, weight in profile.support.items():
        restricted = restrict_ranking(ranking, subset)
        out[restricted] = out.get(restricted, 0.0) + weight
    return AnonymousProfile(out, alternatives=subset)


def swap_ranking(ranking: Ranking, a: str, b: str) -> Ranking:
    """Exchange the positions of ``a`` and ``b``; identity when ``a == b``."""
    if a not in ranking.alternatives or b not in ranking.alternatives:
        raise ValueError(f"both {a!r} and {b!r} must be ranked")
    if a == b:
        return ranking
    swapped = tuple(
        b if alt == a else a if alt == b else alt for alt in ranking.order
    )
    return Ranking(swapped)


def swap_dominates(profile: AnonymousProfile, a: str, b: str) -> bool:
    """True when ``a`` swap-dominates ``b`` in ``profile``.

    That is: for every ranking that places ``a`` above ``b``, its weight
    is at least the weight of the same ranking with ``a`` and ``b``
    exchanged.  Comparisons are exact; only rankings in the support (or
    whose swap image is in the support) can decide the answer.
    """
    if a == b:
        raise ValueError("swap dominance needs two distinct alternatives")
    if a not in profile.alternatives or b not in profile.alternatives:
        raise ValueError(f"both {a!r} and {b!r} must be in the profile")
    candidates = set(profile.support)
    candidates.update(swap_ranking(r, a, b) for r in profile.support)
    for ranking in candidates:
        if ranking.prefers(a, b):
            if profile.weight(ranking) < profile.weight(swap_ranking(ranking, a, b)):
                return False
    return True


@dataclass(frozen=True)
class PreorderReport:
    """Outcome of checking swap dominance for totality and transitivity.

    ``relation`` holds every ordered pair (a, b) with a swap-dominating b,
    including the reflexive pairs (a, a), which hold vacuously.
    """

    is_total_preorder: bool
    is_total: bool
    is_transitive: bool
    relation: frozenset[tuple[str, str]]


def check_total_preorder(profile: AnonymousProfile) -> PreorderReport:
    """Compute the swap-dominance relation and test it for total preorder."""
    alts = sorted(profile.alternatives)
    if len(alts) < 2:
        raise ValueError("need at least two alternatives")
    relation = {(a, a) for a in alts}
    for a, b in itertools.permutations(alts, 2):
        if swap_dominates(profile, a, b):
            relation.add((a, b))
    is_total = all(
        (a, b) in relation or (b, a) in relation
        for a, b in itertools.combinations(alts, 2)
    )
    is_transitive = True
    for a, b in relation:
        for b2, c in relation:
            if b == b2 and (a, c) not in relation:
                is_transitive = False
                break
        if not is_transitive:
            break
    return PreorderReport(
        is_total_preorder=is_total and is_transitive,
        is_total=is_total,
        is_transitive=is_transitive,
        relation=frozenset(relation),
    )
