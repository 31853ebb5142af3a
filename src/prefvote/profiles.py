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
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Absolute slack allowed on a profile's weight sum before normalization.
WEIGHT_SUM_TOL = 1e-9


# Constructor checks shared by every module of the package; this one
# imports no other, so each can use them without an import cycle.


def _as_int(value: object, name: str) -> int:
    """``value`` as a Python int; floats and booleans are refused."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _as_finite(value: object, name: str) -> float:
    """``value`` as a finite Python float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return number


def _as_count(value: object, name: str) -> int:
    """``value`` as a Python int of at least 1; floats and booleans are refused."""
    count = _as_int(value, name)
    if count < 1:
        raise ValueError(f"{name} must be at least 1")
    return count


def _finite_array(values: object, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as an ``ndim``-dimensional float array with finite entries.

    A float array of that dimension passes through uncopied.
    """
    wanted = f"{name} must be a {ndim}-dimensional array of reals"
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        raise ValueError(wanted) from None
    if array.ndim != ndim:
        raise ValueError(f"{wanted}, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(
            f"{name} must be finite, got a non-finite entry (NaN or inf)"
        )
    return array


@dataclass(frozen=True)
class Alternative:
    """An option identified by a string id, carrying a feature vector.

    Ids double as the deterministic tie-break key everywhere: when scores
    or utilities tie exactly, the lexicographically smallest id wins.
    Features must be a 1-dimensional sequence of finite reals; a string
    is not one.
    """

    id: str
    features: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(
                f"alternative id must be a nonempty string, got {self.id!r}"
            )
        features = _finite_array(self.features, f"alternative {self.id!r} features")
        object.__setattr__(self, "features", tuple(features.tolist()))


@dataclass(frozen=True)
class Ranking:
    """A strict total order over alternative ids, most preferred first."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.order, str):
            raise ValueError(
                f"ranking order must be a sequence of ids, got the string "
                f"{self.order!r}; use Ranking.from_string to parse 'a>b>c'"
            )
        order = tuple(self.order)
        if not order:
            raise ValueError("ranking must cover at least one alternative")
        if not all(order):
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row of a C-contiguous 2-D array."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _dominance_relation(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Swap dominance between all columns of a key-sorted position matrix.

    Column i dominates column j exactly when every support row that ranks
    j above i weighs no more than its swap image, the row with columns i
    and j exchanged; an image outside the support weighs zero.  Rankings
    outside the support that rank i above j need no check: they weigh
    zero, and their images are support rows checked here.  Each pass of
    the loop looks up the images for one i and every j > i at once.
    """
    n_rows, m = positions.shape
    keys = _row_keys(positions)
    relation = np.eye(m, dtype=bool)
    for i in range(m - 1):
        js = np.arange(i + 1, m)
        cols = np.arange(len(js))
        images = np.repeat(positions[:, None, :], len(js), axis=1)
        images[:, cols, i] = positions[:, js]
        images[:, cols, js] = positions[:, i, None]
        image_keys = _row_keys(images.reshape(-1, m))
        found = np.minimum(np.searchsorted(keys, image_keys), n_rows - 1)
        image_weights = np.where(
            keys[found] == image_keys, weights[found], 0.0
        ).reshape(n_rows, len(js))
        holds = image_weights >= weights[:, None]
        j_above_i = positions[:, js] < positions[:, i, None]
        relation[i, js] = np.all(holds | ~j_above_i, axis=0)
        relation[js, i] = np.all(holds | j_above_i, axis=0)
    return relation


class AnonymousProfile:
    """A weighted distribution over rankings of one alternative set.

    Weights are voter fractions.  The constructor checks that every
    ranking covers the same alternatives, that weights are finite and
    nonnegative, and that they sum to one within ``WEIGHT_SUM_TOL``; it
    then renormalizes exactly and drops zero-weight rankings.  Only the
    key-sorted arrays of :meth:`position_matrix` are stored.
    """

    __slots__ = ("_alternatives", "_ids", "_positions", "_weights", "_support",
                 "_dominance", "_pairwise")

    def __init__(self, support: Mapping[Ranking, float]) -> None:
        rankings = list(support)
        if not rankings:
            raise ValueError("profile needs at least one ranking")
        alts = rankings[0].alternatives
        for ranking in rankings:
            if ranking.alternatives != alts:
                raise ValueError(
                    f"ranking {ranking.to_string()!r} does not cover the "
                    f"alternative set {sorted(alts)}"
                )
        ids = tuple(sorted(alts))
        index = {alt: j for j, alt in enumerate(ids)}
        orders = np.array([[index[alt] for alt in r.order] for r in rankings])
        self._build(ids, orders, np.array([float(w) for w in support.values()]))

    @classmethod
    def from_orders(cls, ids: Sequence[str], orders, weights) -> "AnonymousProfile":
        """A profile from index rows and their weights.

        ``ids`` are the alternatives in increasing order.  Row k of the
        ``(K, m)`` integer array ``orders`` ranks them by column index,
        most preferred first, and weighs ``weights[k]``.  Equal rows are
        merged, their weights summed with ``math.fsum``; the weights are
        checked and renormalized as in the constructor.
        """
        ids, m = tuple(ids), len(ids)
        orders, weights = np.asarray(orders), np.asarray(weights, dtype=float)
        if (
            not ids or not all(ids) or list(ids) != sorted(set(ids))
            or orders.dtype.kind not in "iu" or orders.shape[1:] != (m,)
            or weights.shape != orders.shape[:1] or not len(weights)
        ):
            raise ValueError(
                f"need sorted distinct ids, K > 0 integer rows of length {m}, K weights"
            )
        misplaced = np.sort(orders, axis=1) != np.arange(m)
        if np.count_nonzero(misplaced):
            row = orders[misplaced.any(axis=1).argmax()].tolist()
            raise ValueError(f"order row {row} does not rank each of {list(ids)} once")
        return cls.__new__(cls)._build(ids, orders, weights)

    def _build(self, ids: tuple[str, ...], orders, weights) -> "AnonymousProfile":
        """Check and renormalize the weights; store the key-sorted arrays."""
        values = weights.tolist()
        total = math.fsum(values)
        if not (min(values) > 0 and math.isfinite(total)):
            # Some weight is zero, negative, NaN or infinite.
            for k, weight in enumerate(values):
                if not 0.0 <= weight < math.inf:
                    kind = "negative" if weight < 0 else "non-finite"
                    ranking = ">".join(ids[j] for j in orders[k].tolist())
                    raise ValueError(f"{kind} weight {weight} on {ranking!r}")
            orders, weights = orders[weights > 0], weights[weights > 0]
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"profile weights sum to {total}, expected 1")
        # The inverse of each order row holds every column's position.
        positions = np.argsort(orders, axis=1).astype(np.min_scalar_type(len(ids) - 1))
        keys = _row_keys(positions)
        by_key = np.argsort(keys, kind="stable")
        positions, weights, keys = positions[by_key], weights[by_key], keys[by_key]
        repeats = keys[1:] == keys[:-1]
        if np.count_nonzero(repeats):
            # Equal rows are adjacent in key order: merge them.
            starts = np.flatnonzero(np.concatenate(([True], ~repeats))).tolist()
            values = weights.tolist()
            weights = np.array([
                math.fsum(values[lo:hi]) for lo, hi in zip(starts, starts[1:] + [None])
            ])
            positions = positions[starts]
        if total != 1.0:
            weights = weights / total
        self._alternatives = frozenset(ids)
        self._ids = ids
        self._positions = _frozen(positions)
        self._weights = _frozen(weights)
        self._support = self._dominance = self._pairwise = None
        return self

    @property
    def support(self) -> Mapping[Ranking, float]:
        """Read-only view of the positive-weight rankings, in key order."""
        if self._support is None:
            ids = self._ids
            orders = np.argsort(self._positions, axis=1).tolist()
            self._support = MappingProxyType({
                Ranking(tuple(ids[j] for j in order)): weight
                for order, weight in zip(orders, self._weights.tolist())
            })
        return self._support

    @property
    def alternatives(self) -> frozenset[str]:
        return self._alternatives

    @property
    def ids(self) -> tuple[str, ...]:
        """The alternatives in id order; rows and columns of the matrices."""
        return self._ids

    def weight(self, ranking: Ranking) -> float:
        """Weight of ``ranking``; 0.0 outside the support or the alternative set."""
        if ranking.alternatives != self._alternatives:
            return 0.0
        rank = {alt: r for r, alt in enumerate(ranking.order)}
        row = np.array([[rank[alt] for alt in self._ids]], dtype=self._positions.dtype)
        keys, key = _row_keys(self._positions), _row_keys(row)[0]
        k = int(np.searchsorted(keys, key))
        return float(self._weights[k]) if k < len(keys) and keys[k] == key else 0.0

    def position_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as read-only arrays ``(positions, weights)``.

        Row k of the ``(K, m)`` position matrix holds the 0-based rank of
        every alternative (columns in ``ids`` order) in one support
        ranking, whose weight is ``weights[k]``.  Rows are in key order: by
        their bytes, which order rows totally for any m.
        """
        return self._positions, self._weights

    def dominance_matrix(self) -> np.ndarray:
        """Swap-dominance relation as a read-only ``(m, m)`` boolean matrix.

        Entry ``[i, j]`` is true when ``ids[i]`` swap-dominates ``ids[j]``
        (see :func:`swap_dominates`); the diagonal holds vacuously.  It is
        computed once per profile object.
        """
        if self._dominance is None:
            relation = _dominance_relation(self._positions, self._weights)
            self._dominance = _frozen(relation)
        return self._dominance

    def pairwise_matrix(self) -> np.ndarray:
        """Pairwise supports as a read-only ``(m, m)`` float matrix.

        Entry ``[i, j]`` is the total weight of the rankings that place
        ``ids[i]`` above ``ids[j]``, summed with ``math.fsum`` so that it
        is exactly rounded whatever the order of the support; the
        diagonal is zero.  It is computed once per profile object.
        """
        if self._pairwise is None:
            positions, weights = self._positions, self._weights
            m = len(self._ids)
            support = np.zeros((m, m))
            for i, j in itertools.permutations(range(m), 2):
                above = positions[:, i] < positions[:, j]
                support[i, j] = math.fsum(weights[above].tolist())
            self._pairwise = _frozen(support)
        return self._pairwise

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnonymousProfile):
            return NotImplemented
        # Rows are in key order, so equal supports give equal arrays.
        return (
            self._ids == other._ids
            and np.array_equal(self._positions, other._positions)
            and np.array_equal(self._weights, other._weights)
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r.to_string()}: {w:.6g}" for r, w in sorted(
                self.support.items(), key=lambda item: item[0].order
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

    The weight of a restricted ranking is the ``math.fsum`` total of all
    full rankings that restrict to it, so marginalizing to the full set is
    the identity and marginalizing in stages equals marginalizing directly.
    """
    subset = frozenset(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if not subset <= profile.alternatives:
        extra = sorted(subset - profile.alternatives)
        raise ValueError(f"subset is not contained in the profile: {extra}")
    columns = [j for j, alt in enumerate(profile.ids) if alt in subset]
    positions, weights = profile.position_matrix()
    orders = np.argsort(positions[:, columns], axis=1)
    # Rows from argsort are valid orders, so from_orders' checks are skipped.
    blank = AnonymousProfile.__new__(AnonymousProfile)
    return blank._build(tuple(sorted(subset)), orders, weights)


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
    ids = profile.ids
    return bool(profile.dominance_matrix()[ids.index(a), ids.index(b)])


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
    ids = profile.ids
    if len(ids) < 2:
        raise ValueError("need at least two alternatives")
    dominance = profile.dominance_matrix()
    is_total = bool(np.all(dominance | dominance.T))
    steps = dominance.astype(np.int64)
    is_transitive = not np.any((steps @ steps > 0) & ~dominance)
    return PreorderReport(
        is_total_preorder=is_total and is_transitive,
        is_total=is_total,
        is_transitive=is_transitive,
        relation=frozenset(
            (ids[i], ids[j]) for i, j in zip(*np.nonzero(dominance))
        ),
    )
