"""Rankings over finite alternative sets and anonymous preference profiles.

A ranking is a strict total order over alternative ids, most preferred
first.  An anonymous profile assigns a nonnegative weight (voter fraction)
to each ranking of one fixed alternative set; weights sum to one.  On top
of these two types the module provides marginalization and the
swap-dominance relation.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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


def _is_real(value: object) -> bool:
    """True for a real number; booleans and strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_finite(value: object, name: str) -> float:
    """``value`` as a finite Python float; booleans and strings are refused."""
    if not _is_real(value):
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


def _as_subset(ids: Iterable[str]) -> frozenset[str]:
    """A nonempty collection of alternative ids as a frozenset.

    A bare string is refused: iterating it would yield its characters.
    """
    if isinstance(ids, str):
        raise ValueError(
            f"subset must be a collection of alternative ids, got the string {ids!r}"
        )
    subset = frozenset(ids)
    if not subset:
        raise ValueError("subset must be nonempty")
    return subset


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

    def __len__(self) -> int:
        return len(self.order)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a C-contiguous 2-D array; keys order rows as their bytes do.

    A row of at most 8 bytes, which covers every position row of at most
    8 alternatives, is keyed by one native ``uint64``: its bytes read as a
    big-endian number, zero-filled at the low end.  Integers sort and
    search much faster than byte strings.  A wider row is keyed by its
    bytes viewed as one opaque byte string.
    """
    width = rows.itemsize * rows.shape[1]
    if width > 8:
        return rows.view(np.dtype((np.void, width)))[:, 0]
    # Reversed into the high end of a little-endian word, a row's first
    # byte is the key's most significant.
    padded = np.zeros((len(rows), 8), dtype=np.uint8)
    padded[:, 8 - width:] = rows.view(np.uint8)[:, ::-1]
    return padded.view("<u8")[:, 0]


def _dominance_relation(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Swap dominance between all columns of a key-sorted position matrix.

    Column i dominates column j exactly when every support row that ranks
    j above i weighs no more than its swap image, the row with columns i
    and j exchanged; an image outside the support weighs zero.  Rankings
    outside the support that rank i above j need no check: they weigh
    zero, and their images are support rows checked here.  Each pass of
    the loop looks up the images of every row for a block of pairs i < j:
    all pairs at once for a small profile, and about 2**15 images per
    pass for a large one, which bounds the temporaries.
    """
    n_rows, m = positions.shape
    keys = _row_keys(positions)
    pair_i, pair_j = np.triu_indices(m, 1)
    # Row p of swaps permutes the columns so that pair p's i and j trade places.
    swaps = np.tile(np.arange(m), (len(pair_i), 1))
    swaps[np.arange(len(pair_i)), pair_i] = pair_j
    swaps[np.arange(len(pair_i)), pair_j] = pair_i
    relation = np.eye(m, dtype=bool)
    step = max(1, 2**15 // n_rows)
    for lo in range(0, len(pair_i), step):
        i, j = pair_i[lo:lo + step], pair_j[lo:lo + step]
        image_keys = _row_keys(positions[:, swaps[lo:lo + step]].reshape(-1, m))
        found = np.minimum(np.searchsorted(keys, image_keys), n_rows - 1)
        image_weights = np.where(
            keys[found] == image_keys, weights[found], 0.0
        ).reshape(n_rows, len(i))
        holds = image_weights >= weights[:, None]
        j_above_i = positions[:, j] < positions[:, i]
        relation[i, j] = np.all(holds | ~j_above_i, axis=0)
        relation[j, i] = np.all(holds | j_above_i, axis=0)
    return relation


class AnonymousProfile:
    """A weighted distribution over rankings of one alternative set.

    Weights are voter fractions.  The constructor checks that every
    ranking covers the same alternatives, that weights are finite and
    nonnegative, and that they sum to one within ``WEIGHT_SUM_TOL``; it
    then renormalizes exactly and drops zero-weight rankings.

    A profile holds the key-sorted arrays of :meth:`position_matrix` and
    one store of values derived from them on first use: the
    :attr:`support` view, the dominance and pairwise matrices, each
    rule's winners (and margin) from :mod:`prefvote.scc`, and the most
    recent marginal from :func:`marginalize_profile`.  A profile cannot
    change once built, so a stored value never goes stale.
    """

    __slots__ = ("_alternatives", "_ids", "_positions", "_weights", "_memo")

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
        for ranking, weight in support.items():
            if not _is_real(weight):
                raise ValueError(
                    f"weight on {ranking.to_string()!r} must be a real, got {weight!r}"
                )
        ids = tuple(sorted(alts))
        index = {alt: j for j, alt in enumerate(ids)}
        orders = np.array([[index[alt] for alt in r.order] for r in rankings])
        weights = np.array([float(w) for w in support.values()])
        self._build(ids, np.argsort(orders, axis=1), weights)

    @classmethod
    def from_orders(cls, ids: Sequence[str], orders, weights) -> "AnonymousProfile":
        """A profile from index rows and their weights.

        ``ids`` are the alternatives in increasing order.  Row k of the
        ``(K, m)`` integer array ``orders`` ranks them by column index,
        most preferred first, and weighs ``weights[k]``.  Equal rows are
        merged, their weights summed with ``math.fsum``; the weights are
        checked and renormalized as in the constructor; booleans and
        strings are not weights.
        """
        ids, m = tuple(ids), len(ids)
        orders, weights = np.asarray(orders), np.asarray(weights)
        if weights.dtype.kind not in "iuf":
            bad = [w for w in weights.ravel().tolist() if not _is_real(w)]
            if bad:
                raise ValueError(f"weights must be reals, got {bad[0]!r}")
        weights = weights.astype(float, copy=False)
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
        # The inverse of each order row holds every column's position.
        return cls.__new__(cls)._build(ids, np.argsort(orders, axis=1), weights)

    def _build(
        self, ids: tuple[str, ...], positions: np.ndarray, weights: np.ndarray
    ) -> "AnonymousProfile":
        """Check and renormalize the weights; store the key-sorted arrays.

        Row k of the ``(K, m)`` integer array ``positions`` holds the
        0-based rank of every column (alternatives in ``ids`` order) in
        a ranking of weight ``weights[k]``; the rows must be permutations
        of ``range(m)``.  Equal rows are merged.
        """
        values = weights.tolist()
        total = math.fsum(values)
        if not (min(values) > 0 and math.isfinite(total)):
            # Some weight is zero, negative, NaN or infinite.
            for k, weight in enumerate(values):
                if not 0.0 <= weight < math.inf:
                    kind = "negative" if weight < 0 else "non-finite"
                    order = np.argsort(positions[k]).tolist()
                    ranking = ">".join(ids[j] for j in order)
                    raise ValueError(f"{kind} weight {weight} on {ranking!r}")
            positions, weights = positions[weights > 0], weights[weights > 0]
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"profile weights sum to {total}, expected 1")
        positions = np.ascontiguousarray(
            positions, dtype=np.min_scalar_type(len(ids) - 1)
        )
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
        self._memo = {}
        return self

    def _cached(self, key: Hashable, compute: Callable[[], object]):
        """The value stored under ``key``, from ``compute()`` on first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    @property
    def support(self) -> Mapping[Ranking, float]:
        """Read-only view of the positive-weight rankings, in key order."""
        return self._cached("support", self._support_view)

    def _support_view(self) -> Mapping[Ranking, float]:
        ids = self._ids
        orders = np.argsort(self._positions, axis=1).tolist()
        return MappingProxyType({
            Ranking(tuple(ids[j] for j in order)): weight
            for order, weight in zip(orders, self._weights.tolist())
        })

    @property
    def alternatives(self) -> frozenset[str]:
        return self._alternatives

    @property
    def ids(self) -> tuple[str, ...]:
        """The alternatives in id order; rows and columns of the matrices."""
        return self._ids

    def position_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as read-only arrays ``(positions, weights)``.

        Row k of the ``(K, m)`` position matrix holds the 0-based rank of
        every alternative (columns in ``ids`` order) in one support
        ranking, whose weight is ``weights[k]``.  Rows are in key order: by
        their bytes, which order rows totally for any m.  The positions
        are unsigned integers of the smallest width that holds m - 1
        (``uint8`` up to 256 alternatives), so a row of at most 8
        alternatives fits one ``uint64`` key.
        """
        return self._positions, self._weights

    def dominance_matrix(self) -> np.ndarray:
        """Swap-dominance relation as a read-only ``(m, m)`` boolean matrix.

        Entry ``[i, j]`` is true when ``ids[i]`` swap-dominates ``ids[j]``
        (see :func:`swap_dominates`); the diagonal holds vacuously.  It is
        computed once per profile object.
        """
        return self._cached(
            "dominance",
            lambda: _frozen(_dominance_relation(self._positions, self._weights)),
        )

    def pairwise_matrix(self) -> np.ndarray:
        """Pairwise supports as a read-only ``(m, m)`` float matrix.

        Entry ``[i, j]`` is the total weight of the rankings that place
        ``ids[i]`` above ``ids[j]``, summed with ``math.fsum`` so that it
        is exactly rounded whatever the order of the support; the
        diagonal is zero.  It is computed once per profile object.
        """
        return self._cached("pairwise", self._pairwise_supports)

    def _pairwise_supports(self) -> np.ndarray:
        positions, weights = self._positions, self._weights
        m = len(self._ids)
        support = np.zeros((m, m))
        for i, j in itertools.permutations(range(m), 2):
            above = positions[:, i] < positions[:, j]
            support[i, j] = math.fsum(weights[above].tolist())
        return _frozen(support)

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


def _from_positions(
    ids: Sequence[str], positions: np.ndarray, weights: np.ndarray
) -> AnonymousProfile:
    """A profile from valid position rows, past ``from_orders``' checks."""
    blank = AnonymousProfile.__new__(AnonymousProfile)
    return blank._build(tuple(ids), positions, weights)


def marginalize_profile(
    profile: AnonymousProfile, subset: Iterable[str]
) -> AnonymousProfile:
    """Project a profile onto a subset of its alternatives.

    The weight of a restricted ranking is the ``math.fsum`` total of all
    full rankings that restrict to it, so marginalizing to the full set is
    the identity and marginalizing in stages equals marginalizing directly.
    ``subset`` is a collection of ids, not a string.  The profile keeps
    its most recent marginal, so asking for the same subset again returns
    the same object.
    """
    subset = _as_subset(subset)
    if not subset <= profile.alternatives:
        extra = sorted(subset - profile.alternatives)
        raise ValueError(f"subset is not contained in the profile: {extra}")
    last = profile._cached("marginal", dict)  # at most one {subset: marginal}
    if subset not in last:
        columns = [j for j, alt in enumerate(profile.ids) if alt in subset]
        positions, weights = profile.position_matrix()
        # A column's position among the kept ones is its rank in the row.
        # Ranks are valid position rows, so from_orders' checks are skipped.
        ranks = np.argsort(np.argsort(positions[:, columns], axis=1), axis=1)
        last.clear()
        last[subset] = _from_positions(sorted(subset), ranks, weights)
    return last[subset]


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

