"""Rankings over finite alternative sets and anonymous preference profiles.

A ranking is a strict total order over alternative ids, most preferred
first.  An anonymous profile assigns a nonnegative weight (voter fraction)
to each ranking of one fixed alternative set; weights sum to one.  On top
of these two types the module provides marginalization and the
swap-dominance relation.
"""

from __future__ import annotations

import functools
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


def _to_float(value: object) -> float:
    """``float(value)``, with an integer past the float range as a signed inf."""
    try:
        return float(value)  # type: ignore[arg-type]
    except OverflowError:
        return math.inf if value > 0 else -math.inf  # type: ignore[operator]


def _as_finite(value: object, name: str) -> float:
    """``value`` as a finite Python float; booleans and strings are refused."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    number = _to_float(value)
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
    except OverflowError:  # an integer past the float range
        raise ValueError(
            f"{name} must be finite, got an integer past the float range"
        ) from None
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


# Exact summation.  Every weight total, pairwise support and positional
# score in the package is the correctly rounded sum of its terms, the
# float ``math.fsum`` returns, so it does not depend on the order of the
# rows.  The kernel below gets it in bulk (after Rump, Ogita & Oishi,
# "Accurate floating-point summation", SIAM J. Sci. Comput. 2008):
#
# 1. split every value into limbs, each a multiple of a fixed power of
#    two, 2**(top - 21 * (t + 1)) for limb t, that is at most 2**21 of
#    that power in size; the limbs of a value add up to it exactly;
# 2. add the limbs of one sum limb by limb: a total of fewer than 2**31
#    such limbs is an integer multiple of the power below 2**53 times
#    it, so float64 adds it exactly in any order, a product with 0/1
#    masks included;
# 3. round once: ``math.fsum`` of the few exact limb totals is the
#    correctly rounded value of their exact sum, which is the sum of
#    the original values.

#: Bits per limb: see the comment above.
_LIMB_BITS = 21

#: Values of at least 2**_LIMB_TOP in magnitude would overflow step 1's
#: rounding constant; their sums, like those of NaN or inf, are taken by
#: ``math.fsum`` directly.
_LIMB_TOP = 960

#: Below this many terms (a profile's rows) each sum is ``math.fsum`` of
#: its terms.  Splitting costs about 15 us whatever the size.  At 64 rows
#: a profile's 36 pairwise sums take 11 us over its split weights against
#: 53 us by ``fsum``, while Borda's sums break even only near 128 rows
#: and a lone sum near 700 (m = 6, timed on 8 to 720 rows).
_LIMB_ROWS = 64


def _split(values: np.ndarray) -> np.ndarray | None:
    """The limbs of ``values``, shape ``(T,) + values.shape``.

    Limb t of a value is a multiple of 2**(top - 21 * (t + 1)), where
    2**top bounds every magnitude, and the T limbs of a value add up to
    it exactly; T reaches down to the lowest bit of the smallest nonzero
    value.  None when the last axis, which holds the terms of each sum,
    is shorter than ``_LIMB_ROWS``, or some magnitude is at least
    2**_LIMB_TOP or not finite.
    """
    if values.shape[-1] < _LIMB_ROWS:
        return None
    magnitudes = np.abs(values)
    largest = float(magnitudes.max())
    if not largest < 2.0**_LIMB_TOP:  # NaN and inf included
        return None
    if largest == 0.0:
        return np.zeros((1,) + values.shape)
    top = math.frexp(largest)[1]
    smallest = float(np.min(magnitudes, where=magnitudes > 0, initial=largest))
    # A float of exponent e is a multiple of 2**(e - 53), or of 2**-1074.
    bottom = max(math.frexp(smallest)[1] - 53, -1074)
    limbs = np.empty((-(-(top - bottom) // _LIMB_BITS),) + values.shape)
    rest = values.copy()
    for t, limb in enumerate(limbs):
        # Adding and taking away 1.5 * 2**(p + 52) rounds |rest| < 2**(p + 51)
        # to a multiple of 2**p; what is left over is exact.
        shift = math.ldexp(1.5, top - _LIMB_BITS * (t + 1) + 52)
        np.add(rest, shift, out=limb)
        limb -= shift
        rest -= limb
    return limbs


def _exact_sums(
    values: np.ndarray,
    limbs: np.ndarray | None,
    masks: np.ndarray | None = None,
    starts: list[int] | None = None,
) -> list[float]:
    """Exactly rounded sums of float values: the floats ``math.fsum`` returns.

    ``limbs`` is ``_split(values)``.  The sums run along the last axis
    of ``values``: by default one per row (one in all for a vector);
    with a ``(p, K)`` boolean array ``masks``, one per mask row, of the
    entries of the ``(K,)`` vector ``values`` that it selects; with
    increasing indices ``starts``, one per run of entries of that
    vector from a start to the next start (the last to the end).
    """
    if limbs is None:
        if masks is not None:
            listed = values.tolist()
            parts = [itertools.compress(listed, mask) for mask in masks.tolist()]
        elif starts is not None:
            listed = values.tolist()
            parts = [listed[lo:hi] for lo, hi in zip(starts, [*starts[1:], None])]
        else:
            parts = values.reshape(-1, values.shape[-1]).tolist()
        return [math.fsum(part) for part in parts]
    if masks is not None:
        # einsum adds without BLAS, whose worker threads can stall for
        # many milliseconds when the other core is busy.
        totals = np.einsum("tk,pk->tp", limbs, masks)
    elif starts is not None:
        totals = np.add.reduceat(limbs, starts, axis=-1)
    else:
        totals = limbs.sum(axis=-1)
    # Each sum's few exact limb totals, rounded once.
    columns = totals.reshape(len(totals), -1).T.tolist()
    return [math.fsum(column) for column in columns]


#: Largest m whose permutation rows, swap images and ranks are tabled.
_SWAP_TABLE_MAX = 8


@functools.lru_cache(maxsize=_SWAP_TABLE_MAX)
def _permutation_rows(m: int) -> np.ndarray:
    """All m! permutations of ``range(m)``, lexicographic, as read-only ``uint8`` rows.

    Lexicographic order of position rows is their key order, so row r
    is the position row of rank r (see :func:`_ranks`).  The rows
    starting with v are v followed by the permutations of the other
    values, each built from the rows for m - 1 by shifting up every
    entry at or above v.  The cache holds one table for each m up to
    ``_SWAP_TABLE_MAX``, about 0.36 MB in all.
    """
    rows = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, m + 1):
        first = np.repeat(np.arange(k, dtype=np.uint8), len(rows))
        rest = np.tile(rows, (k, 1))
        rest += rest >= first[:, None]
        rows = np.column_stack((first, rest))
    return _frozen(rows)


def _ranks(rows: np.ndarray) -> np.ndarray:
    """The Lehmer rank of each row's ranking: its index among the m! in key order.

    A row of m reals ranks its columns by increasing value, an exact
    tie going to the smaller column; a permutation row is its own
    position row.  Digit i of a row counts the later entries smaller
    than entry i, the later columns ranked above column i; the rank
    reads the digits in the mixed radix (m, m - 1, ..., 1), so it
    orders permutation rows exactly as their keys do.  Ranks take the
    smallest unsigned type that holds m! - 1.
    """
    n, m = rows.shape
    columns = list(np.ascontiguousarray(rows.T))
    ranks = np.zeros(n, dtype=np.min_scalar_type(math.factorial(m) - 1))
    for i in range(m - 1):
        ranks *= m - i
        for later in columns[i + 1:]:
            ranks += later < columns[i]
    return ranks


@functools.lru_cache(maxsize=_SWAP_TABLE_MAX)
def _swap_table(m: int) -> np.ndarray:
    """Rank of each ranking's swap images, an ``(m(m-1)/2, m!)`` read-only array.

    Entry ``[p, r]`` is the rank of the position row of rank r with the
    columns of pair p of ``np.triu_indices(m, 1)`` exchanged.  Entries
    take the smallest unsigned type that holds m! - 1, so the largest
    table, for m = 8, takes about 2.3 MB, and the cache holds one table
    for each m up to ``_SWAP_TABLE_MAX``, about 2.5 MB in all.
    """
    rows = _permutation_rows(m)
    pair_i, pair_j = np.triu_indices(m, 1)
    table = np.empty((len(pair_i), len(rows)), dtype=np.min_scalar_type(len(rows) - 1))
    for p, (i, j) in enumerate(zip(pair_i, pair_j)):
        swap = np.arange(m)
        swap[[i, j]] = j, i
        table[p] = _ranks(rows[:, swap])
    return _frozen(table)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of a C-contiguous 2-D array: the row's bytes.

    Each key is the row viewed as one opaque byte string, so keys
    compare, sort and search as the rows' bytes do.
    """
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _dominance_relation(positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Swap dominance between all columns of a key-sorted position matrix.

    Column i dominates column j exactly when every support row that ranks
    j above i weighs no more than its swap image, the row with columns i
    and j exchanged; an image outside the support weighs zero.  Rankings
    outside the support that rank i above j need no check: they weigh
    zero, and their images are support rows checked here.

    Up to ``_SWAP_TABLE_MAX`` alternatives, an image is found by rank:
    the swap table gives the image's rank, and an array over all m!
    ranks gives the weight of the ranking of that rank.  Wider rows
    search the sorted row keys for each image.  Each pass of the loop
    looks up the images of every row for a block of pairs i < j: all
    pairs at once for a small profile, and about 2**16 images per pass
    for a large one, which bounds the temporaries.
    """
    n_rows, m = positions.shape
    pair_i, pair_j = np.triu_indices(m, 1)
    if m <= _SWAP_TABLE_MAX:
        ranks = _ranks(positions)
        table = _swap_table(m)
        weight_of = np.zeros(table.shape[1])  # every ranking's weight, by rank
        weight_of[ranks] = weights

        def image_weights(lo: int, hi: int) -> np.ndarray:
            return weight_of[table[lo:hi, ranks]]
    else:
        keys = _row_keys(positions)
        # Row p of swaps permutes the columns so that pair p's i and j trade places.
        swaps = np.tile(np.arange(m), (len(pair_i), 1))
        swaps[np.arange(len(pair_i)), pair_i] = pair_j
        swaps[np.arange(len(pair_i)), pair_j] = pair_i

        def image_weights(lo: int, hi: int) -> np.ndarray:
            images = positions[:, swaps[lo:hi]].transpose(1, 0, 2)
            image_keys = _row_keys(np.ascontiguousarray(images).reshape(-1, m))
            found = np.minimum(np.searchsorted(keys, image_keys), n_rows - 1)
            found = np.where(keys[found] == image_keys, weights[found], 0.0)
            return found.reshape(hi - lo, n_rows)

    columns = np.ascontiguousarray(positions.T)
    relation = np.eye(m, dtype=bool)
    step = max(1, 2**16 // n_rows)
    for lo in range(0, len(pair_i), step):
        i, j = pair_i[lo:lo + step], pair_j[lo:lo + step]
        holds = image_weights(lo, lo + len(i)) >= weights
        j_above_i = columns[j] < columns[i]
        relation[i, j] = np.all(holds | ~j_above_i, axis=1)
        relation[j, i] = np.all(holds | j_above_i, axis=1)
    return relation


class AnonymousProfile:
    """A weighted distribution over rankings of one alternative set.

    Weights are voter fractions.  The constructor checks that every
    ranking covers the same alternatives, that weights are finite and
    nonnegative, and that they sum to one within ``WEIGHT_SUM_TOL``; it
    then renormalizes exactly and drops zero-weight rankings.

    A profile holds the key-sorted arrays of :meth:`position_matrix` and
    one store of values derived from them on first use: the
    :attr:`support` view, the dominance and pairwise matrices, the
    weights' limbs for exact sums over masks of its rows, each
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
        weights = np.array([_to_float(w) for w in support.values()])
        self._build(ids, np.argsort(orders, axis=1), weights)

    def _build(
        self, ids: tuple[str, ...], positions: np.ndarray, weights: np.ndarray
    ) -> "AnonymousProfile":
        """Check and renormalize the weights; store the key-sorted arrays.

        Row k of the ``(K, m)`` integer array ``positions`` holds the
        0-based rank of every column (alternatives in ``ids`` order) in
        a ranking of weight ``weights[k]``; the rows must be permutations
        of ``range(m)``.  Equal rows are merged.
        """
        total = _exact_sums(weights, _split(weights))[0]
        if not (weights.min() > 0 and math.isfinite(total)):
            # Some weight is zero, negative, NaN or infinite.
            for k, weight in enumerate(weights.tolist()):
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
            weights = np.array(_exact_sums(weights, _split(weights), starts=starts))
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
        (``uint8`` up to 256 alternatives).
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
        ``ids[i]`` above ``ids[j]``, exactly rounded (the float
        ``math.fsum`` returns), so it does not depend on the order of the
        support; the diagonal is zero.  It is computed once per profile
        object.
        """
        return self._cached("pairwise", self._pairwise_supports)

    def _pairwise_supports(self) -> np.ndarray:
        columns = np.ascontiguousarray(self._positions.T)
        m, n_rows = columns.shape
        # Entry [i, j, k]: row k ranks column i above column j (never i = j).
        above = columns[:, None, :] < columns[None, :, :]
        sums = self._weight_sums(above.reshape(m * m, n_rows))
        return _frozen(np.array(sums).reshape(m, m))

    def _weight_sums(self, masks: np.ndarray) -> list[float]:
        """The exactly rounded weight of the rows that each mask row selects.

        ``masks`` is a ``(p, K)`` boolean array over the support rows.
        The weights' limbs are split once per profile object.
        """
        weights = self._weights
        limbs = self._cached("limbs", lambda: _split(weights))
        return _exact_sums(weights, limbs, masks)

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
    """A profile from valid position rows; only the weights are checked."""
    blank = AnonymousProfile.__new__(AnonymousProfile)
    return blank._build(tuple(ids), positions, weights)


def marginalize_profile(
    profile: AnonymousProfile, subset: Iterable[str]
) -> AnonymousProfile:
    """Project a profile onto a subset of its alternatives.

    The weight of a restricted ranking is the exactly rounded total (the
    float ``math.fsum`` returns) of all full rankings that restrict to
    it, so marginalizing to the full set is the identity and
    marginalizing in stages equals marginalizing directly.
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
        # Ranks are valid position rows, so only the weights need checks.
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

