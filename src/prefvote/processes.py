"""Parametric ranking processes with linear utilities.

Two families are supported, both drawing one noisy utility per alternative
and ranking by decreasing utility:

* ``"tm"``: utilities are Normal(u(x), 1/2), so the chance of preferring
  a to b in isolation is Phi(u(a) - u(b)).
* ``"pl"``: utilities are u(x) plus standard Gumbel noise, which yields
  the familiar sequential-choice product form for whole rankings.  Noise
  of scale gamma is the process with weights ``beta / gamma``.

``u(x) = beta . features(x)`` in either case.  Both families marginalize
cleanly: the exact profile over a subset equals the marginal of the exact
profile over any superset.

Every entry point of the package that takes alternatives checks and
scores them through ``_scored_alternatives``; see its contract there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .profiles import (
    _SWAP_TABLE_MAX,
    Alternative,
    AnonymousProfile,
    _as_count,
    _finite_array,
    _from_positions,
    _permutation_rows,
    _ranks,
    _row_keys,
)

TM = "tm"
PL = "pl"
FAMILIES = (TM, PL)

#: Largest alternative set accepted by exact_profile, whose m! rows are tabled.
EXACT_PROFILE_MAX_SIZE = _SWAP_TABLE_MAX

_TM_NOISE_SCALE = math.sqrt(0.5)
_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TINY = np.finfo(float).tiny


class ExactProfileUnsupported(ValueError):
    """No closed-form ranking distribution is available for this request."""


@dataclass(frozen=True)
class ProcessSpec:
    """A ranking process: family and utility weights.

    The ``"tm"`` noise variance is one half and the ``"pl"`` noise is a
    standard Gumbel; a Gumbel of scale gamma is the ``"pl"`` process with
    weights ``beta / gamma``.
    """

    family: str
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        beta = _finite_array(self.beta, "beta")
        object.__setattr__(self, "beta", tuple(beta.tolist()))


def mode_utility(spec: ProcessSpec, alternative: Alternative) -> float:
    """Noise-free utility ``beta . features``, which must be finite.

    In both families ``a`` swap-dominates ``b`` in every profile the
    process induces exactly when ``a``'s mode utility is at least ``b``'s.
    """
    return float(_scored_alternatives([alternative], spec.beta)[1][0])


def _scored_alternatives(
    alternatives: Iterable[Alternative], weights: Sequence[float] | np.ndarray
) -> tuple[list[Alternative], np.ndarray]:
    """The alternative set in id order and its utilities ``weights @ features.T``.

    ``weights`` is one ``(d,)`` vector, giving utilities of shape ``(m,)``,
    or an ``(N, d)`` population, giving one row per voter, shape ``(N, m)``.
    The set must be nonempty with unique ids, every alternative must have
    d features, and every utility must be finite, a lone alternative's
    included.  Id order makes exact ties go to the smallest id.
    """
    weights = np.asarray(weights, dtype=float)
    alts = sorted(alternatives, key=lambda alt: alt.id)
    if not alts:
        raise ValueError("alternative set must be nonempty")
    if len({alt.id for alt in alts}) != len(alts):
        raise ValueError("alternative ids must be unique within a set")
    dim = weights.shape[-1]
    for alt in alts:
        if len(alt.features) != dim:
            raise ValueError(
                f"alternative {alt.id!r} has dimension {len(alt.features)}, "
                f"expected {dim}"
            )
    features = np.array([alt.features for alt in alts], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        utilities = weights @ features.T
    if not np.isfinite(utilities).all():
        rows = utilities.reshape(-1, len(alts))
        row, k = np.argwhere(~np.isfinite(rows))[0]
        # BLAS sums in an order that depends on the product's shape, so
        # report a left-to-right sum, the same in any set, unless that sum
        # stays finite where BLAS overflowed.
        value = 0.0
        for w, x in zip(weights.reshape(-1, dim)[row].tolist(), alts[k].features):
            value += w * x
        if math.isfinite(value):
            value = rows[row, k]
        raise ValueError(f"alternative {alts[k].id!r} has non-finite utility {value}")
    return alts, utilities


def normal_cdf(t: float) -> float:
    """Standard normal distribution function Phi(t)."""
    return 0.5 * math.erfc(-t * _SQRT_HALF)


def log_normal_cdf(t: np.ndarray) -> np.ndarray:
    """log Phi(t) for each entry of the 1-D array ``t``.

    The relative error stays near float resolution for every t: the value
    is log1p(-erfc(t / sqrt 2) / 2) for t >= -1, where Phi is near 1, and
    log(erfc(-t / sqrt 2) / 2) below, with one ``math.erfc`` per entry and
    each logarithm taken only on its own entries.  Under t = -37, just
    above where erfc turns subnormal, it sums eight terms of the
    asymptotic series Phi(t) = phi(t) / -t * (1 - 1/t^2 + 3/t^4 - 15/t^6
    + ...) instead.
    """
    t = np.asarray(t, dtype=float)
    upper = t >= -1.0
    x = np.where(upper, t, -t) * _SQRT_HALF
    half = np.fromiter(map(math.erfc, x.tolist()), float, len(x))
    half *= 0.5  # 1 - Phi(t) where upper, Phi(t) elsewhere
    out = np.log1p(-half, out=np.empty_like(t), where=upper)
    tail = t < -37.0
    np.log(half, out=out, where=~upper ^ tail)  # below -1, bar the tail
    if tail.any():
        s = t[tail]
        with np.errstate(over="ignore"):
            inverse = 1.0 / (s * s)
            term = series = 1.0
            for k in range(1, 9):
                term = -(2 * k - 1) * inverse * term
                series = series + term
            out[tail] = -0.5 * s * s - np.log(-s) - _LOG_SQRT_2PI + np.log(series)
    return out


def pairwise_prob(spec: ProcessSpec, a: Alternative, b: Alternative) -> float:
    """Probability that ``a`` precedes ``b`` in a sampled ranking of {a, b}."""
    if a.id == b.id:
        raise ValueError("pairwise probability needs two distinct alternatives")
    gap = mode_utility(spec, a) - mode_utility(spec, b)
    if spec.family == TM:
        return normal_cdf(gap)
    try:
        return 1.0 / (1.0 + math.exp(-gap))
    except OverflowError:  # exp(-gap) is past the float range, so 1 / inf
        return 0.0


def _draw_utilities(
    family: str, mu: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` rows of noisy utilities, shape ``(n, m)``.

    ``family`` is ``TM`` or ``PL``; callers pass a validated one.
    ``mu`` holds mode utilities: one row of shape ``(m,)`` shared by every
    sample, or one row per sample, shape ``(n, m)``.  Ranking a row ranks
    its columns by decreasing utility; an exact tie goes to the smaller
    column, so column j is above column k > j exactly when
    ``u[j] >= u[k]``.  That is the order a stable argsort of ``-u``
    gives, ±0.0 and ±inf included, and the one ``estimate_profile`` and
    ``_borda_scores`` count.
    """
    size = (n, mu.shape[-1])
    # Zero-centred noise plus mu equals a draw around loc=mu bit for bit;
    # numpy's scalar-parameter path is about 1.5x faster than its
    # broadcasting one.
    if family == TM:
        noise = rng.normal(0.0, _TM_NOISE_SCALE, size=size)
    else:
        noise = rng.gumbel(0.0, 1.0, size=size)
    noise += mu
    return noise


def _borda_scores(utilities: np.ndarray) -> np.ndarray:
    """Integer Borda score of every column over rows of utilities.

    Equal to counting the positions of the rows' stable argsort orders:
    for each pair j < k, j beats k in the rows where ``u[j] >= u[k]``.
    Utilities must not be NaN.
    """
    n, m = utilities.shape
    columns = list(np.ascontiguousarray(utilities.T))
    scores = [0] * m
    for j in range(m - 1):
        for k in range(j + 1, m):
            wins = int(np.count_nonzero(columns[j] >= columns[k]))
            scores[j] += wins
            scores[k] += n - wins
    return np.array(scores)


def exact_profile(
    spec: ProcessSpec, alternatives: Iterable[Alternative]
) -> AnonymousProfile:
    """Closed-form ranking distribution over the alternative set.

    Available for the ``"pl"`` family up to ``EXACT_PROFILE_MAX_SIZE``
    alternatives, at any spread of utilities, and for ``"tm"`` only on
    pairs (no closed form exists for larger Thurstone sets;
    estimate_profile covers those).  A lone alternative of either family
    is ranked first with weight 1.

    The m! position rows come in key order from the cached table of
    :func:`_permutation_rows`, and each row's weight is computed from its
    order, so the profile is built without merging or reordering; rows
    whose weight underflows to zero are dropped.
    """
    alts, mu = _scored_alternatives(alternatives, spec.beta)
    m = len(alts)
    if m > EXACT_PROFILE_MAX_SIZE:
        raise ValueError(
            f"exact profile limited to {EXACT_PROFILE_MAX_SIZE} alternatives, "
            f"got {m}"
        )
    ids = [alt.id for alt in alts]
    if spec.family == TM and m > 1:
        if m > 2:
            raise ExactProfileUnsupported(
                "no closed-form ranking distribution for the tm family "
                f"beyond pairs (got {m} alternatives); use estimate_profile"
            )
        p = pairwise_prob(spec, alts[0], alts[1])
        positions = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        return _from_positions(ids, positions, np.array([p, 1.0 - p]))
    positions = _permutation_rows(m)
    # Row k's order, the column at each stage, inverts its positions.
    orders = np.empty_like(positions)
    np.put_along_axis(orders, positions, np.arange(m, dtype=np.uint8), axis=1)
    # Stage s of a row picks its column s with chance w[s] / sum(w[s:]);
    # the last stage's chance is 1 and is left out.  Where the weights
    # left have all underflowed, below the smallest normal float, that
    # chance comes from a log-sum-exp over the utilities left instead.
    w = np.exp(mu - mu.max())[orders]
    left = np.cumsum(w[:, ::-1], axis=1)[:, :0:-1]
    chances = w[:, :-1] / np.maximum(left, _TINY)
    rows, stages = np.nonzero(left < _TINY)
    if len(rows):
        tail = np.where(np.arange(m) >= stages[:, None], mu[orders[rows]], -np.inf)
        tail = np.exp(tail - tail.max(axis=1, keepdims=True))
        chances[rows, stages] = tail[np.arange(len(rows)), stages] / tail.sum(axis=1)
    return _from_positions(ids, positions, np.prod(chances, axis=1))


def estimate_profile(
    spec: ProcessSpec,
    alternatives: Iterable[Alternative],
    n_samples: int,
    rng: np.random.Generator,
) -> AnonymousProfile:
    """Monte-Carlo ranking distribution from ``n_samples`` draws.

    A ranking's weight is its count over ``n_samples``.  Up to
    ``_SWAP_TABLE_MAX`` (8) alternatives each draw's ranking is found by
    its rank (see :func:`_ranks`) and the draws are counted by rank, so
    nothing is sorted: the ranks drawn, in increasing order, pick their
    rows from the cached table of all m! position rows.  Wider sets rank
    each draw by a stable argsort of its negated utilities, invert that
    order into a position row and count equal rows by sorting their
    keys.  A lone alternative draws nothing.
    """
    n_samples = _as_count(n_samples, "n_samples")
    alts, mu = _scored_alternatives(alternatives, spec.beta)
    ids = [alt.id for alt in alts]
    m = len(alts)
    if m == 1:
        return _from_positions(ids, np.zeros((1, 1), dtype=np.uint8), np.ones(1))
    # Ranked by increasing value, stably, the negated utilities rank the
    # columns by decreasing utility with the tie rule of the draws.
    negated = _draw_utilities(spec.family, mu, n_samples, rng)
    np.negative(negated, out=negated)
    if m <= _SWAP_TABLE_MAX:
        counts = np.bincount(_ranks(negated), minlength=math.factorial(m))
        present = np.flatnonzero(counts)
        return _from_positions(
            ids, _permutation_rows(m)[present], counts[present] / n_samples
        )
    orders = np.argsort(negated, axis=1, kind="stable")
    positions = np.empty(orders.shape, dtype=np.min_scalar_type(m - 1))
    np.put_along_axis(positions, orders, np.arange(m, dtype=positions.dtype), axis=1)
    keys = _row_keys(positions)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[starts, n_samples])
    return _from_positions(ids, positions[by_key[starts]], counts / n_samples)
