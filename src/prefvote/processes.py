"""Parametric ranking processes with linear utilities.

Two families are supported, both drawing one noisy utility per alternative
and ranking by decreasing utility:

* ``"tm"``: utilities are Normal(u(x), 1/2), so the chance of preferring
  a to b in isolation is Phi(u(a) - u(b)).
* ``"pl"``: utilities are Gumbel(u(x), gamma), which yields the familiar
  sequential-choice product form for whole rankings.

``u(x) = beta . features(x)`` in either case.  Both families marginalize
cleanly: the exact profile over a subset equals the marginal of the exact
profile over any superset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .profiles import (
    Alternative,
    AnonymousProfile,
    Ranking,
    _as_finite,
    _finite_vector,
)

TM = "tm"
PL = "pl"
FAMILIES = (TM, PL)

#: Largest alternative set accepted by exact_profile (m! support blow-up).
EXACT_PROFILE_MAX_SIZE = 8

_TM_NOISE_SCALE = math.sqrt(0.5)


class ExactProfileUnsupported(ValueError):
    """No closed-form ranking distribution is available for this request."""


@dataclass(frozen=True)
class ProcessSpec:
    """A ranking process: family, utility weights, and noise scale.

    ``gumbel_scale`` only matters for the ``"pl"`` family and must be
    positive there; the ``"tm"`` family has its noise variance fixed at
    one half.
    """

    family: str
    beta: tuple[float, ...]
    gumbel_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        beta = _finite_vector(self.beta, "beta")
        object.__setattr__(self, "beta", tuple(beta.tolist()))
        if self.family == PL:
            gumbel_scale = _as_finite(self.gumbel_scale, "gumbel_scale")
            if not gumbel_scale > 0:
                raise ValueError("gumbel_scale must be positive")
            object.__setattr__(self, "gumbel_scale", gumbel_scale)

    @property
    def dim(self) -> int:
        return len(self.beta)


def mode_utility(spec: ProcessSpec, alternative: Alternative) -> float:
    """Noise-free utility ``beta . features``, which must be finite."""
    alts = _sorted_alternatives([alternative], spec.dim)
    return float(_mode_utilities(spec.beta, alts)[0])


def _sorted_alternatives(
    alternatives: Iterable[Alternative], dim: int
) -> list[Alternative]:
    """Id-sorted alternatives, checked for unique ids and dimension ``dim``."""
    alts = sorted(alternatives, key=lambda alt: alt.id)
    if not alts:
        raise ValueError("alternative set must be nonempty")
    ids = [alt.id for alt in alts]
    if len(set(ids)) != len(ids):
        raise ValueError("alternative ids must be unique within a set")
    for alt in alts:
        if len(alt.features) != dim:
            raise ValueError(
                f"alternative {alt.id!r} has dimension {len(alt.features)}, "
                f"expected {dim}"
            )
    return alts


def _mode_utilities(
    weights: Sequence[float] | np.ndarray, alts: Sequence[Alternative]
) -> np.ndarray:
    """Utilities ``weights @ features.T`` of ``alts``, which must all be finite.

    ``weights`` is one ``(d,)`` vector, giving shape ``(m,)``, or an
    ``(N, d)`` population, giving one row per voter, shape ``(N, m)``.
    """
    features = np.array([alt.features for alt in alts], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        utilities = np.asarray(weights, dtype=float) @ features.T
    if not np.isfinite(utilities).all():
        rows = utilities.reshape(-1, len(alts))
        row, k = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(
            f"alternative {alts[k].id!r} has non-finite utility {rows[row, k]}"
        )
    return utilities


def pairwise_prob(spec: ProcessSpec, a: Alternative, b: Alternative) -> float:
    """Probability that ``a`` precedes ``b`` in a sampled ranking of {a, b}."""
    if a.id == b.id:
        raise ValueError("pairwise probability needs two distinct alternatives")
    gap = mode_utility(spec, a) - mode_utility(spec, b)
    if spec.family == TM:
        return float(special.ndtr(gap))
    return float(special.expit(gap / spec.gumbel_scale))


def _draw_utilities(
    family: str,
    mu: np.ndarray,
    n: int,
    rng: np.random.Generator,
    gumbel_scale: float = 1.0,
) -> np.ndarray:
    """Sample ``n`` rows of noisy utilities, shape ``(n, m)``.

    ``mu`` holds mode utilities: one row of shape ``(m,)`` shared by every
    sample, or one row per sample, shape ``(n, m)``.  Ranking a row ranks
    its columns by decreasing utility; an exact tie goes to the smaller
    column, so column j is above column k > j exactly when
    ``u[j] >= u[k]``, the same rule a stable argsort of ``-u`` applies,
    ±0.0 and ±inf included.
    """
    size = (n, mu.shape[-1])
    # Zero-centred noise plus mu equals a draw around loc=mu bit for bit;
    # numpy's scalar-parameter path is about 1.5x faster than its
    # broadcasting one.
    if family == TM:
        noise = rng.normal(0.0, _TM_NOISE_SCALE, size=size)
    elif family == PL:
        noise = rng.gumbel(0.0, gumbel_scale, size=size)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    noise += mu
    return noise


def _draw_orders(
    family: str,
    mu: np.ndarray,
    n: int,
    rng: np.random.Generator,
    gumbel_scale: float = 1.0,
) -> np.ndarray:
    """Sample ``n`` rankings as index rows into the columns of ``mu``."""
    utilities = _draw_utilities(family, mu, n, rng, gumbel_scale)
    # Stable sort: exact utility ties resolve toward the smaller column,
    # which is the smaller id when columns are in id order.
    return np.argsort(-utilities, axis=1, kind="stable")


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


def sample_ranking(
    spec: ProcessSpec,
    alternatives: Iterable[Alternative],
    rng: np.random.Generator,
) -> Ranking:
    """Draw one ranking from the process."""
    alts = _sorted_alternatives(alternatives, spec.dim)
    mu = _mode_utilities(spec.beta, alts)
    order = _draw_orders(spec.family, mu, 1, rng, spec.gumbel_scale)[0]
    return Ranking(tuple(alts[j].id for j in order))


def exact_profile(
    spec: ProcessSpec, alternatives: Iterable[Alternative]
) -> AnonymousProfile:
    """Closed-form ranking distribution over the alternative set.

    Available for the ``"pl"`` family up to ``EXACT_PROFILE_MAX_SIZE``
    alternatives and for ``"tm"`` only on pairs (no closed form exists for
    larger Thurstone sets; estimate_profile covers those).
    """
    alts = _sorted_alternatives(alternatives, spec.dim)
    m = len(alts)
    if m > EXACT_PROFILE_MAX_SIZE:
        raise ValueError(
            f"exact profile limited to {EXACT_PROFILE_MAX_SIZE} alternatives, "
            f"got {m}"
        )
    ids = [alt.id for alt in alts]
    if m == 1:
        return AnonymousProfile.from_orders(ids, [[0]], [1.0])
    if spec.family == TM:
        if m > 2:
            raise ExactProfileUnsupported(
                "no closed-form ranking distribution for the tm family "
                f"beyond pairs (got {m} alternatives); use estimate_profile"
            )
        p = pairwise_prob(spec, alts[0], alts[1])
        return AnonymousProfile.from_orders(ids, [[0, 1], [1, 0]], [p, 1.0 - p])
    mu = _mode_utilities(spec.beta, alts)
    weights = np.exp((mu - mu.max()) / spec.gumbel_scale)
    perms = np.array(list(itertools.permutations(range(m))))
    w = weights[perms]
    denom = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return AnonymousProfile.from_orders(ids, perms, np.prod(w / denom, axis=1))


def estimate_profile(
    spec: ProcessSpec,
    alternatives: Iterable[Alternative],
    n_samples: int,
    rng: np.random.Generator,
) -> AnonymousProfile:
    """Monte-Carlo ranking distribution from ``n_samples`` draws."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    alts = _sorted_alternatives(alternatives, spec.dim)
    m = len(alts)
    ids = [alt.id for alt in alts]
    if m == 1:
        return AnonymousProfile.from_orders(ids, [[0]], [1.0])
    mu = _mode_utilities(spec.beta, alts)
    orders = _draw_orders(spec.family, mu, n_samples, rng, spec.gumbel_scale)
    # Count equal rows by sorting them; small integer columns sort by radix.
    rows = orders.astype(np.min_scalar_type(m - 1))
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
    counts = np.diff(np.r_[starts, n_samples])
    return AnonymousProfile.from_orders(ids, rows[starts], counts / n_samples)


def utility_dominance(spec: ProcessSpec, a: Alternative, b: Alternative) -> bool:
    """True when the mode utility of ``a`` is at least that of ``b``.

    For both families this is equivalent to ``a`` swap-dominating ``b`` in
    every profile the process induces, so it serves as the exact dominance
    test without enumerating rankings.
    """
    if a.id == b.id:
        raise ValueError("utility dominance needs two distinct alternatives")
    return mode_utility(spec, a) >= mode_utility(spec, b)
