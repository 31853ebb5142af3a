"""Per-voter utility learning from pairwise choices.

Each voter supplies comparisons (chosen feature vector, rejected feature
vector).  Under the normal-noise ranking model the log-likelihood of one
comparison is log Phi(beta . (chosen - rejected)), so the fit maximizes

    sum_j log Phi(beta . d_j)  -  lambda * ||beta||^2

with d_j the feature difference.  For lambda > 0 the negated objective
is 2*lambda-strongly convex, so it has one minimizer even on linearly
separable data, and the fit returns that ridge optimum at float
resolution.  At lambda = 0 on separable data no optimum exists (Albert
& Anderson 1984): the likelihood keeps rising along a separating
direction.  Every fit starts from zero weights, and
``FitResult.iterations`` counts its Newton steps.

A voter's comparisons are one ``(n, d)`` float array whose row j is
d_j = chosen_j - rejected_j; the file parser and the simulator produce
exactly that.  ``fit_voters`` fits many voters in one call, stepping
voters of the same shape together; a voter's result does not depend on
which other voters share its call, bit for bit, and ``fit_voter`` is the
call with one voter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .processes import _LOG_SQRT_2PI, log_normal_cdf
from .profiles import _as_count, _as_finite, _finite_array


class NumericError(RuntimeError):
    """A fit produced a non-finite objective or weights.

    ``voter`` names the voter: its position in the ``fit_voters`` call, or
    an id that a caller put in its place.
    """

    def __init__(self, voter: object) -> None:
        super().__init__(voter)
        self.voter = voter

    def __str__(self) -> str:
        return f"voter {self.voter!r}: fit produced a non-finite objective or weights"


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the per-voter fit."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    l2_penalty: float = 1e-6

    def __post_init__(self) -> None:
        max_iterations = _as_count(self.max_iterations, "max_iterations")
        tolerance = _as_finite(self.gradient_tolerance, "gradient_tolerance")
        if not tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")
        l2_penalty = _as_finite(self.l2_penalty, "l2_penalty")
        if l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")
        object.__setattr__(self, "max_iterations", max_iterations)
        object.__setattr__(self, "gradient_tolerance", tolerance)
        object.__setattr__(self, "l2_penalty", l2_penalty)


@dataclass(frozen=True)
class FitResult:
    """Fitted weights plus convergence diagnostics."""

    beta: np.ndarray
    final_objective: float
    converged: bool
    iterations: int


def objective_and_gradient(
    beta: np.ndarray, data: np.ndarray, l2_penalty: float = 0.0
) -> tuple[float, np.ndarray]:
    """Negative penalized log-likelihood and its gradient at ``beta``.

    ``l2_penalty`` is checked as ``FitConfig`` checks it.
    """
    l2_penalty = FitConfig(l2_penalty=l2_penalty).l2_penalty
    beta = _finite_array(beta, "beta")
    diffs = _finite_array(data, "comparison differences", ndim=2)
    if diffs.shape[1] != beta.shape[0]:
        raise ValueError(
            f"beta has dimension {beta.shape[0]}, comparisons have "
            f"{diffs.shape[1]}"
        )
    value, grad, _ = _derivatives(beta, diffs, l2_penalty)
    return float(value), grad


def _derivatives(
    beta: np.ndarray, diffs: np.ndarray, l2_penalty: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, gradient and per-comparison curvature at ``beta``.

    ``beta`` is ``(..., d)`` and ``diffs`` ``(..., n, d)``: one voter, or
    a stack of voters with one row of ``beta`` each.  With t = diffs @ beta
    and r = phi(t) / Phi(t), taken in log space to survive t << 0, the
    Hessian is ``diffs.T @ (curvature * diffs)`` plus the ridge term
    2 * lambda * I, where curvature = -d/dt r(t) = r (t + r) is positive
    for all t.
    """
    t = (diffs @ beta[..., None])[..., 0]
    log_cdf = log_normal_cdf(t.ravel()).reshape(t.shape)
    ratio = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_cdf)
    value = -log_cdf.sum(axis=-1) + l2_penalty * _dots(beta, beta)
    grad = -(diffs * ratio[..., None]).sum(axis=-2) + 2.0 * l2_penalty * beta
    return value, grad, ratio * (t + ratio)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(..., d)`` arrays.

    A stacked ``(1, d) @ (d, 1)`` product per row: it gives the bits of
    the 1-D ``a @ b`` for every stack size, which ``einsum`` does not.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


#: Sufficient-decrease constant of the Armijo condition.
_ARMIJO = 1e-4

#: Most voters stepped together.  Peak memory grows with this, not with
#: the number of voters; larger blocks fit no faster at n <= 100, d = 23.
_BLOCK = 64


def fit_voter(data: np.ndarray, config: FitConfig | None = None) -> FitResult:
    """Fit one voter's utility weights: ``fit_voters([data], config)[0]``."""
    return fit_voters([data], config)[0]


def fit_voters(
    arrays: Iterable[np.ndarray], config: FitConfig | None = None
) -> list[FitResult]:
    """Fit each voter's utility weights by penalized maximum likelihood.

    Each entry of ``arrays`` is one voter's ``(n, d)`` chosen-minus-rejected
    array.  Damped Newton (Nocedal & Wright, ch. 3): steps are halved to
    meet the Armijo condition until the gradient inf-norm meets
    ``gradient_tolerance`` or no halved step lowers the objective at float
    resolution; then full steps go on while each one lowers the gradient
    inf-norm.  The step falls back to the gradient (steepest descent) where
    the Hessian is singular and, only while halving, where the Newton step
    is not downhill.  For ``l2_penalty`` > 0 the result is thus the unique
    ridge optimum at float resolution; at 0 on separable data there is
    none, and the weights are finite but of arbitrary scale.
    ``iterations`` counts Newton steps (at most ``max_iterations``), and
    the objective never rises along them beyond float resolution.
    ``converged`` says whether the final gradient inf-norm meets the
    tolerance.

    Voters of the same shape are stacked into blocks and stepped together.
    Every choice above is made per voter, and a voter leaves its block
    where it would stop alone, so the same data and config give the same
    result to the bit, whichever voters share the call.  Raises ``NumericError`` naming the
    position of the first voter whose fit is not finite.
    """
    if config is None:
        config = FitConfig()
    checked = [_comparison_array(data) for data in arrays]
    shapes: dict[tuple[int, ...], list[int]] = {}
    for index, diffs in enumerate(checked):
        shapes.setdefault(diffs.shape, []).append(index)
    results: list[FitResult] = [None] * len(checked)  # type: ignore[list-item]
    for members in shapes.values():
        for start in range(0, len(members), _BLOCK):
            block = members[start : start + _BLOCK]
            stacked = np.stack([checked[index] for index in block])
            for index, result in zip(block, _fit_block(stacked, config)):
                results[index] = result
    for index, result in enumerate(results):
        if not (math.isfinite(result.final_objective) and np.isfinite(result.beta).all()):
            raise NumericError(index)
    return results


def _comparison_array(data: np.ndarray) -> np.ndarray:
    """One voter's checked ``(n, d)`` array, with n and d at least one."""
    try:
        empty = len(data) == 0
    except TypeError:  # a scalar, which _finite_array refuses by its shape
        empty = False
    if empty:
        raise ValueError("need at least one comparison to fit")
    diffs = _finite_array(data, "comparison differences", ndim=2)
    if diffs.shape[1] == 0:
        raise ValueError("comparison differences need at least one feature")
    return diffs


def _fit_block(diffs: np.ndarray, config: FitConfig) -> list[FitResult]:
    """``fit_voters`` on one ``(V, n, d)`` stack of voters.

    The stack keeps only the voters still stepping, so all of them have
    taken ``iterations`` steps.  Every voter's first trial point is its
    full step: the first point its line search tries, and the only one
    the full-step rule does.
    """
    count, _, d = diffs.shape
    l2_penalty, tolerance = config.l2_penalty, config.gradient_tolerance
    ridge = 2.0 * l2_penalty * np.eye(d)
    beta = np.zeros((count, d))
    value, grad, curvature = _derivatives(beta, diffs, l2_penalty)
    grad_norm = np.abs(grad).max(axis=1)
    backtracking = grad_norm > tolerance
    voters = np.arange(count)  # block position of each row still stepping
    results: list[FitResult] = [None] * count  # type: ignore[list-item]

    def finish(rows: Iterable[int], iterations: int) -> None:
        for row in rows:
            results[voters[row]] = FitResult(
                beta=beta[row].copy(),
                final_objective=float(value[row]),
                converged=bool(grad_norm[row] <= tolerance),
                iterations=iterations,
            )

    iterations = 0
    while iterations < config.max_iterations:
        hessian = (diffs * curvature[..., None]).transpose(0, 2, 1) @ diffs + ridge
        step = _newton_steps(hessian, grad)
        slope = _dots(grad, step)
        steepest = backtracking & ~((0.0 < slope) & (slope < math.inf))
        if np.count_nonzero(steepest):
            step[steepest] = grad[steepest]
            slope[steepest] = _dots(grad[steepest], grad[steepest])
        point = beta - step
        trial = list(_derivatives(point, diffs, l2_penalty))
        # Halve while the decrease Armijo asks for is finite and resolvable.
        # The voters in ``armijo`` take a point that meets it.
        target = value - _ARMIJO * slope
        armijo = backtracking & (-math.inf < target) & (target < value)
        halving = armijo & ~(trial[0] <= target)
        length = 1.0
        while np.count_nonzero(halving):
            length /= 2.0
            rows = halving.nonzero()[0]
            target = value[rows] - _ARMIJO * length * slope[rows]
            resolvable = (-math.inf < target) & (target < value[rows])
            dropped = rows[~resolvable]  # these take the full-step rule
            armijo[dropped] = halving[dropped] = False
            rows, target = rows[resolvable], target[resolvable]
            halved = beta[rows] - length * step[rows]
            found = _derivatives(halved, diffs[rows], l2_penalty)
            sufficient = found[0] <= target
            done = rows[sufficient]
            halving[done] = False
            for array, source in zip((point, *trial), (halved, *found)):
                array[done] = source[sufficient]
        # Past the tolerance, or the Armijo decrease is below float
        # resolution: only full steps that lower the gradient from here.
        taken = armijo | (np.abs(trial[1]).max(axis=1) < grad_norm)
        moving = np.count_nonzero(taken)
        if moving < len(taken):  # the others stop where they are
            finish((~taken).nonzero()[0], iterations)
            if not moving:
                return results
            voters, diffs, point, armijo = (
                voters[taken], diffs[taken], point[taken], armijo[taken]
            )
            trial = [array[taken] for array in trial]
        beta, (value, grad, curvature) = point, trial
        grad_norm = np.abs(grad).max(axis=1)
        backtracking = armijo & (grad_norm > tolerance)
        iterations += 1
    finish(range(len(voters)), iterations)
    return results


def _newton_steps(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H step = g per voter; where H is singular the step is g."""
    try:
        return np.linalg.solve(hessian, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:  # H can be singular at l2_penalty = 0
        steps = grad.copy()
        for row in range(len(grad)):
            try:
                steps[row] = np.linalg.solve(hessian[row], grad[row])
            except np.linalg.LinAlgError:
                pass
        return steps
