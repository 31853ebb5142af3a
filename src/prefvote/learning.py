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
direction.  Every fit starts from zero weights, and where it stops is
part of the solver, not a setting, so its weights depend only on the
data and lambda.

A voter's comparisons are one ``(n, d)`` float array whose row j is
d_j = chosen_j - rejected_j, as the file parser and the simulator give.
``fit_voters`` fits many voters of one d into one ``FitResult`` of
arrays, ``beta`` ``(V, d)`` and the rest ``(V,)``; ``fit_voter`` fits
one into its row, ``beta`` ``(d,)`` and three scalars.  A voter's row
does not depend on which other voters share its call, bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .processes import _LOG_SQRT_2PI, log_normal_cdf
from .profiles import _as_finite, _finite_array


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
    """The ridge penalty lambda of the per-voter fit.

    The two class constants belong to the solver, not to a call: every
    fit takes at most ``max_iterations`` Newton steps, and it reports
    ``converged`` when its final gradient inf-norm is at most
    ``gradient_tolerance``.  Neither decides where a fit stops short of
    that budget, so the weights depend only on the data and the penalty.
    """

    max_iterations: ClassVar[int] = 500
    gradient_tolerance: ClassVar[float] = 1e-8
    l2_penalty: float = 1e-6

    def __post_init__(self) -> None:
        l2_penalty = _as_finite(self.l2_penalty, "l2_penalty")
        if l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")
        object.__setattr__(self, "l2_penalty", l2_penalty)


@dataclass(frozen=True)
class FitResult:
    """Fitted weights plus convergence diagnostics, of one voter or many.

    ``fit_voters``: ``beta`` ``(V, d)``, the rest ``(V,)``, row k for voter k.
    ``fit_voter``: one row, ``beta`` ``(d,)`` then a float, a bool and an int.
    """

    beta: np.ndarray
    final_objective: np.ndarray | float
    converged: np.ndarray | bool
    iterations: np.ndarray | int


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
    """Fit one voter's utility weights: row 0 of ``fit_voters([data], config)``."""
    fit = fit_voters([data], config)
    row = fit.final_objective[0], fit.converged[0], fit.iterations[0]
    return FitResult(fit.beta[0], float(row[0]), bool(row[1]), int(row[2]))


def fit_voters(
    arrays: Iterable[np.ndarray], config: FitConfig | None = None
) -> FitResult:
    """Fit each voter's utility weights by penalized maximum likelihood.

    Each entry of ``arrays`` is one voter's ``(n, d)`` chosen-minus-rejected
    array.  Damped Newton (Nocedal & Wright, ch. 3): steps are halved to
    meet the Armijo condition until no halved step lowers the objective at
    float resolution; then full steps go on while each one lowers the
    gradient inf-norm.  The step falls back to the gradient (steepest
    descent) where the Hessian is singular and, only while halving, where
    the Newton step is not downhill.  For ``l2_penalty`` > 0 the result is
    thus the unique ridge optimum at float resolution; at 0 on separable
    data there is none, and the weights are finite but of arbitrary scale.
    ``iterations`` counts the Newton steps, along which the objective
    never rises beyond float resolution; ``FitConfig`` bounds them and
    sets the gradient tolerance that ``converged`` reports against.

    Voters of the same shape are stacked into blocks and stepped together.
    Every choice above is made per voter, and a voter leaves its block
    where it would stop alone, so the same data and penalty give the same
    row to the bit, whichever voters share the call.  Raises ``ValueError``
    if the voters differ in d, and ``NumericError`` naming the position of
    the first voter whose fit is not finite.
    """
    if config is None:
        config = FitConfig()
    checked = [_comparison_array(data) for data in arrays]
    shapes: dict[tuple[int, ...], list[int]] = {}
    for index, diffs in enumerate(checked):
        shapes.setdefault(diffs.shape, []).append(index)
    dims = sorted({d for _, d in shapes})
    if len(dims) > 1:
        raise ValueError(f"voters of one call need one dimension d, got {dims}")
    count, d = len(checked), dims[0] if dims else 0
    fit = FitResult(np.empty((count, d)), np.empty(count), np.empty(count, bool),
                    np.empty(count, int))
    for members in shapes.values():
        for start in range(0, len(members), _BLOCK):
            block = np.array(members[start : start + _BLOCK])
            _fit_block(np.stack([checked[i] for i in block]), config, fit, block)
    finite = np.isfinite(fit.final_objective) & np.isfinite(fit.beta).all(axis=1)
    if not finite.all():
        raise NumericError(int(np.argmin(finite)))
    return fit


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


@np.errstate(over="ignore", invalid="ignore")
def _fit_block(
    diffs: np.ndarray, config: FitConfig, fit: FitResult, voters: np.ndarray
) -> None:
    """``fit_voters`` on one ``(V, n, d)`` stack, whose rows of ``fit`` are ``voters``.

    A voter's row is written when it stops; overflow on the way is silent,
    since trial points and rows must end finite.  The stack keeps only the
    voters still stepping, so all have taken ``iterations`` steps.  Every
    voter's first trial point is its full step: the first point its line
    search tries, and the only one the full-step rule does.
    """
    count, _, d = diffs.shape
    l2_penalty, tolerance = config.l2_penalty, config.gradient_tolerance
    ridge = 2.0 * l2_penalty * np.eye(d)
    beta = np.zeros((count, d))
    value, grad, curvature = _derivatives(beta, diffs, l2_penalty)
    grad_norm = np.abs(grad).max(axis=1)
    backtracking = np.ones(count, dtype=bool)

    def finish(stopped: np.ndarray | slice, iterations: int) -> None:
        rows = voters[stopped]
        fit.beta[rows] = beta[stopped]
        fit.final_objective[rows] = value[stopped]
        fit.converged[rows] = grad_norm[stopped] <= tolerance
        fit.iterations[rows] = iterations

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
        # The voters still ``backtracking`` take a point that meets it; the
        # others have left the line search for good.
        target = value - _ARMIJO * slope
        backtracking &= (-math.inf < target) & (target < value)
        halving = backtracking & ~(trial[0] <= target)
        length = 1.0
        while np.count_nonzero(halving):
            length /= 2.0
            rows = halving.nonzero()[0]
            target = value[rows] - _ARMIJO * length * slope[rows]
            resolvable = (-math.inf < target) & (target < value[rows])
            dropped = rows[~resolvable]  # these take the full-step rule
            backtracking[dropped] = halving[dropped] = False
            rows, target = rows[resolvable], target[resolvable]
            halved = beta[rows] - length * step[rows]
            found = _derivatives(halved, diffs[rows], l2_penalty)
            sufficient = found[0] <= target
            done = rows[sufficient]
            halving[done] = False
            for array, source in zip((point, *trial), (halved, *found)):
                array[done] = source[sufficient]
        # Once the Armijo decrease is below float resolution, only full
        # steps that lower the gradient inf-norm are taken.
        taken = backtracking | (np.abs(trial[1]).max(axis=1) < grad_norm)
        moving = np.count_nonzero(taken)
        if moving < len(taken):  # the others stop where they are
            finish(~taken, iterations)
            if not moving:
                return
            voters, diffs, point, backtracking = (
                voters[taken], diffs[taken], point[taken], backtracking[taken]
            )
            trial = [array[taken] for array in trial]
        beta, (value, grad, curvature) = point, trial
        grad_norm = np.abs(grad).max(axis=1)
        iterations += 1
    finish(slice(None), iterations)


def _newton_steps(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H step = g per voter; where H is singular the step is g.

    H can be singular at l2_penalty = 0, and at a positive penalty where
    the ridge term is lost in rounding next to huge curvature: three
    differences (1e20, 1e20) at the default penalty 1e-6.
    """
    try:
        return np.linalg.solve(hessian, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = grad.copy()
        for row in range(len(grad)):
            with contextlib.suppress(np.linalg.LinAlgError):
                steps[row] = np.linalg.solve(hessian[row], grad[row])
        return steps
