"""Per-voter utility learning from pairwise choices.

Each voter supplies comparisons (chosen feature vector, rejected feature
vector).  Under the normal-noise ranking model the log-likelihood of one
comparison is log Phi(beta . (chosen - rejected)), so the fit maximizes

    sum_j log Phi(beta . d_j)  -  lambda * ||beta||^2

with d_j the feature difference.  For lambda > 0 the negated objective
is 2*lambda-strongly convex, so it has one minimizer even on linearly
separable data, and ``fit_voter`` returns that ridge optimum at float
resolution from any starting point.  At lambda = 0 on separable data no
optimum exists (Albert & Anderson 1984): the likelihood keeps rising
along a separating direction.  ``FitResult.iterations`` counts Newton
steps.
Everything here is a pure function of its arguments, so fitting many
voters concurrently needs no coordination.

A voter's comparisons are one ``(n, d)`` float array whose row j is
d_j = chosen_j - rejected_j; the file parser and the simulator produce
exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import _LOG_SQRT_2PI, log_normal_cdf
from .profiles import _as_count, _as_finite, _finite_array


class NumericError(RuntimeError):
    """The fit produced a non-finite objective or parameters."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the per-voter fit."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    l2_penalty: float = 1e-6
    initial_beta: np.ndarray | None = None

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
        if self.initial_beta is not None:
            object.__setattr__(
                self,
                "initial_beta",
                _finite_array(self.initial_beta, "initial_beta"),
            )


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
    """Negative penalized log-likelihood and its gradient at ``beta``."""
    beta = _finite_array(beta, "beta")
    diffs = _finite_array(data, "comparison differences", ndim=2)
    if diffs.shape[1] != beta.shape[0]:
        raise ValueError(
            f"beta has dimension {beta.shape[0]}, comparisons have "
            f"{diffs.shape[1]}"
        )
    value, grad, _ = _derivatives(beta, diffs, l2_penalty)
    return value, grad


def _derivatives(
    beta: np.ndarray, diffs: np.ndarray, l2_penalty: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective, gradient and per-comparison curvature at ``beta``.

    With t = diffs @ beta and r = phi(t) / Phi(t), taken in log space to
    survive t << 0, the Hessian is ``diffs.T @ (curvature * diffs)`` plus
    the ridge term 2 * lambda * I, where curvature = -d/dt r(t) =
    r (t + r) is positive for all t.
    """
    t = diffs @ beta
    log_cdf = log_normal_cdf(t)
    ratio = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_cdf)
    value = -float(log_cdf.sum()) + l2_penalty * float(beta @ beta)
    grad = -(diffs * ratio[:, None]).sum(axis=0) + 2.0 * l2_penalty * beta
    return value, grad, ratio * (t + ratio)


#: Sufficient-decrease constant of the Armijo condition.
_ARMIJO = 1e-4


def fit_voter(data: np.ndarray, config: FitConfig | None = None) -> FitResult:
    """Fit one voter's utility weights by penalized maximum likelihood.

    ``data`` is the voter's ``(n, d)`` chosen-minus-rejected array.
    Damped Newton (Nocedal & Wright, ch. 3): steps are halved to meet the
    Armijo condition until the gradient inf-norm meets ``gradient_tolerance``
    or no halved step lowers the objective at float resolution; then full
    steps go on while each one lowers the gradient inf-norm.  The step falls
    back to the gradient (steepest descent) where the Hessian is singular
    and, only while halving, where the Newton step is not downhill.  For
    ``l2_penalty`` > 0 the result is thus the unique ridge optimum at float
    resolution; at 0 on separable data there is none, and the weights are
    finite but of arbitrary scale.  ``iterations`` counts Newton steps (at
    most ``max_iterations``), and the objective never rises along them
    beyond float resolution.
    ``converged`` says whether the final gradient inf-norm meets the
    tolerance.  Same data and config give the same result.
    """
    if config is None:
        config = FitConfig()
    try:
        empty = len(data) == 0
    except TypeError:  # a scalar, which _finite_array refuses by its shape
        empty = False
    if empty:
        raise ValueError("need at least one comparison to fit")
    diffs = _finite_array(data, "comparison differences", ndim=2)
    d = diffs.shape[1]
    if d == 0:
        raise ValueError("comparison differences need at least one feature")
    beta = np.zeros(d) if config.initial_beta is None else config.initial_beta.copy()
    if beta.shape != (d,):
        raise ValueError(f"initial_beta has shape {beta.shape}, expected ({d},)")
    l2_penalty = config.l2_penalty
    ridge = 2.0 * l2_penalty * np.eye(d)
    value, grad, curvature = _derivatives(beta, diffs, l2_penalty)
    grad_norm = np.max(np.abs(grad))
    backtracking = grad_norm > config.gradient_tolerance
    iterations = 0
    while iterations < config.max_iterations:
        hessian = (diffs * curvature[:, None]).T @ diffs + ridge
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:  # H can be singular at l2_penalty = 0
            step = grad
        slope = float(grad @ step)
        if backtracking and not 0.0 < slope < math.inf:  # steepest descent
            step, slope = grad, float(grad @ grad)
        # Halve while the decrease Armijo asks for is finite and resolvable.
        length = 1.0
        while backtracking and (
            -math.inf < (target := value - _ARMIJO * length * slope) < value
        ):
            point = beta - length * step
            trial = _derivatives(point, diffs, l2_penalty)
            if trial[0] <= target:
                break
            length /= 2.0
        else:
            # Past the tolerance, or the Armijo decrease is below float
            # resolution: only full steps that lower the gradient from here.
            backtracking = False
            point = beta - step
            trial = _derivatives(point, diffs, l2_penalty)
            if not np.max(np.abs(trial[1])) < grad_norm:
                break
        beta, (value, grad, curvature) = point, trial
        grad_norm = np.max(np.abs(grad))
        backtracking = backtracking and grad_norm > config.gradient_tolerance
        iterations += 1
    if not (np.isfinite(value) and np.isfinite(beta).all()):
        raise NumericError("fit produced a non-finite objective or weights")
    return FitResult(
        beta=beta,
        final_objective=value,
        converged=bool(grad_norm <= config.gradient_tolerance),
        iterations=iterations,
    )
