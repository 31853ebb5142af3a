"""Per-voter utility learning from pairwise choices.

Each voter supplies comparisons (chosen feature vector, rejected feature
vector).  Under the normal-noise ranking model the log-likelihood of one
comparison is log Phi(beta . (chosen - rejected)), so the fit maximizes

    sum_j log Phi(beta . d_j)  -  lambda * ||beta||^2

with d_j the feature difference.  The negated objective is convex; a
small ridge term keeps it bounded when the data are linearly separable.
Everything here is a pure function of its arguments, so fitting many
voters concurrently needs no coordination.

A voter's comparisons are one ``(n, d)`` float array whose row j is
d_j = chosen_j - rejected_j; the file parser and the simulator produce
exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize, special

from .profiles import _as_finite, _as_int, _finite_vector

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class NumericError(RuntimeError):
    """The optimizer produced a non-finite objective or parameters."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the per-voter fit."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    l2_penalty: float = 1e-6
    initial_beta: np.ndarray | None = None

    def __post_init__(self) -> None:
        max_iterations = _as_int(self.max_iterations, "max_iterations")
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
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
                _finite_vector(self.initial_beta, "initial_beta"),
            )


@dataclass(frozen=True)
class FitResult:
    """Fitted weights plus convergence diagnostics."""

    beta: np.ndarray
    final_objective: float
    converged: bool
    iterations: int


def log_std_normal_cdf(t):
    """log Phi(t), finite and accurate far into the left tail.

    Accepts scalars or arrays; rejects NaN input.
    """
    arr = np.asarray(t, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("log_std_normal_cdf got NaN input")
    out = special.log_ndtr(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _cdf_ratio(t: np.ndarray) -> np.ndarray:
    """phi(t) / Phi(t), computed in log space to survive t << 0."""
    return np.exp(-0.5 * t * t - _LOG_SQRT_2PI - special.log_ndtr(t))


#: Cap on the Newton polish loop appended after the quasi-Newton solve.
_POLISH_MAX_STEPS = 25


def _diff_matrix(data: np.ndarray) -> np.ndarray:
    """Comparisons as one ``(n, d)`` chosen-minus-rejected float array.

    A 2-D float array passes through uncopied.  Every difference must be
    finite.
    """
    diffs = np.asarray(data, dtype=float)
    if diffs.ndim != 2:
        raise ValueError("comparison differences must form an (n, d) array")
    if not np.isfinite(diffs).all():
        raise ValueError("comparison differences contain NaN or inf")
    return diffs


def objective_and_gradient(
    beta: np.ndarray, data: np.ndarray, l2_penalty: float = 0.0
) -> tuple[float, np.ndarray]:
    """Negative penalized log-likelihood and its gradient at ``beta``."""
    beta = np.asarray(beta, dtype=float)
    diffs = _diff_matrix(data)
    if diffs.shape[1] != beta.shape[0]:
        raise ValueError(
            f"beta has dimension {beta.shape[0]}, comparisons have "
            f"{diffs.shape[1]}"
        )
    return _value_and_grad(beta, diffs, l2_penalty)


def _value_and_grad(
    beta: np.ndarray, diffs: np.ndarray, l2_penalty: float
) -> tuple[float, np.ndarray]:
    t = diffs @ beta
    value = -float(special.log_ndtr(t).sum()) + l2_penalty * float(beta @ beta)
    grad = -(diffs * _cdf_ratio(t)[:, None]).sum(axis=0) + 2.0 * l2_penalty * beta
    return value, grad


def _hessian(beta: np.ndarray, diffs: np.ndarray, l2_penalty: float) -> np.ndarray:
    # -d/dt [phi/Phi](t) = r(t) (t + r(t)), positive for all t, so the
    # Hessian is positive semidefinite plus the ridge term.
    t = diffs @ beta
    ratio = _cdf_ratio(t)
    weights = ratio * (t + ratio)
    d = diffs.shape[1]
    return (diffs * weights[:, None]).T @ diffs + 2.0 * l2_penalty * np.eye(d)


def fit_voter(
    data: np.ndarray,
    config: FitConfig | None = None,
    callback: Callable[[np.ndarray], None] | None = None,
) -> FitResult:
    """Fit one voter's utility weights by penalized maximum likelihood.

    ``data`` is the voter's ``(n, d)`` chosen-minus-rejected array.

    Deterministic: same data and config give the same result.  The
    returned ``converged`` flag re-checks the gradient inf-norm against
    the configured tolerance after the solver stops, independently of the
    solver's own stopping reason.
    """
    if config is None:
        config = FitConfig()
    if len(data) == 0:
        raise ValueError("need at least one comparison to fit")
    diffs = _diff_matrix(data)
    d = diffs.shape[1]
    if config.initial_beta is not None:
        if config.initial_beta.shape != (d,):
            raise ValueError(
                f"initial_beta has shape {config.initial_beta.shape}, "
                f"expected ({d},)"
            )
        x0 = config.initial_beta
    else:
        x0 = np.zeros(d)
    result = optimize.minimize(
        _value_and_grad,
        x0,
        args=(diffs, config.l2_penalty),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={
            "maxiter": config.max_iterations,
            "gtol": config.gradient_tolerance,
            "ftol": 0.0,
        },
    )
    beta = np.asarray(result.x, dtype=float)
    iterations = int(result.nit)
    value, grad = _value_and_grad(beta, diffs, config.l2_penalty)
    # The solver stops once objective improvements sink below float
    # resolution, which can strand the gradient slightly above a tight
    # tolerance.  Damped Newton steps on the analytic Hessian keep
    # shrinking the gradient itself; each accepted step must lower its
    # inf-norm, so the loop terminates.
    polish_budget = min(_POLISH_MAX_STEPS, config.max_iterations - iterations)
    for _ in range(max(0, polish_budget)):
        grad_norm = np.max(np.abs(grad))
        if grad_norm <= config.gradient_tolerance:
            break
        try:
            step = np.linalg.solve(
                _hessian(beta, diffs, config.l2_penalty), grad
            )
        except np.linalg.LinAlgError:
            break
        accepted = False
        for _ in range(13):
            candidate = beta - step
            cand_value, cand_grad = _value_and_grad(
                candidate, diffs, config.l2_penalty
            )
            if np.isfinite(cand_value) and np.max(np.abs(cand_grad)) < grad_norm:
                beta, value, grad = candidate, cand_value, cand_grad
                accepted = True
                break
            step = step / 2.0
        if not accepted:
            break
        iterations += 1
        if callback is not None:
            callback(beta.copy())
    if not (np.isfinite(value) and np.isfinite(beta).all()):
        raise NumericError("fit produced a non-finite objective or weights")
    return FitResult(
        beta=beta,
        final_objective=value,
        converged=bool(np.max(np.abs(grad)) <= config.gradient_tolerance),
        iterations=iterations,
    )
