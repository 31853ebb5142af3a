import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefvote import learning
from prefvote.experiments import gen_voter_comparisons
from prefvote.learning import (
    FitConfig,
    FitResult,
    NumericError,
    _derivatives,
    fit_voter,
    fit_voters,
    objective_and_gradient,
)
from prefvote.processes import _LOG_SQRT_2PI, log_normal_cdf

# mpmath log(ncdf(t)) at 40 digits
LOG_PHI = {
    0.0: -0.6931471805599453,
    -1.0: -1.8410216450092635,
    -10.0: -53.23128515051247,
    -40.0: -804.6084420137538,
}


def test_objective_matches_frozen_log_cdf():
    # one comparison with difference 1 at beta = (t,) costs -log Phi(t)
    for t, expected in LOG_PHI.items():
        value, _ = objective_and_gradient(np.array([t]), np.ones((1, 1)))
        assert value == pytest.approx(-expected, rel=1e-13)


def test_objective_at_zero():
    # every comparison contributes log Phi(0) = log 2 at beta = 0
    data = np.eye(3)
    value, grad = objective_and_gradient(np.zeros(3), data)
    assert value == pytest.approx(3 * math.log(2), rel=1e-12)
    # gradient factor at t=0 is phi(0)/Phi(0) = sqrt(2/pi)
    assert grad == pytest.approx(-math.sqrt(2 / math.pi) * np.ones(3), rel=1e-12)


def test_objective_penalty_term():
    data = np.array([[1.0, 0.0]])
    beta = np.array([3.0, -4.0])
    bare, _ = objective_and_gradient(beta, data, l2_penalty=0.0)
    ridged, grad = objective_and_gradient(beta, data, l2_penalty=0.5)
    assert ridged == pytest.approx(bare + 0.5 * 25.0, rel=1e-12)
    _, bare_grad = objective_and_gradient(beta, data, l2_penalty=0.0)
    assert grad == pytest.approx(bare_grad + np.array([3.0, -4.0]), rel=1e-12)
    # no comparisons: the penalty alone
    value, grad = objective_and_gradient(beta, np.empty((0, 2)), l2_penalty=0.5)
    assert value == 12.5
    assert np.array_equal(grad, [3.0, -4.0])


def test_objective_rejects_nan_and_mismatch():
    data = np.array([[1.0, float("nan")]])
    with pytest.raises(ValueError, match="NaN"):
        objective_and_gradient(np.zeros(2), data)
    good = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="dimension"):
        objective_and_gradient(np.zeros(3), good)
    with pytest.raises(ValueError, match="beta must be a 1-dimensional"):
        objective_and_gradient(5.0, np.ones((3, 2)))
    with pytest.raises(ValueError, match="beta must be finite"):
        objective_and_gradient(np.array([0.0, math.nan]), good)


def test_non_finite_differences_are_refused():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="NaN or inf"):
            fit_voter(np.array([[1.0, bad]]))
    for not_a_matrix in (np.array([1.0, 0.0]), 5.0, np.array(5.0)):
        with pytest.raises(ValueError, match="2-dimensional"):
            fit_voter(not_a_matrix)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    data = rng.normal(0, 1, (15, 4))
    step = 1e-6
    for _ in range(20):
        beta = rng.normal(0, 1.5, 4)
        value, grad = objective_and_gradient(beta, data, l2_penalty=1e-3)
        numeric = np.zeros(4)
        for k in range(4):
            up = beta.copy()
            up[k] += step
            down = beta.copy()
            down[k] -= step
            v_up, _ = objective_and_gradient(up, data, l2_penalty=1e-3)
            v_down, _ = objective_and_gradient(down, data, l2_penalty=1e-3)
            numeric[k] = (v_up - v_down) / (2 * step)
        assert np.linalg.norm(grad - numeric) <= 1e-5 * max(
            1.0, np.linalg.norm(grad)
        )


def _hessian_gap(beta, data, l2_penalty, step):
    """Kernel Hessian against central differences of the gradient."""
    _, _, curvature = _derivatives(beta, data, l2_penalty)
    d = beta.shape[0]
    hessian = (data * curvature[:, None]).T @ data + 2.0 * l2_penalty * np.eye(d)
    numeric = np.zeros((d, d))
    for k in range(d):
        offset = np.zeros(d)
        offset[k] = step
        _, g_up = objective_and_gradient(beta + offset, data, l2_penalty)
        _, g_down = objective_and_gradient(beta - offset, data, l2_penalty)
        numeric[:, k] = (g_up - g_down) / (2 * step)
    return np.linalg.norm(hessian - numeric) / np.linalg.norm(hessian)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(31)
    data = rng.normal(0, 1, (12, 4))
    for _ in range(10):
        beta = rng.normal(0, 1.5, 4)
        assert _hessian_gap(beta, data, 1e-3, 1e-4) <= 1e-6
    # t = -30 for the first comparison: phi/Phi only survives in log space
    beta = rng.normal(0, 1.0, 4)
    beta += (-30.0 - data[0] @ beta) * data[0] / (data[0] @ data[0])
    assert data[0] @ beta == pytest.approx(-30.0)
    assert _hessian_gap(beta, data, 1e-3, 1e-4) <= 1e-6
    # a separable voter's fitted weights: curvature and ridge both matter
    config = FitConfig()
    while True:
        data = gen_voter_comparisons(rng.standard_normal(10), 10, rng)
        beta = fit_voter(data, config).beta
        if (data @ beta > 0).all():
            break
    assert _hessian_gap(beta, data, config.l2_penalty, 1e-6) <= 1e-6


def test_objective_is_convex_along_segments():
    rng = np.random.default_rng(21)
    data = rng.normal(0, 1, (10, 3))
    for _ in range(25):
        beta1 = rng.normal(0, 2, 3)
        beta2 = rng.normal(0, 2, 3)
        lam = rng.uniform()
        mid = lam * beta1 + (1 - lam) * beta2
        v_mid, _ = objective_and_gradient(mid, data, l2_penalty=1e-6)
        v1, _ = objective_and_gradient(beta1, data, l2_penalty=1e-6)
        v2, _ = objective_and_gradient(beta2, data, l2_penalty=1e-6)
        assert v_mid <= lam * v1 + (1 - lam) * v2 + 1e-9


def test_fit_requires_data_and_consistent_dims():
    with pytest.raises(ValueError, match="at least one"):
        fit_voter([])
    with pytest.raises(ValueError, match="at least one"):
        fit_voter(np.empty((0, 2)))
    with pytest.raises(ValueError, match="differences need at least one feature"):
        fit_voter(np.empty((3, 0)))
    # rows of different lengths do not form an (n, d) array
    with pytest.raises(ValueError):
        fit_voter([[1.0, 0.0], [1.0, 0.0, 0.0]])


def test_fit_recovers_preference_direction():
    rng = np.random.default_rng(40)
    beta_true = np.array([2.0, -1.0, 0.0, 0.5])
    pairs = rng.normal(0, 1, (300, 2, 4))
    gaps = (pairs[:, 0] - pairs[:, 1]) @ beta_true
    noisy = gaps + rng.normal(0, 1, 300)
    data = np.array([
        pairs[k, 0] - pairs[k, 1] if noisy[k] >= 0 else pairs[k, 1] - pairs[k, 0]
        for k in range(300)
    ])
    result = fit_voter(data)
    assert result.converged
    cosine = result.beta @ beta_true / (
        np.linalg.norm(result.beta) * np.linalg.norm(beta_true)
    )
    assert cosine >= 0.9
    # held-out agreement: the fitted model predicts the true-model choice
    test_pairs = rng.normal(0, 1, (500, 2, 4))
    true_choice = (test_pairs[:, 0] - test_pairs[:, 1]) @ beta_true >= 0
    fit_choice = (test_pairs[:, 0] - test_pairs[:, 1]) @ result.beta >= 0
    assert (true_choice == fit_choice).mean() >= 0.9


def test_fit_separable_data_stays_finite():
    # perfectly separable single direction: the ridge keeps beta bounded
    data = np.tile([1.0, 0.0], (20, 1))
    result = fit_voter(data, FitConfig(l2_penalty=1e-6))
    assert np.isfinite(result.beta).all()
    assert math.isfinite(result.final_objective)
    assert result.beta[0] > 0
    assert result.iterations <= 500


def test_fit_is_the_optimum_not_a_stopping_point():
    # Ten comparisons in d=10 are mostly separable, so only the ridge term
    # bounds beta; the fit must still reach the one ridge optimum.
    rng = np.random.default_rng(8)
    config = FitConfig()
    separable = 0
    for _ in range(40):
        data = gen_voter_comparisons(rng.standard_normal(10), 10, rng)
        result = fit_voter(data, config)
        _, grad = objective_and_gradient(result.beta, data, config.l2_penalty)
        assert np.max(np.abs(grad)) <= config.gradient_tolerance
        assert result.converged
        separable += bool((data @ result.beta > 0).all())
    assert separable >= 10


@pytest.mark.parametrize("l2", [1e-6, 0.5])
def test_fit_stops_by_its_rule_not_its_budget(l2, monkeypatch):
    # At a positive penalty every fit ends before the budget, so a tenfold
    # budget changes no bit, for separable and noisy voters alike.
    rng = np.random.default_rng(14)
    arrays = [
        gen_voter_comparisons(rng.standard_normal(d), n, rng)
        for d, n in [(2, 3), (10, 10), (10, 30), (23, 10), (23, 100)] * 6
    ] + [rng.normal(0.0, 1.0, (40, 3)) for _ in range(6)]
    config = FitConfig(l2_penalty=l2)
    groups: dict[int, list[np.ndarray]] = {}  # one call per dimension d
    for data in arrays:
        groups.setdefault(data.shape[1], []).append(data)
    default = {d: fit_voters(group, config) for d, group in groups.items()}
    monkeypatch.setattr(FitConfig, "max_iterations", 10 * FitConfig.max_iterations)
    assert all(_same_fit(fit, fit_voters(groups[d], config)) for d, fit in default.items())
    assert all((fit.iterations < FitConfig.max_iterations).all() for fit in default.values())
    separable = [
        bool((data @ beta > 0).all())
        for d, fit in default.items()
        for data, beta in zip(groups[d], fit.beta)
    ]
    assert 5 <= sum(separable) <= len(arrays) - 5


def test_singular_solve_at_the_default_penalty(monkeypatch):
    # The ridge term 2e-6 is lost in rounding next to a curvature of 1e40,
    # so H is singular although the penalty is positive.
    singular = []
    solve = np.linalg.solve

    def counting_solve(*args):
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            singular.append(args)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    result = fit_voter(np.array([[1e20, 1e20]] * 3))
    assert singular
    assert np.isfinite(result.beta).all() and result.converged


@pytest.mark.parametrize(
    "data",
    [
        np.random.default_rng(5).normal(0.0, 1.0, (3, 6)),  # d > n
        np.tile([1.0, 0.0], (20, 1)),  # separable along one direction
    ],
    ids=["d_above_n", "single_direction"],
)
def test_unpenalized_fit_stays_finite(data, monkeypatch):
    # No penalty: the Hessian can be singular and separable data have no
    # optimum, yet the fit must stop within budget with finite weights.
    config = FitConfig(l2_penalty=0.0)
    for budget in (1, 50, 500):
        monkeypatch.setattr(FitConfig, "max_iterations", budget)
        result = fit_voter(data, config)
        assert np.isfinite(result.beta).all()
        assert math.isfinite(result.final_objective)
        assert result.iterations <= budget
        assert (data @ result.beta > 0).all()


def test_non_finite_objective_raises_numeric_error():
    # The Hessian d * d overflows for one difference d this large, so the
    # first step from zero is the gradient, whose ridge term overflows too.
    for scale in (1e300, 1e155):
        with pytest.raises(NumericError):
            fit_voter(np.array([[scale]]))


def test_numeric_error_names_the_first_failing_voter():
    # Voter 0 fits; voters 1 and 2 both fail, and the error names voter 1.
    arrays = [np.array([[1.0]]), np.array([[1e300]]), np.array([[1e155]])]
    with pytest.raises(NumericError, match="^voter 1: fit produced") as raised:
        fit_voters(arrays)
    first = fit_voters(arrays[:1])
    assert raised.value.voter == 1
    assert first.converged.all() and np.isfinite(first.beta).all()


def test_fit_voters_refuses_voters_of_different_dimensions():
    arrays = [np.ones((3, 2)), np.ones((4, 2)), np.ones((3, 5))]
    with pytest.raises(ValueError, match=r"one dimension d, got \[2, 5\]"):
        fit_voters(arrays)


def _bits(fit: FitResult) -> list[tuple]:
    """Dtype, shape and bytes of all four fields, of one row or many."""
    fields = (fit.beta, fit.final_objective, fit.converged, fit.iterations)
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, fields)]


def _same_fit(first: FitResult, second: FitResult) -> bool:
    """Equal to the bit in all four fields."""
    return _bits(first) == _bits(second)


def _row(fit: FitResult, k: int) -> FitResult:
    """Row k of ``fit_voters``' result, in ``fit_voter``'s types."""
    return FitResult(
        fit.beta[k],
        float(fit.final_objective[k]),
        bool(fit.converged[k]),
        int(fit.iterations[k]),
    )


# The package's fit silences the same overflows; the reference must too.
@np.errstate(over="ignore", invalid="ignore")
def _loop_fit(diffs: np.ndarray, config: FitConfig) -> FitResult:
    """The one-voter Newton loop that the stacked one replaced: the reference.

    It makes the same choices in Python scalars, one voter at a time, with
    the same arithmetic, so results must agree to the bit.
    """
    l2_penalty, tolerance = config.l2_penalty, config.gradient_tolerance

    def derivatives(beta):
        t = diffs @ beta
        log_cdf = log_normal_cdf(t)
        ratio = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_cdf)
        value = -float(log_cdf.sum()) + l2_penalty * float(beta @ beta)
        grad = -(diffs * ratio[:, None]).sum(axis=0) + 2.0 * l2_penalty * beta
        return value, grad, ratio * (t + ratio)

    d = diffs.shape[1]
    beta = np.zeros(d)
    ridge = 2.0 * l2_penalty * np.eye(d)
    value, grad, curvature = derivatives(beta)
    grad_norm = np.max(np.abs(grad))
    backtracking = True
    iterations = 0
    while iterations < config.max_iterations:
        hessian = (diffs * curvature[:, None]).T @ diffs + ridge
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = grad
        slope = float(grad @ step)
        if backtracking and not 0.0 < slope < math.inf:
            step, slope = grad, float(grad @ grad)
        length = 1.0
        while backtracking and (
            -math.inf < (target := value - learning._ARMIJO * length * slope) < value
        ):
            point = beta - length * step
            trial = derivatives(point)
            if trial[0] <= target:
                break
            length /= 2.0
        else:
            backtracking = False
            point = beta - step
            trial = derivatives(point)
            if not np.max(np.abs(trial[1])) < grad_norm:
                break
        beta, (value, grad, curvature) = point, trial
        grad_norm = np.max(np.abs(grad))
        iterations += 1
    return FitResult(beta, value, bool(grad_norm <= tolerance), iterations)


@st.composite
def _voters(draw):
    """Voters of one dimension and mixed sizes, some separable or degenerate.

    All of one call's differences are scaled by 1 or 100.  Large ones make
    more Newton steps from zero overshoot, so the line search halves them
    more than once.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 100.0]))
    arrays = []
    for _ in range(draw(st.integers(1, 7))):
        data = rng.normal(0.0, 1.0, (draw(st.sampled_from([1, 3, 8])), d))
        kind = draw(st.sampled_from(["noisy", "separable", "zero column"]))
        if kind == "separable":
            data *= np.where(data @ rng.normal(0.0, 1.0, d) < 0, -1.0, 1.0)[:, None]
        elif kind == "zero column":  # a singular Hessian at l2_penalty = 0
            data[:, -1] = 0.0
        arrays.append(scale * data)
    return arrays


#: A voter whose Hessian is singular at l2_penalty = 0, and whose fit a
#: tolerance gate stopped 3 Newton steps early, at a higher objective.
ZERO_COLUMN = np.random.default_rng(0).normal(0.0, 1.0, (8, 2))
ZERO_COLUMN[:, 1] = 0.0


@settings(max_examples=80, deadline=None)
@given(
    _voters(),
    st.sampled_from([0.0, 1e-6, 0.5]),
    st.sampled_from([1, 3, 500]),
)
@example(arrays=[ZERO_COLUMN], l2=0.0, budget=500)
def test_a_voter_fits_the_same_whichever_voters_share_the_call(arrays, l2, budget):
    config = FitConfig(l2_penalty=l2)
    with patch.object(FitConfig, "max_iterations", budget):
        together = fit_voters(arrays, config)
        alone = [fit_voter(data, config) for data in arrays]
        loop = [_loop_fit(data, config) for data in arrays]
    assert together.beta.shape == (len(arrays), arrays[0].shape[1])
    rows = [_row(together, k) for k in range(len(arrays))]
    assert all(map(_same_fit, rows, alone))
    assert all(map(_same_fit, rows, loop))


def test_fit_voters_splits_large_groups_into_blocks():
    # More voters of one shape than a block holds, between two other shapes.
    rng = np.random.default_rng(17)
    count = learning._BLOCK + 3
    arrays = [gen_voter_comparisons(rng.standard_normal(4), 6, rng) for _ in range(count)]
    arrays[1:1] = [rng.normal(0.0, 1.0, (9, 4))]
    arrays.append(rng.normal(0.0, 1.0, (2, 4)))
    together = fit_voters(arrays)
    assert together.beta.shape == (len(arrays), 4)
    assert all(_same_fit(_row(together, k), fit_voter(data)) for k, data in enumerate(arrays))
    empty = fit_voters([])
    assert empty.beta.shape == (0, 0)
    assert [field.shape for field in (empty.final_objective, empty.converged)] == [(0,), (0,)]


def test_fit_takes_newton_steps_when_the_slope_underflows():
    # grad @ step underflows to 0 here; the Newton step is still right.
    data = np.array([[1e-300], [-2e-300]])
    config = FitConfig()
    result = fit_voter(data, config)
    optimum = -math.sqrt(2 / math.pi) * 1e-300 / (2 * config.l2_penalty)
    assert result.iterations <= 2
    assert result.beta[0] == pytest.approx(optimum, rel=1e-9)


def test_fit_single_comparison_aligns_with_difference():
    data = np.array([[2.0, -1.0]])
    result = fit_voter(data, FitConfig(l2_penalty=1e-4))
    direction = result.beta / np.linalg.norm(result.beta)
    expected = np.array([2.0, -1.0]) / math.sqrt(5.0)
    assert direction == pytest.approx(expected, abs=1e-6)


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    data = rng.normal(0, 1, (40, 3))
    assert _same_fit(fit_voter(data), fit_voter(data))


def test_fit_objective_decreases_along_newton_path(monkeypatch):
    # A fit capped at k Newton steps returns the full fit's k-th iterate.
    rng = np.random.default_rng(33)
    data = rng.normal(0, 1, (60, 4))
    steps = fit_voter(data).iterations
    seen = []
    for k in range(1, steps + 1):
        monkeypatch.setattr(FitConfig, "max_iterations", k)
        seen.append(fit_voter(data))
    assert [result.iterations for result in seen] == list(range(1, steps + 1))
    values = [objective_and_gradient(result.beta, data, 1e-6)[0] for result in seen]
    assert len(values) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(l2_penalty=-1.0)
    # The budget and the tolerance are the solver's constants, not settings.
    config = FitConfig()
    assert (config.max_iterations, config.gradient_tolerance) == (500, 1e-8)
    for field in ("max_iterations", "gradient_tolerance"):
        with pytest.raises(TypeError, match=field):
            FitConfig(**{field: 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("l2_penalty", math.nan),
        ("l2_penalty", math.inf),
        ("l2_penalty", "0.1"),
        pytest.param("l2_penalty", 10**400, id="l2_penalty-past-float-range"),
    ],
)
def test_fit_config_refuses_non_integer_and_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        FitConfig(**{field: value})


@pytest.mark.parametrize(
    "penalty", [math.nan, -1.0, True, "x", 10**400],
    ids=["nan", "negative", "bool", "string", "past-float-range"],
)
def test_objective_checks_the_penalty_as_fit_config_does(penalty):
    with pytest.raises(ValueError, match="l2_penalty"):
        objective_and_gradient(np.zeros(2), np.ones((1, 2)), l2_penalty=penalty)


def test_fit_config_normalizes_numeric_types():
    config = FitConfig(l2_penalty=0)
    assert type(config.l2_penalty) is float and config.l2_penalty == 0.0
    assert type(FitConfig(np.float32(0.5)).l2_penalty) is float


def test_fit_result_reports_unconverged_when_budget_tiny(monkeypatch):
    rng = np.random.default_rng(50)
    data = rng.normal(0, 1, (80, 6))
    monkeypatch.setattr(FitConfig, "max_iterations", 1)
    result = fit_voter(data)
    assert not result.converged
    assert result.iterations <= 1
