"""Learn voter utility models from pairwise choices, aggregate, decide.

The pieces compose left to right: ``learning`` fits one weight vector
per voter from observed choices, ``pipeline`` averages voters and picks
winners, ``profiles``/``processes``/``scc`` supply the voting-theory
substrate (rankings, ranking processes, choice rules, axiom checks), and
``experiments`` measures end-to-end accuracy on synthetic populations.
"""

from .learning import (
    FitConfig,
    FitResult,
    NumericError,
    fit_voter,
    fit_voters,
    objective_and_gradient,
)
from .pipeline import SummaryModel, decide, summarize
from .processes import (
    ExactProfileUnsupported,
    ProcessSpec,
    estimate_profile,
    exact_profile,
    mode_utility,
    pairwise_prob,
)
from .profiles import (
    Alternative,
    AnonymousProfile,
    Ranking,
    marginalize_profile,
    swap_dominates,
)
from .scc import (
    SCC_KINDS,
    EfficiencyReport,
    StabilityReport,
    apply_scc,
    check_profile_stability,
    check_stability,
    check_strong_swd_efficiency,
    check_swd_efficiency,
    copeland_scores,
)

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "AnonymousProfile",
    "EfficiencyReport",
    "ExactProfileUnsupported",
    "FitConfig",
    "FitResult",
    "NumericError",
    "ProcessSpec",
    "Ranking",
    "SCC_KINDS",
    "StabilityReport",
    "SummaryModel",
    "apply_scc",
    "check_profile_stability",
    "check_stability",
    "check_strong_swd_efficiency",
    "check_swd_efficiency",
    "copeland_scores",
    "decide",
    "estimate_profile",
    "exact_profile",
    "fit_voter",
    "fit_voters",
    "marginalize_profile",
    "mode_utility",
    "objective_and_gradient",
    "pairwise_prob",
    "summarize",
    "swap_dominates",
]
