"""From many per-voter models to one decision.

The summary step collapses fitted voter weights into their arithmetic
mean.  Among all single models of the same family, the mean weight vector
minimizes the KL divergence from the per-alternative distribution of a
uniformly random voter's noisy utility, so nothing fancier is needed.
The decision step then picks the alternative with the highest summary
utility, which for both supported families equals the Borda winner of the
summary process in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .profiles import Alternative, _as_count, _finite_array
from .processes import _scored_alternatives


@dataclass(frozen=True)
class SummaryModel:
    """Nonempty, finite mean voter weights plus the population size they summarize."""

    beta_hat: np.ndarray
    n_voters: int

    def __post_init__(self) -> None:
        beta = _finite_array(self.beta_hat, "beta_hat")
        if beta.shape[0] == 0:
            raise ValueError("beta_hat needs at least one feature")
        n_voters = _as_count(self.n_voters, "n_voters")
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "n_voters", n_voters)

    @property
    def dim(self) -> int:
        return self.beta_hat.shape[0]


def as_population(betas: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Voter weight vectors as one ``(N, d)`` float array.

    A float array passes through uncopied; a list of equal-length vectors
    is stacked.  N and d must be at least 1 and every weight finite.
    """
    population = _finite_array(betas, "voter models", ndim=2)
    if population.shape[0] == 0:
        raise ValueError("need a nonempty (N, d) population of voter models")
    if population.shape[1] == 0:
        raise ValueError("voter models need at least one feature")
    return population


def summarize(betas: np.ndarray | Sequence[np.ndarray]) -> SummaryModel:
    """Average per-voter weight vectors into a summary model.

    ``betas`` is the ``(N, d)`` population; a list of vectors also works.
    """
    population = as_population(betas)
    return SummaryModel(
        beta_hat=population.mean(axis=0), n_voters=population.shape[0]
    )


def decide(model: SummaryModel, alternatives: Sequence[Alternative]) -> Alternative:
    """Pick the alternative with the highest summary utility.

    Exact ties go to the lexicographically smallest id.  Every utility must
    be finite.
    """
    alts, utilities = _scored_alternatives(alternatives, model.beta_hat)
    return alts[int(np.argmax(utilities))]

