"""Exact match probabilities and first-duplicate statistics for random packs.

A pack is ``n`` items drawn independently and uniformly over ``d`` colors.
The package computes, in exact arithmetic, the probability that two packs
match (three independent counting routes), the distribution and expectation
of the number of packs bought until the first duplicate (a pairwise
closed-form model and an exact symmetric-polynomial oracle), match
probabilities under pack-size mixtures, and seeded Monte Carlo checks of all
of the above.
"""

from .coincidence import (
    PackSpec,
    coincidence_probability,
    compositions,
    count_closed,
    count_gf,
    count_recursive,
    distinct_pack_count,
    endpoint_probability,
    recursive_columns,
    two_color_probability,
)
from .exactmath import (
    binomial,
    decimal_string,
    factorial,
    multinomial,
    significant_string,
)
from .firstmatch import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    EndpointSpectrum,
    FirstMatchLaw,
    PackSizeDistribution,
    SeriesExpectation,
    endpoint_spectrum,
    exact_pmf_and_expectation,
    mixture_match_probability,
    pairwise_expectation,
    pairwise_pmf,
)

__version__ = "0.2.0"

__all__ = [
    "DEFAULT_PRECISION",
    "DEFAULT_TOLERANCE",
    "EndpointSpectrum",
    "FirstMatchLaw",
    "FirstMatchReport",
    "PackSizeDistribution",
    "PackSpec",
    "RNG_ALGORITHM",
    "SeriesExpectation",
    "TrialReport",
    "binomial",
    "coincidence_probability",
    "compositions",
    "count_closed",
    "count_gf",
    "count_recursive",
    "decimal_string",
    "distinct_pack_count",
    "endpoint_histogram",
    "endpoint_probability",
    "endpoint_spectrum",
    "exact_pmf_and_expectation",
    "factorial",
    "first_match_experiment",
    "first_match_trial",
    "mixture_match_probability",
    "multinomial",
    "pair_match_rate",
    "pairwise_expectation",
    "pairwise_pmf",
    "recursive_columns",
    "significant_string",
    "two_color_probability",
    "__version__",
]

# Served on first access so that importing the package does not load numpy.
_MONTECARLO_NAMES = frozenset(
    {
        "RNG_ALGORITHM",
        "FirstMatchReport",
        "TrialReport",
        "endpoint_histogram",
        "first_match_experiment",
        "first_match_trial",
        "pair_match_rate",
    }
)


def __getattr__(name: str) -> object:
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
