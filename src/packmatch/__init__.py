"""Exact match probabilities and first-duplicate statistics for random packs.

A pack is ``n`` items drawn independently and uniformly over ``d`` colors.
The package computes, in exact arithmetic, the probability that two packs
match (three independent counting routes), the distribution and expectation
of the number of packs bought until the first duplicate (a pairwise
closed-form model and an exact symmetric-polynomial oracle), match
probabilities under pack-size mixtures, and seeded Monte Carlo checks of all
of the above.
"""

import importlib.util
import sys

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
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    binomial,
    decimal_string,
    factorial,
    multinomial,
    significant_string,
)

__version__ = "0.7.0"

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

# The first-match module is the largest, and the counting commands never run
# it. It is registered in sys.modules now, where tools that wrap its functions
# look for it (bench/trace_job.py does, right after importing packmatch.cli),
# and it runs on first attribute access: an import of it, or one of its names.
_spec = importlib.util.find_spec(".firstmatch", __name__)
_spec.loader = importlib.util.LazyLoader(_spec.loader)
firstmatch = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = firstmatch
_spec.loader.exec_module(firstmatch)

# Served on first access, from the module named here, so that importing the
# package runs neither module; montecarlo loads numpy.
_LAZY_NAMES = {
    "EndpointSpectrum": "firstmatch",
    "FirstMatchLaw": "firstmatch",
    "PackSizeDistribution": "firstmatch",
    "SeriesExpectation": "firstmatch",
    "endpoint_spectrum": "firstmatch",
    "exact_pmf_and_expectation": "firstmatch",
    "mixture_match_probability": "firstmatch",
    "pairwise_expectation": "firstmatch",
    "pairwise_pmf": "firstmatch",
    "RNG_ALGORITHM": "montecarlo",
    "FirstMatchReport": "montecarlo",
    "TrialReport": "montecarlo",
    "endpoint_histogram": "montecarlo",
    "first_match_experiment": "montecarlo",
    "first_match_trial": "montecarlo",
    "pair_match_rate": "montecarlo",
}


def __getattr__(name: str) -> object:
    if name in _LAZY_NAMES:
        module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
