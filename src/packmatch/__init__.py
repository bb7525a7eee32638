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

from . import coincidence, exactmath

__version__ = "0.8.5"

# Each exported name and the module that defines it. __getattr__ below serves
# every name from its module on first access: coincidence and exactmath are
# loaded by the import above, firstmatch runs then, and montecarlo, which
# loads numpy, is imported then.
_EXPORTS = {
    "DEFAULT_PRECISION": "exactmath",
    "DEFAULT_TOLERANCE": "exactmath",
    "EndpointSpectrum": "firstmatch",
    "FirstMatchLaw": "firstmatch",
    "FirstMatchReport": "montecarlo",
    "PackSizeDistribution": "firstmatch",
    "PackSpec": "coincidence",
    "RNG_ALGORITHM": "montecarlo",
    "SeriesExpectation": "firstmatch",
    "TrialReport": "montecarlo",
    "binomial": "exactmath",
    "coincidence_probability": "coincidence",
    "compositions": "coincidence",
    "count_closed": "coincidence",
    "count_gf": "coincidence",
    "count_recursive": "coincidence",
    "decimal_string": "exactmath",
    "distinct_pack_count": "coincidence",
    "endpoint_histogram": "montecarlo",
    "endpoint_probability": "coincidence",
    "endpoint_spectrum": "firstmatch",
    "exact_pmf_and_expectation": "firstmatch",
    "factorial": "exactmath",
    "first_match_experiment": "montecarlo",
    "first_match_trial": "montecarlo",
    "mixture_match_probability": "firstmatch",
    "multinomial": "exactmath",
    "pair_match_rate": "montecarlo",
    "pairwise_expectation": "firstmatch",
    "pairwise_pmf": "firstmatch",
    "recursive_columns": "coincidence",
    "significant_string": "exactmath",
    "two_color_probability": "coincidence",
}

__all__ = [*_EXPORTS, "__version__"]

# The first-match module is the largest, and the counting commands never run
# it. It is registered in sys.modules now, where tools that wrap its functions
# look for it (bench/trace_job.py does, right after importing packmatch.cli),
# and it runs on first attribute access: an import of it, or one of its names.
_spec = importlib.util.find_spec(".firstmatch", __name__)
_spec.loader = importlib.util.LazyLoader(_spec.loader)
firstmatch = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = firstmatch
_spec.loader.exec_module(firstmatch)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
