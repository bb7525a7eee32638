"""Run one packmatch command with timing spans around each layer's public calls.

Usage: python trace_job.py TRACE_FILE PACKMATCH_ARGS...

Behaves like ``python -m packmatch PACKMATCH_ARGS...`` (same stdout, stderr
and exit code) and writes the spans and counters it recorded to TRACE_FILE.
Nothing inside packmatch is changed: public functions are replaced, from
outside, in every packmatch module namespace that holds them (and in the
``cli._ROUTES`` table), by wrappers that record a span per call.

A span's self time is its duration minus the durations of the spans it
directly contains. A function that calls itself is timed at the outermost
call and counted at every call.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import json
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Tracer:
    """Spans (inclusive and self time per name) and counters of one process."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child time]
        self._depth: Counter = Counter()

    def span(self, name, fn, after=None):
        stack, depth, counts = self._stack, self._depth, self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                depth[name] -= 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def replace(self, module_name, attr, name, after=None) -> None:
        """Wrap ``module.attr`` wherever a packmatch namespace holds it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self.span(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "packmatch" or mod_name.startswith("packmatch."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        routes = getattr(sys.modules.get("packmatch.cli"), "_ROUTES", {})
        for key, value in list(routes.items()):
            if value is original:
                routes[key] = wrapper

    def replace_method(self, module_name, cls_name, attr, name, after=None) -> None:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is not None:
            setattr(cls, attr, self.span(name, original, after))


class SamplingProxy:
    """Stands in for a numpy Generator: times and counts ``multinomial`` draws."""

    def __init__(self, rng, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer
        self.multinomial = tracer.span("montecarlo.sampling", self._multinomial)

    def _multinomial(self, n, pvals, size=None):
        batch = self._rng.multinomial(n, pvals, size=size)
        self._tracer.counts["montecarlo.packs_drawn"] += len(batch)
        return batch

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def install_montecarlo(tracer: Tracer, module) -> None:
    def examined(result, _args):
        tracer.counts["montecarlo.packs_examined"] += result

    original = getattr(module, "first_match_trial", None)
    if original is not None:
        timed = tracer.span("montecarlo.trial", original, examined)

        def first_match_trial(spec, rng):
            return timed(spec, SamplingProxy(rng, tracer))

        module.first_match_trial = first_match_trial
    tracer.replace("packmatch.montecarlo", "pair_match_rate", "montecarlo.pair")
    tracer.replace("packmatch.montecarlo", "first_match_experiment", "montecarlo.experiment")


class _AfterImport(importlib.abc.MetaPathFinder):
    """Calls ``hook(module)`` once ``name`` has been imported for the first time."""

    def __init__(self, name, hook) -> None:
        self.name, self.hook = name, hook

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        execute, hook = spec.loader.exec_module, self.hook

        def exec_module(module):
            execute(module)
            hook(module)

        spec.loader.exec_module = exec_module
        return spec


def install(tracer: Tracer) -> None:
    def classes(spectrum, args):
        tracer.counts["firstmatch.endpoint_classes"] += args[0].num_classes

    def survival_steps(law, _args):
        tracer.counts["firstmatch.survival_steps"] += law.last_index - 1

    def pairwise_terms(series, _args):
        tracer.counts["firstmatch.pairwise_terms"] += series.last_index - 1

    for attr in ("decimal_string", "significant_string"):
        tracer.replace("packmatch.exactmath", attr, "exactmath.render")
    tracer.replace("packmatch.exactmath", "binomial", "exactmath.binomial")
    for attr, name in [("count_recursive", "recursive"), ("count_closed", "closed"),
                       ("count_gf", "gf"), ("coincidence_probability", "probability")]:
        tracer.replace("packmatch.coincidence", attr, "coincidence." + name)
    table = getattr(sys.modules["packmatch.coincidence"], "CoincidenceTable", None)
    original_count = getattr(table, "count", None)
    if original_count is not None:
        timed_count = tracer.span("coincidence.count", original_count)

        def count(self, n, d):
            # Calls with d >= 2 consult the memo; each one that misses adds an entry.
            tracer.counts["coincidence.lookups"] += d >= 2
            if tracer._depth["coincidence.count"]:
                return timed_count(self, n, d)
            before = len(self)
            try:
                return timed_count(self, n, d)
            finally:
                tracer.counts["coincidence.memo_entries"] += len(self) - before

        table.count = count
    tracer.replace_method("packmatch.firstmatch", "EndpointSpectrum", "__init__",
                          "firstmatch.spectrum_build", classes)
    tracer.replace_method("packmatch.firstmatch", "EndpointSpectrum", "ensure_power",
                          "firstmatch.power_sums")
    tracer.replace_method("packmatch.firstmatch", "EndpointSpectrum", "survival", "firstmatch.newton")
    tracer.replace("packmatch.firstmatch", "exact_pmf_and_expectation", "firstmatch.oracle",
                   survival_steps)
    tracer.replace("packmatch.firstmatch", "pairwise_expectation", "firstmatch.pairwise",
                   pairwise_terms)
    tracer.replace("packmatch.firstmatch", "mixture_match_probability", "firstmatch.mixture")
    if "packmatch.montecarlo" in sys.modules:
        install_montecarlo(tracer, sys.modules["packmatch.montecarlo"])
    else:
        sys.meta_path.insert(0, _AfterImport("packmatch.montecarlo",
                                             lambda module: install_montecarlo(tracer, module)))


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import packmatch.cli as cli

    imported = clock()
    tracer = Tracer()
    install(tracer)
    main_span = tracer.span("cli.main", cli.main)
    code = 1
    try:
        code = main_span(argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"imported_at": imported, "numpy_loaded": "numpy" in sys.modules,
                       "total": tracer.total, "self": tracer.self_time,
                       "counts": tracer.counts}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
