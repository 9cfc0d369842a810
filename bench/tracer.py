"""Span tracer that instruments abcsmc from outside the package.

`Tracer.install()` replaces the public functions and methods named in
`instrument()` with timing wrappers, in every abcsmc module that holds a
reference to them (``cli`` imports the samplers by name, ``samplers`` imports
``simulate_model_batch`` and ``distance_fn`` by name).  `Tracer.uninstall()`
puts every original object back and checks that it did.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans opened directly inside it.  Spans and counters stay in
memory; the benchmark reads them when a unit of work ends.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from abcsmc import analysis, cli, core, distance, models, samplers, simulate

MODULES = (core, distance, simulate, samplers, models, cli, analysis)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # span key -> self time, seconds
        self.counts = defaultdict(float)  # counter key -> total
        self.rows = defaultdict(list)  # simulate.<kind> -> rows of each call
        self.ess_frac = []  # final-population ESS / N of every sampler call
        self._stack = []  # per open span: time covered by its child spans
        self._patched = []  # (owner, attribute, original object)

    # -- spans and counters ---------------------------------------------------

    def timed(self, key: str, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[key] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt

    def count_populations(self, config, populations) -> None:
        """Counters of one sampler call, read from the populations it returned."""
        if not populations:
            return
        proposals = sum(p.proposals for p in populations)
        # every in-prior proposal costs sim_trials * replicates counted sims
        in_prior = populations[-1].sim_count // (config.sim_trials * config.replicates)
        self.counts["samplers.proposals"] += proposals
        self.counts["samplers.populations"] += len(populations)
        self.counts["samplers.accepted"] += sum(len(p) for p in populations)
        self.counts["samplers.out_of_prior"] += proposals - in_prior
        self.ess_frac.append(_ess_frac(populations[-1]))

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _replace_method(self, cls, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrapper)
        self._patched.append((cls, name, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for original, wrapper in instrument(self):
            if isinstance(original, tuple):
                self._replace_method(*original, wrapper)
            else:
                self._replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
               if (vars(o).get(a) is not orig)]
        self._patched.clear()
        if bad:
            raise RuntimeError(f"tracer left wrapped attributes behind: {bad}")


def _ess_frac(population) -> float:
    """Effective sample size over particle count, summed over models (weights
    are normalised within each model)."""
    ess = 0.0
    for label in population.models_present() or [None]:
        w = population.weights(label)
        w = w / w.sum()
        ess += 1.0 / float(np.sum(w * w))
    return ess / len(population)


def instrument(tr: Tracer):
    """(original, wrapper) pairs; an original given as (class, name) is a
    method replaced on its class, any other original is replaced wherever an
    abcsmc module refers to it."""

    def sampler(fn):
        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            result = tr.timed("samplers", fn, config, *args, **kwargs)
            tr.count_populations(config, result.populations)
            return result
        return wrapper

    def simulate_batch(fn):
        @functools.wraps(fn)
        def wrapper(model, thetas, *args, **kwargs):
            key = f"simulate.{model.kind}"
            states, ok = tr.timed(key, fn, model, thetas, *args, **kwargs)
            tr.counts[key + ".sims"] += len(ok)
            tr.counts[key + ".failed"] += int(np.count_nonzero(~ok))
            tr.rows[key].append(len(ok))
            return states, ok
        return wrapper

    def distance_lookup(fn):
        @functools.wraps(fn)
        def wrapper(name):
            core_fn = fn(name)

            def timed_core(obs, sims):
                tr.counts["distance.calls"] += 1
                tr.counts["distance.rows"] += sims.shape[0]
                return tr.timed("distance", core_fn, obs, sims)
            return timed_core
        return wrapper

    def method(cls, name, key, count=None):
        fn = cls.__dict__[name]

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if count is not None:
                count(*args)
            return tr.timed(key, fn, self, *args, **kwargs)
        return (cls, name), wrapper

    def pairs(sources, targets):
        tr.counts["core.kernel_density.pairs"] += len(sources) * len(targets)

    def writer(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.timed("cli.write", fn, *args, **kwargs)
        return wrapper

    out = [(fn, sampler(fn)) for fn in (
        samplers.abc_smc, samplers.abc_prc_baseline, samplers.abc_smc_model_selection)]
    out.append((simulate.simulate_model_batch, simulate_batch(simulate.simulate_model_batch)))
    out.append((distance.distance_fn, distance_lookup(distance.distance_fn)))
    out.append(method(samplers.AcceptanceTest, "evaluate_batch", "samplers.evaluate"))
    out.append(method(core.PriorSpec, "sample", "core.prior_sample"))
    out.append(method(core.PriorSpec, "density_many", "core.prior_density"))
    out.append(method(core.KernelSpec, "perturb_many", "core.perturb"))
    out.append(method(core.KernelSpec, "density_matrix", "core.kernel_density", pairs))
    out += [(fn, writer(fn)) for fn in (
        cli.write_population_csv, cli.write_run_ledger, cli.write_model_counts)]
    return out
