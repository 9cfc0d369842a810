"""abcsmc benchmark: one workload, closed loop, for a fixed measuring time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lv_smc --seed 1 --seconds 25 --trace 0

One process runs one caller: each unit of work starts after the previous one
returned.  BLAS/OpenMP pools are pinned to one thread, `ABCSMC_WORKERS` is
unset and no worker count is passed, so the program runs on one thread.

`--trace 0` times units with nothing instrumented and reports the end-to-end
metrics.  `--trace 1` runs each unit twice on the same seed, plain and with
the tracer of `tracer.py` installed, checks that both produce identical
outputs, and reports the per-layer metrics plus a kernel sweep.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

A run must end within 180 s.  No unit starts after `LATEST_START_S` of the
run, so one slow unit (see the proposal budget of `sir_select` in
workloads.py) cannot push a run past that limit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy and abcsmc are imported inside functions, after main() has pinned the
# thread pools and put ./src on the path

SETUP_REPEATS = 9
MIN_UNITS = 3  # a run's medians take at least this many units
LATEST_START_S = 60.0  # seconds after start-up; later, no unit or pair starts
KINDS = ("ode", "dde", "ssa", "direct")
SWEEP_SIZES = (256, 2048, 8192)
SWEEP_MIN_S = 0.1  # repeat a sweep point until it has run this long
# (model, setup whose prior the sweep's parameters are drawn from)
SWEEP_MODELS = (
    ("lv_ode", "lv_ode"),
    ("repressilator_ode", "repressilator_ode"),
    ("sir_basic_closed", "sir_selection"),
    ("sir_delay_closed", "sir_selection"),
)


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ABCSMC_WORKERS", None)


def _import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing numpy and abcsmc,
    the part of set-up a process pays once."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, abcsmc.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Run:
    """Counts operations and failures across the units of one run.  A run is
    correct unless an output broke an invariant or the program raised; an
    operation that only missed a statistical criterion counts as failed."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.misses: list[str] = []

    def unit(self, index: int, tag: str = "", call=None):
        """Prepare, execute (timed) and evaluate unit `index`; returns
        (seconds, Outcome).  `call` wraps the execute step."""
        from workloads import unit_seed

        w = self.workload
        out = self.work / f"u{index}{tag}"
        prepared = w.prepare(unit_seed(self.seed, index), out)
        execute = w.execute if call is None else (lambda p: call(w.execute, p))
        seconds, raw = _timed(execute, prepared)
        outcome = w.evaluate(prepared, raw)
        shutil.rmtree(out, ignore_errors=True)
        print(f"unit {index}{tag}: {seconds:.4f} s, {outcome.sims_counted} sims counted, "
              f"{outcome.failed}/{outcome.ops} ops failed", file=sys.stderr)
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.errors += [f"unit {index}{tag}: {e}" for e in outcome.errors]
        self.misses += [f"unit {index}{tag}: {e}" for e in outcome.misses]
        return seconds, outcome

    def result(self, metrics: dict) -> dict:
        for e in self.errors:
            print(f"check failed: {e}", file=sys.stderr)
        for e in self.misses:
            print(f"criterion missed: {e}", file=sys.stderr)
        return {"correct": not self.errors,
                "attempted": self.ops, "failed": self.failed, "metrics": metrics}


def measure(workload, seed: int, seconds: float, import_s: float, work: Path,
            min_units: int = MIN_UNITS, deadline: float = math.inf) -> dict:
    """End-to-end metrics, nothing instrumented."""
    setup_s = []
    for i in range(SETUP_REPEATS):
        setup_s.append(_timed(workload.setup, work / f"setup{i}")[0])
    run = Run(workload, seed, work)
    walls, sims = [], []
    while ((len(walls) < min_units or sum(walls) < seconds)
           and (not walls or time.perf_counter() < deadline)):
        wall, outcome = run.unit(len(walls))
        walls.append(wall)
        sims.append(outcome.sims_counted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run.result({
        "wall_s": _metric(statistics.median(walls), "s"),
        "sims_counted": _metric(statistics.median(sims), "count"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(import_s + statistics.median(setup_s), "s"),
    })


def measure_traced(workload, seed: int, seconds: float, work: Path,
                   deadline: float = math.inf) -> dict:
    """Per-layer metrics: each unit runs plain and traced on one seed."""
    from tracer import Tracer

    workload.setup(work / "setup")
    run = Run(workload, seed, work)
    tr = Tracer()

    def traced(execute, prepared):
        tr.install()
        try:
            return execute(prepared)
        finally:
            tr.uninstall()

    ratios, sims_counted, measured = [], 0, 0.0
    while not ratios or (measured < seconds and time.perf_counter() < deadline):
        i = len(ratios)
        # alternate which side runs first, so warm-up favours neither
        if i % 2 == 0:
            plain_s, plain = run.unit(i)
            traced_s, with_tr = run.unit(i, "t", traced)
        else:
            traced_s, with_tr = run.unit(i, "t", traced)
            plain_s, plain = run.unit(i)
        if (plain.sims_counted, plain.digest) != (with_tr.sims_counted, with_tr.digest):
            run.errors.append(f"unit {i}: traced outputs differ from plain outputs")
        ratios.append(traced_s / plain_s)
        sims_counted += with_tr.sims_counted
        measured += plain_s + traced_s
    metrics = layer_metrics(tr, len(ratios), sims_counted)
    metrics["trace.overhead"] = _metric(statistics.median(ratios), "ratio")
    metrics.update(sweep(seed))
    return run.result(metrics)


def layer_metrics(tr, units: int, sims_counted: int) -> dict:
    """Per-layer metrics per traced unit."""
    t, c = tr.self_s, tr.counts
    m = {}
    for kind in KINDS:
        key = f"simulate.{kind}"
        sims = c[key + ".sims"] / units
        m[key + ".self_s"] = _metric(t[key] / units, "s")
        m[key + ".sims"] = _metric(sims, "count")
        m[key + ".us_per_sim"] = _metric(1e6 * t[key] / units / sims if sims else 0.0, "us")
        m[key + ".failed"] = _metric(c[key + ".failed"] / units, "count")
        m[key + ".rows_per_call_median"] = _metric(
            statistics.median(tr.rows[key]) if tr.rows[key] else 0, "count")
    m["distance.self_s"] = _metric(t["distance"] / units, "s")
    m["distance.calls"] = _metric(c["distance.calls"] / units, "count")
    m["distance.rows"] = _metric(c["distance.rows"] / units, "count")
    for part in ("prior_sample", "perturb", "prior_density", "kernel_density"):
        m[f"core.{part}.self_s"] = _metric(t[f"core.{part}"] / units, "s")
    m["core.kernel_density.pairs"] = _metric(c["core.kernel_density.pairs"] / units, "count")
    m["samplers.self_s"] = _metric(t["samplers"] / units, "s")
    m["samplers.evaluate.self_s"] = _metric(t["samplers.evaluate"] / units, "s")
    for name in ("proposals", "populations", "out_of_prior"):
        m[f"samplers.{name}"] = _metric(c[f"samplers.{name}"] / units, "count")
    sims_executed = sum(c[f"simulate.{kind}.sims"] for kind in KINDS)
    m["samplers.sims_executed"] = _metric(sims_executed / units, "count")
    proposals = c["samplers.proposals"]
    m["samplers.accept_rate"] = _metric(
        c["samplers.accepted"] / proposals if proposals else 0.0, "ratio")
    m["samplers.ess_frac_final"] = _metric(
        statistics.fmean(tr.ess_frac) if tr.ess_frac else 0.0, "ratio")
    m["samplers.waste_ratio"] = _metric(
        sims_executed / sims_counted if sims_counted else 0.0, "ratio")
    m["cli.write.self_s"] = _metric(t["cli.write"] / units, "s")
    return m


def sweep(seed: int) -> dict:
    """us per simulated trajectory for each backend kernel at fixed batch
    sizes, parameters drawn from the setup's prior."""
    import numpy as np
    from abcsmc import models, simulate
    from abcsmc.core import task_rng

    out = {}
    rng = np.random.default_rng(seed)
    for name, setup_name in SWEEP_MODELS:
        setup = models.default_setup(setup_name)
        idx = [m.name for m in setup.models].index(name)
        model, prior = setup.models[idx], setup.priors[idx]
        times = setup.recipe.times
        for size in SWEEP_SIZES:
            thetas = prior.sample(rng, size=size)
            per_sim, spent = [], 0.0
            while spent < SWEEP_MIN_S and len(per_sim) < 5:
                dt, _ = _timed(simulate.simulate_model_batch, model, thetas, times, task_rng(seed))
                per_sim.append(1e6 * dt / size)
                spent += dt
            out[f"simulate.sweep.{name}.B{size}.us_per_sim"] = _metric(statistics.median(per_sim), "us")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + LATEST_START_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "abcsmc" / "__init__.py").is_file():
        print(f"error: no abcsmc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(src))
    import abcsmc

    if Path(abcsmc.__file__).resolve().parent != (src / "abcsmc").resolve():
        print(f"error: imported abcsmc from {abcsmc.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            result = measure_traced(workload, args.seed, args.seconds, work, deadline=deadline)
        else:
            result = measure(workload, args.seed, args.seconds, _import_seconds(src), work,
                             deadline=deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
