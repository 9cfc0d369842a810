"""Batch front door: config parsing, dataset I/O, run orchestration and
CSV export.

Config files are flat `key = value` text; lists are comma-separated.  A
`setup = <name>` line imports a named experiment bundle from the model zoo,
and individual keys (or `--set key=value` flags) override its fields.
Per-parameter lines use dotted keys: `prior.a = uniform -10 10`,
`kernel.gamma = uniform 0.004`, or `prior.<model>.<param> = ...` when
several models are in play.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import interquantile_trajectory, pca_sensitivity, posterior_summary
from .core import (
    ConfigError,
    DiscreteUniform,
    GaussianWalk,
    InferenceConfig,
    IntegerWalk,
    KernelSpec,
    Population,
    PriorSpec,
    ToleranceSchedule,
    Uniform,
    UniformWalk,
    task_rng,
)
from .distance import DISTANCES, Dataset
from .models import DataRecipe, Setup, default_setup, generate_data, get_model, SETUPS
from .samplers import BudgetExceeded, SmcResult, abc_smc, abc_smc_model_selection
from .simulate import SimulationFailure, simulate_model_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _fmt(x: float) -> str:
    """Shortest round-trip float representation (stable across runs)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Flat key-value config with provenance for diagnostics."""

    values: dict
    lines: dict  # key -> line number
    path: str

    def get(self, key, default=None):
        return self.values.get(key, default)

    def error(self, key: str, message: str) -> ConfigError:
        where = f"{self.path}:{self.lines[key]}" if key in self.lines else self.path
        return ConfigError(f"{where}: field '{key}': {message}")

    def floats(self, key: str) -> list[float]:
        raw = self.values[key]
        try:
            return [float(tok) for tok in str(raw).replace(",", " ").split()]
        except ValueError:
            raise self.error(key, f"expected numbers, got {raw!r}") from None

    def intval(self, key: str, default=None) -> Optional[int]:
        if key not in self.values:
            return default
        try:
            return int(str(self.values[key]))
        except ValueError:
            raise self.error(key, f"expected an integer, got {self.values[key]!r}") from None

    def floatval(self, key: str, default=None) -> Optional[float]:
        if key not in self.values:
            return default
        try:
            return float(str(self.values[key]))
        except ValueError:
            raise self.error(key, f"expected a number, got {self.values[key]!r}") from None


def parse_config(path: str, overrides: Sequence[str] = ()) -> RunConfig:
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        values[key] = val
        lines[key] = ln
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} must look like key=value")
        key, val = (part.strip() for part in ov.split("=", 1))
        values[key] = val
        lines.pop(key, None)
    return RunConfig(values, lines, path)


def _parse_prior_value(cfg: RunConfig, key: str) -> Uniform | DiscreteUniform:
    toks = str(cfg.values[key]).replace(",", " ").split()
    try:
        if toks[0] == "uniform" and len(toks) == 3:
            return Uniform(float(toks[1]), float(toks[2]))
        if toks[0] in ("discrete-uniform", "discrete_uniform") and len(toks) == 3:
            return DiscreteUniform(int(float(toks[1])), int(float(toks[2])))
    except (ValueError, ConfigError) as e:
        raise cfg.error(key, str(e)) from None
    raise cfg.error(key, "expected 'uniform LO HI' or 'discrete-uniform LO HI'")


def _parse_kernel_value(cfg: RunConfig, key: str, discrete: bool):
    toks = str(cfg.values[key]).replace(",", " ").split()
    try:
        if len(toks) == 2 and toks[0] in ("uniform", "gaussian"):
            sigma = float(toks[1])
            if discrete:
                return IntegerWalk(int(sigma))
            return GaussianWalk(sigma) if toks[0] == "gaussian" else UniformWalk(sigma)
    except (ValueError, ConfigError) as e:
        raise cfg.error(key, str(e)) from None
    raise cfg.error(key, "expected 'uniform SIGMA' or 'gaussian SIGMA'")


def _apply_param_overrides(cfg: RunConfig, setup: Setup) -> Setup:
    priors = [list(p.marginals) for p in setup.priors]
    kernels = [list(k.walks) for k in setup.kernels]
    multi = len(setup.models) > 1
    for key in cfg.values:
        parts = key.split(".")
        if parts[0] not in ("prior", "kernel"):
            continue
        if len(parts) == 2 and not multi:
            model_idx, pname = 0, parts[1]
        elif len(parts) == 3:
            names = [m.name for m in setup.models]
            if parts[1] not in names:
                raise cfg.error(key, f"unknown model '{parts[1]}' (have {names})")
            model_idx, pname = names.index(parts[1]), parts[2]
        else:
            raise cfg.error(key, "use prior.<param> (single model) or prior.<model>.<param>")
        model = setup.models[model_idx]
        if pname not in model.param_names:
            raise cfg.error(key, f"model '{model.name}' has no parameter '{pname}'")
        j = model.param_names.index(pname)
        if parts[0] == "prior":
            priors[model_idx][j] = _parse_prior_value(cfg, key)
        else:
            discrete = isinstance(setup.priors[model_idx].marginals[j], DiscreteUniform)
            kernels[model_idx][j] = _parse_kernel_value(cfg, key, discrete)
    return replace(
        setup,
        priors=tuple(PriorSpec(tuple(p)) for p in priors),
        kernels=tuple(KernelSpec(tuple(k)) for k in kernels),
    )


def _resolve_setup(cfg: RunConfig) -> Setup:
    name = cfg.get("setup")
    if name is None:
        single = cfg.get("model")
        if single in SETUPS:
            name = single
        elif cfg.get("models") is None and single is not None:
            raise cfg.error("model", f"no default setup for '{single}'; add a 'setup =' line")
    if name is not None:
        if name not in SETUPS:
            raise cfg.error("setup", f"unknown setup '{name}'; choose from {list(SETUPS)}")
        setup = default_setup(name)
    elif cfg.get("models") is not None:
        raise ConfigError(f"{cfg.path}: multi-model runs need a 'setup =' line")
    else:
        raise ConfigError(f"{cfg.path}: a 'model =' or 'setup =' line is required")
    return _apply_param_overrides(cfg, setup)


def _inference_config(cfg: RunConfig, setup: Setup, dataset: Dataset,
                      seed: int) -> InferenceConfig:
    eps = tuple(cfg.floats("epsilons")) if "epsilons" in cfg.values else tuple(setup.epsilons)
    distance = cfg.get("distance", setup.distance)
    if distance not in DISTANCES:
        raise cfg.error("distance", f"unknown distance '{distance}'")
    try:
        return InferenceConfig(
            models=setup.models,
            priors=setup.priors,
            kernels=setup.kernels,
            schedule=ToleranceSchedule(eps),
            n_particles=cfg.intval("particles", setup.n_particles),
            dataset=dataset,
            distance=distance,
            sim_trials=cfg.intval("sim_trials", setup.sim_trials),
            replicates=cfg.intval("replicates", setup.replicates),
            seed=seed,
            max_proposals_per_population=cfg.intval("max_proposals"),
        )
    except ConfigError as e:
        raise ConfigError(f"{cfg.path}: {e}") from None


# ---------------------------------------------------------------------------
# Dataset and result I/O
# ---------------------------------------------------------------------------

def load_dataset(path: str) -> Dataset:
    """Read a `t,<species...>` CSV; all-NA columns become unobserved."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read dataset {path}: {e}") from None
    rows = [r for r in text.splitlines() if r.strip()]
    if not rows:
        raise ConfigError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0].split(",")]
    if len(header) < 2 or header[0] != "t":
        raise ConfigError(f"{path}:1: header must be 't,<species...>', got {rows[0]!r}")
    species = tuple(header[1:])
    times, data = [], []
    for ln, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{ln}: expected {len(header)} cells, got {len(cells)}")
        try:
            times.append(float(cells[0]))
            data.append([math.nan if c.upper() in ("NA", "NAN", "") else float(c) for c in cells[1:]])
        except ValueError as e:
            raise ConfigError(f"{path}:{ln}: {e}") from None
        if len(times) >= 2 and times[-1] <= times[-2]:
            raise ConfigError(f"{path}:{ln}: time values must be strictly increasing")
    values = np.array(data)
    observed = []
    for j, name in enumerate(species):
        col = values[:, j]
        if np.isnan(col).all():
            continue
        if np.isnan(col).any():
            row = int(np.nonzero(np.isnan(col))[0][0]) + 2
            raise ConfigError(f"{path}:{row}: observed column '{name}' has a missing entry")
        observed.append(j)
    if not observed:
        raise ConfigError(f"{path}: every species column is NA")
    return Dataset(np.array(times), values, species, tuple(observed))


def write_dataset(dataset: Dataset, path: str) -> None:
    lines = ["t," + ",".join(dataset.species)]
    for i, t in enumerate(dataset.times):
        cells = [_fmt(t)]
        for j in range(len(dataset.species)):
            v = dataset.values[i, j]
            cells.append("NA" if math.isnan(v) else _fmt(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def _param_columns(models) -> list[str]:
    cols: list[str] = []
    for m in models:
        for p in m.param_names:
            if p not in cols:
                cols.append(p)
    return cols


def write_population_csv(population: Population, models, path: str) -> None:
    cols = _param_columns(models)
    selection = len(models) > 1
    header = cols + ["weight"] + (["model"] if selection else []) + ["distance"]
    rows: list = [None] * len(population)
    for label, thetas in population.blocks.items():
        names = models[label - 1].param_names
        for i, theta in zip(np.flatnonzero(population.labels == label), thetas):
            by_name = dict(zip(names, theta))
            rows[i] = [(_fmt(by_name[c]) if c in by_name else "NA") for c in cols]
    lines = [",".join(header)]
    for cells, w, label, d in zip(rows, population.weight, population.labels,
                                  population.distance):
        cells += [_fmt(w)] + ([str(label)] if selection else []) + [_fmt(d)]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_population_csv(path: str) -> tuple[dict[int, list[str]], Population]:
    """Parameter names per model label, and the population.

    A model's parameters are the columns that are not NA in its rows.  The
    tolerance and the ledger are not stored in the file and read back as
    NaN and 0.
    """
    rows = [r.split(",") for r in Path(path).read_text().splitlines() if r.strip()]
    header = rows[0]
    recs = [dict(zip(header, cells)) for cells in rows[1:]]
    cols = [h for h in header if h not in ("weight", "model", "distance")]
    labels = np.array([int(r.get("model", 1)) for r in recs], dtype=int)
    names, blocks = {}, {}
    for label in sorted(set(labels.tolist())):
        mine = [r for r, m in zip(recs, labels) if m == label]
        names[label] = [c for c in cols if mine[0][c] != "NA"]
        blocks[label] = np.array([[float(r[c]) for c in names[label]] for r in mine])
    weight = np.array([float(r["weight"]) for r in recs])
    distance = np.array([float(r["distance"]) for r in recs])
    return names, Population(labels, blocks, weight, distance, math.nan, 0, 0)


def write_run_ledger(populations: Sequence[Population], path: str) -> None:
    lines = ["population,epsilon,accepted,proposals,cumulative_sims"]
    for p in populations:
        lines.append(f"{p.index},{_fmt(p.epsilon)},{len(p)},{p.proposals},{p.sim_count}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_model_counts(result: SmcResult, path: str) -> None:
    m = result.n_models
    lines = ["population," + ",".join(f"model_{i}" for i in range(1, m + 1))]
    for pop, counts in zip(result.populations, result.model_counts()):
        lines.append(f"{pop.index}," + ",".join(str(c) for c in counts))
    Path(path).write_text("\n".join(lines) + "\n")


def _config_digest(cfg: RunConfig) -> str:
    canon = "\n".join(f"{k} = {cfg.values[k]}" for k in sorted(cfg.values))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_stamp(out: Path, cfg: RunConfig, seed: int, partial: bool = False) -> None:
    stamp = {
        "config_sha256": _config_digest(cfg),
        "seed": seed,
        "version": __version__,
        "partial": partial,
    }
    stamp_path = out / "stamp.json"
    if stamp_path.exists():
        try:
            old = json.loads(stamp_path.read_text())
            if old.get("config_sha256") != stamp["config_sha256"] or old.get("seed") != seed:
                print(
                    f"warning: {stamp_path} was produced by a different config/seed; overwriting",
                    file=sys.stderr,
                )
        except (OSError, json.JSONDecodeError):
            pass
    stamp_path.write_text(json.dumps(stamp, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _common_run_prep(cfg: RunConfig, args):
    """Seed and output directory of a task.  The directory is created by the
    task once it has something to write, so a failed task leaves none."""
    seed = args.seed if args.seed is not None else cfg.intval("seed", 0)
    out = Path(args.out or cfg.get("out", "results"))
    return seed, out


def _load_run_dataset(cfg: RunConfig, setup: Setup) -> Dataset:
    path = cfg.get("dataset")
    if path is not None:
        return load_dataset(path)
    if setup.dataset is not None:
        return setup.dataset
    if setup.recipe is not None:
        data_seed = cfg.intval("data_seed", 0)
        return generate_data(setup.recipe, task_rng(data_seed))
    raise ConfigError(f"{cfg.path}: a 'dataset =' line is required (no default for this setup)")


def _run_smc(cfg: RunConfig, args, select: bool) -> int:
    """`infer` (one model, abc_smc) or `select` (several models, model
    selection, which also writes model_counts.csv)."""
    setup = _resolve_setup(cfg)
    if select and len(setup.models) < 2:
        raise ConfigError("task 'select' needs a setup with at least two models")
    if not select and len(setup.models) != 1:
        raise ConfigError("task 'infer' takes a single model; use 'select' for several")
    seed, out = _common_run_prep(cfg, args)
    dataset = _load_run_dataset(cfg, setup)
    icfg = _inference_config(cfg, setup, dataset, seed)
    sampler = abc_smc_model_selection if select else abc_smc
    partial = False
    try:
        result = sampler(icfg)
    except BudgetExceeded as e:
        print(f"aborted: {e}", file=sys.stderr)
        result = e.partial
        partial = True
    out.mkdir(parents=True, exist_ok=True)
    for pop in result.populations:
        write_population_csv(pop, setup.models, out / f"population_{pop.index:02d}.csv")
    write_run_ledger(result.populations, out / "run_ledger.csv")
    if select and result.populations:
        write_model_counts(result, out / "model_counts.csv")
    write_stamp(out, cfg, seed, partial)
    return EXIT_BUDGET if partial else EXIT_OK


def _theta(cfg: RunConfig, model) -> np.ndarray:
    theta = np.array(cfg.floats("theta"))
    if theta.shape != (model.n_params,):
        raise cfg.error("theta", f"model '{model.name}' needs {model.n_params} values")
    return theta


def _times(cfg: RunConfig, model) -> np.ndarray:
    times = np.array(cfg.floats("times"))
    if times.size == 0 or np.any(np.diff(times) <= 0) or times[0] < model.t0:
        raise cfg.error("times", f"expected strictly increasing times from t0 = {model.t0}")
    return times


def _run_simulate(cfg: RunConfig, args) -> int:
    model_name = cfg.get("model")
    if model_name is None:
        raise ConfigError(f"{cfg.path}: 'model =' is required for task 'simulate'")
    model = get_model(model_name)
    if "theta" not in cfg.values:
        raise ConfigError(f"{cfg.path}: 'theta =' is required for task 'simulate'")
    theta = _theta(cfg, model)
    if "times" not in cfg.values:
        raise ConfigError(f"{cfg.path}: 'times =' is required for task 'simulate'")
    times = _times(cfg, model)
    seed, out = _common_run_prep(cfg, args)
    states, ok = simulate_model_batch(model, theta[None, :], times, task_rng(seed))
    if not ok[0]:
        raise cfg.error("theta", f"simulation of '{model.name}' failed at these values")
    lines = ["t," + ",".join(model.species)]
    for t, row in zip(times, states[0]):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    write_stamp(out, cfg, seed)
    return EXIT_OK


def _run_generate(cfg: RunConfig, args) -> int:
    setup = _resolve_setup(cfg)
    if setup.recipe is None:
        raise ConfigError(f"{cfg.path}: setup has no data recipe to generate from")
    recipe = setup.recipe
    model = recipe.model
    true_theta = _theta(cfg, model) if "theta" in cfg.values else recipe.true_theta
    times = _times(cfg, model) if "times" in cfg.values else recipe.times
    noise = cfg.floatval("noise_sd", recipe.noise_sd)
    if noise < 0:
        raise cfg.error("noise_sd", "must be >= 0")
    replicates = cfg.intval("replicates", recipe.replicates)
    if replicates < 1:
        raise cfg.error("replicates", "must be >= 1")
    seed, out = _common_run_prep(cfg, args)
    recipe = DataRecipe(model, true_theta, times, noise, replicates)
    try:
        dataset = generate_data(recipe, task_rng(seed))
    except SimulationFailure as e:
        raise cfg.error("theta", str(e)) from None
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out / "dataset.csv")
    write_stamp(out, cfg, seed)
    return EXIT_OK


def _run_analyze(cfg: RunConfig, args) -> int:
    run_dir = Path(args.run_dir or cfg.get("run_dir", cfg.get("out", "results")))
    pop_files = sorted(run_dir.glob("population_*.csv"))
    if not pop_files:
        raise ConfigError(f"no population CSVs found in {run_dir}")
    _, out = _common_run_prep(cfg, args)
    pops = []
    for f in pop_files:
        names, pop = read_population_csv(str(f))
        pops.append(pop)
    final = pops[-1]
    labels = final.models_present()
    out.mkdir(parents=True, exist_ok=True)

    summary_lines = ["model,parameter,q025,median,q975"]
    for label in labels:
        stats = posterior_summary(final, model=label)
        for pname, (lo, med, hi) in zip(names[label], stats):
            summary_lines.append(f"{label},{pname},{_fmt(lo)},{_fmt(med)},{_fmt(hi)}")
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")

    pca_lines = ["component,eigenvalue,fraction," + ",".join(names[labels[0]])]
    report = pca_sensitivity(final, model=labels[0])
    for i in range(len(report.eigenvalues)):
        pca_lines.append(
            f"{i + 1},{_fmt(report.eigenvalues[i])},{_fmt(report.fractions[i])},"
            + ",".join(_fmt(v) for v in report.loadings[i])
        )
    (out / "pca.csv").write_text("\n".join(pca_lines) + "\n")

    if len(pops) > 1 and all(p.models_present() == [1] for p in pops):
        ranges = interquantile_trajectory(pops)
        iqr_lines = ["population," + ",".join(names[1])]
        for t in range(ranges.shape[0]):
            iqr_lines.append(f"{t}," + ",".join(_fmt(v) for v in ranges[t]))
        (out / "interquantile.csv").write_text("\n".join(iqr_lines) + "\n")
    return EXIT_OK


TASKS = {
    "infer": lambda cfg, args: _run_smc(cfg, args, select=False),
    "select": lambda cfg, args: _run_smc(cfg, args, select=True),
    "simulate": _run_simulate,
    "generate-data": _run_generate,
    "analyze": _run_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abcsmc",
        description="Likelihood-free inference and model selection for dynamical systems",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", required=(task != "analyze"), help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")
        if task == "analyze":
            p.add_argument("--run-dir", default=None, help="directory with population CSVs")
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = parse_config(args.config, args.overrides)
        else:
            cfg = RunConfig({}, {}, "<no config>")
        return TASKS[args.task](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
