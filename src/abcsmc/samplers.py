"""Likelihood-free samplers: rejection, MCMC, sequential population refinement
and its model-selection variant, plus the equal-weight baseline.

All population samplers share one batch engine: proposals are generated and
simulated one batch at a time, each batch from its own RNG stream keyed by
(seed, population, batch counter), and committed in proposal order.  Output
is therefore byte-reproducible for a given (seed, config).  Simulation
counts mirror the one-at-a-time algorithm exactly: within the batch
containing the final acceptance, rows after it are discarded uncounted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConfigError,
    InferenceConfig,
    KernelSpec,
    Population,
    PriorSpec,
    task_rng,
)
from .distance import Dataset, distance_fn
from .simulate import simulate_model_batch

_BATCH_BASE = {"ode": 8192, "direct": 8192, "dde": 2048, "ssa": 64}


class BudgetExceeded(RuntimeError):
    """Proposal budget (or acceptance floor) hit; partial results attached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def observed_columns(dataset: Dataset, model) -> list[int]:
    """Model state columns matching the dataset's observed species, by name."""
    index = {s: i for i, s in enumerate(model.species)}
    cols = []
    for s in dataset.observed_species:
        if s not in index:
            raise ConfigError(f"dataset species '{s}' not produced by model '{model.name}'")
        cols.append(index[s])
    return cols


@dataclass(frozen=True)
class AcceptanceTest:
    """Distance test at one tolerance.

    With sim_trials > 1 a proposal is scored by the number of its candidate
    datasets within tolerance (acceptance requires at least one hit); each
    candidate dataset is itself an average over `replicates` runs.
    """

    dataset: Dataset
    distance: str
    epsilon: float
    sim_trials: int = 1
    replicates: int = 1

    @property
    def sims_per_proposal(self) -> int:
        return self.sim_trials * self.replicates

    def evaluate_batch(self, model, thetas: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
        """Returns (hits (B,), best distance (B,)) for a proposal batch."""
        obs = self.dataset.observed_values()
        cols = observed_columns(self.dataset, model)
        dist = distance_fn(self.distance)
        B = thetas.shape[0]
        hits = np.zeros(B, dtype=int)
        best = np.full(B, np.inf)
        times = self.dataset.times
        for _ in range(self.sim_trials):
            if self.replicates == 1:
                states, ok = simulate_model_batch(model, thetas, times, rng)
            else:
                states = None
                ok = np.ones(B, dtype=bool)
                for _ in range(self.replicates):
                    s, o = simulate_model_batch(model, thetas, times, rng)
                    states = s if states is None else states + s
                    ok &= o
                states = states / self.replicates
            with np.errstate(all="ignore"):
                d = dist(obs, states[:, :, cols])
            d = np.where(ok & np.isfinite(d), d, np.inf)
            hits += (d <= self.epsilon).astype(int)
            best = np.minimum(best, d)
        return hits, best


@dataclass
class SmcResult:
    """One population per tolerance level, with cumulative simulation ledger."""

    populations: list[Population]

    @property
    def final_population(self) -> Population:
        return self.populations[-1]


@dataclass
class ModelSelectionResult:
    populations: list[Population]
    n_models: int

    @property
    def final_population(self) -> Population:
        return self.populations[-1]

    def model_counts(self) -> list[np.ndarray]:
        """Marginal model posterior counts, one length-M vector per population."""
        return [p.model_counts(self.n_models) for p in self.populations]


# ---------------------------------------------------------------------------
# Batch proposal engine
# ---------------------------------------------------------------------------

@dataclass
class _Batch:
    model_of_row: np.ndarray  # (B,) 1-based labels
    prior_ok: np.ndarray  # (B,)
    hits: np.ndarray  # (B,)
    best: np.ndarray  # (B,)
    thetas: dict  # label -> (n_m, k_m) thetas of that label's rows, in row order


def _propose_and_test(cfg: InferenceConfig, test: AcceptanceTest, t: int,
                      batch_index: int, size: int, surviving: list[int],
                      prev_by_model: Optional[dict]) -> _Batch:
    rng = task_rng(cfg.seed, t, batch_index)
    M = cfg.n_models
    if M == 1:
        model_of_row = np.ones(size, dtype=int)
    else:
        model_of_row = rng.choice(np.asarray(surviving, dtype=int), size=size)
    prior_ok = np.zeros(size, dtype=bool)
    hits = np.zeros(size, dtype=int)
    best = np.full(size, np.inf)
    group_thetas: dict[int, np.ndarray] = {}
    for label in sorted(surviving):
        rows = np.nonzero(model_of_row == label)[0]
        if rows.size == 0:
            continue
        prior = cfg.priors[label - 1]
        kernel = cfg.kernels[label - 1]
        if prev_by_model is None:
            thetas = prior.sample(rng, size=rows.size)
        else:
            parents, weights = prev_by_model[label]
            idx = rng.choice(parents.shape[0], size=rows.size, p=weights)
            thetas = kernel.perturb_many(parents[idx], rng)
        dens = prior.density_many(thetas)
        ok = dens > 0.0
        h = np.zeros(rows.size, dtype=int)
        b = np.full(rows.size, np.inf)
        if ok.any():
            h_ok, b_ok = test.evaluate_batch(cfg.models[label - 1], thetas[ok], rng)
            h[ok] = h_ok
            b[ok] = b_ok
        prior_ok[rows] = ok
        hits[rows] = h
        best[rows] = b
        group_thetas[label] = thetas
    return _Batch(model_of_row, prior_ok, hits, best, group_thetas)


def _collect_population(cfg: InferenceConfig, test: AcceptanceTest, t: int,
                        surviving: list[int], prev_by_model: Optional[dict],
                        budget: int, partial, prev_rate: Optional[float] = None):
    """Accept cfg.n_particles proposals at test.epsilon, one batch at a time.

    Returns (labels, blocks, hits, best, proposals, sims): the accepted rows
    in proposal order, their thetas in one block per label, and what they
    cost.  Counting stops at the final acceptance exactly as a one-at-a-time
    sampler would; rows simulated past it are discarded uncounted.  The
    batch size is fixed for the whole population, sized from the previous
    population's acceptance rate.  BudgetExceeded carries `partial`.
    """
    N = cfg.n_particles
    base = min(_BATCH_BASE[m.kind] for m in cfg.models)
    sims_per = test.sims_per_proposal
    labels = np.empty(N, dtype=int)
    hits = np.empty(N, dtype=int)
    best = np.empty(N)
    blocks = {label: np.empty((N, cfg.models[label - 1].n_params)) for label in surviving}
    filled = dict.fromkeys(surviving, 0)
    accepted = 0
    proposals = 0
    sims = 0
    batch_index = 0
    if prev_rate:
        size = int(min(base, max(256, math.ceil(1.5 * N / prev_rate))))
    else:
        size = int(min(base, max(256, 2 * N)))
    while accepted < N:
        batch = _propose_and_test(cfg, test, t, batch_index, size, surviving, prev_by_model)
        batch_index += 1
        accept_row = batch.prior_ok & (batch.hits > 0)
        cum = np.cumsum(accept_row)
        if cum[-1] >= N - accepted:
            cut = int(np.searchsorted(cum, N - accepted))  # index of the final acceptance
        else:
            cut = len(accept_row) - 1
        cut = min(cut, budget - proposals - 1)
        proposals += cut + 1
        sims += int(batch.prior_ok[: cut + 1].sum()) * sims_per
        keep = np.zeros_like(accept_row)
        keep[: cut + 1] = accept_row[: cut + 1]
        n = int(keep.sum())
        labels[accepted:accepted + n] = batch.model_of_row[keep]
        hits[accepted:accepted + n] = batch.hits[keep]
        best[accepted:accepted + n] = batch.best[keep]
        accepted += n
        for label, thetas in batch.thetas.items():
            part = thetas[keep[batch.model_of_row == label]]
            blocks[label][filled[label]:filled[label] + len(part)] = part
            filled[label] += len(part)
        if proposals >= budget and accepted < N:
            raise BudgetExceeded(
                f"proposal budget {budget} exceeded in population {t}", partial=partial
            )
    blocks = {label: blocks[label][:filled[label]] for label in sorted(blocks) if filled[label]}
    return labels, blocks, hits, best, proposals, sims


def importance_weights(labels: np.ndarray, blocks: dict, hits: np.ndarray,
                       priors: Sequence[PriorSpec], kernels: Sequence[KernelSpec],
                       previous: Optional[dict]) -> np.ndarray:
    """Unnormalised importance weights of accepted rows.

    With no previous population each row's weight is its hit count.
    Otherwise it is prior density x hits over the kernel mixture
    sum_j w_j K(theta_j -> theta) of the previous population of the row's
    model; `previous` maps label -> (parent thetas, parent weights).
    """
    if previous is None:
        return hits.astype(float)
    w = np.empty(len(labels))
    for label, thetas in blocks.items():
        rows = labels == label
        parents, parent_w = previous[label]
        num = priors[label - 1].density_many(thetas) * hits[rows]
        den = kernels[label - 1].density_matrix(parents, thetas) @ parent_w
        if not np.all(den > 0.0):
            raise RuntimeError("weight denominator is zero: particle outside every kernel range")
        w[rows] = num / den
    if not np.all(np.isfinite(w) & (w > 0)):
        raise RuntimeError("non-finite or nonpositive particle weight")
    return w


def _by_model(population: Population) -> dict:
    """label -> (thetas, weights) of each model present: what the next
    population resamples from.  The weights are already normalised per
    model; the second division by their sum stays only because dropping it
    changes their last bits, and so the seeded draws."""
    out = {}
    for label in population.models_present():
        weights = population.weights(label)
        out[label] = (population.thetas(label), weights / weights.sum())
    return out


def _smc(cfg: InferenceConfig, equal_weights: bool = False, progress=None) -> list[Population]:
    cfg.validate()
    populations: list[Population] = []
    prev_by_model = None
    surviving = list(range(1, cfg.n_models + 1))
    sim_total = 0
    prev_rate = None
    for t, eps in enumerate(cfg.schedule):
        test = AcceptanceTest(cfg.dataset, cfg.distance, eps, cfg.sim_trials, cfg.replicates)
        labels, blocks, hits, best, proposals, sims = _collect_population(
            cfg, test, t, surviving, prev_by_model, cfg.proposal_budget(),
            SmcResult(list(populations)), prev_rate,
        )
        prev_rate = len(labels) / max(proposals, 1)
        sim_total += sims
        if equal_weights:
            weights = np.ones(len(labels))
        else:
            weights = importance_weights(labels, blocks, hits, cfg.priors, cfg.kernels,
                                         prev_by_model)
        pop = Population(labels, blocks, weights, best, eps, t, sim_total, proposals)
        pop.normalize()
        populations.append(pop)
        if progress is not None:
            progress(pop)
        prev_by_model = _by_model(pop)
        surviving = sorted(prev_by_model)
    return populations


def abc_smc(config: InferenceConfig, progress=None) -> SmcResult:
    """Sequential population refinement through the tolerance schedule.

    Population 0 is proposed fresh from the prior; later populations
    resample the previous one with importance weights and perturb.  With a
    single tolerance this reduces exactly to the rejection sampler.
    """
    if config.n_models != 1:
        raise ConfigError("abc_smc expects a single model; use abc_smc_model_selection")
    return SmcResult(_smc(config, progress=progress))


def abc_prc_baseline(config: InferenceConfig, progress=None) -> SmcResult:
    """Same proposal flow as abc_smc but every weight is left equal
    (the degenerate uniform-prior backward-kernel scheme)."""
    if config.n_models != 1:
        raise ConfigError("abc_prc_baseline expects a single model")
    return SmcResult(_smc(config, equal_weights=True, progress=progress))


def abc_smc_model_selection(config: InferenceConfig, progress=None) -> ModelSelectionResult:
    """Joint posterior over (model, parameters): each proposal first draws a
    model label uniformly among survivors, then resamples/perturbs within
    that model's sub-population.  Weights are computed and normalized per
    model; models with no surviving particles are excluded from sampling."""
    if config.n_models < 2:
        raise ConfigError("model selection needs at least two models")
    return ModelSelectionResult(_smc(config, progress=progress), config.n_models)


def abc_rejection(config: InferenceConfig, epsilon: Optional[float] = None) -> Population:
    """Plain rejection sampling at a single tolerance; equal weights.

    Aborts (BudgetExceeded) if finishing would require an acceptance rate
    below config.acceptance_floor.
    """
    config.validate()
    if config.n_models != 1:
        raise ConfigError("abc_rejection expects a single model")
    if epsilon is None:
        if len(config.schedule) != 1:
            raise ConfigError("abc_rejection needs a single tolerance (or an explicit epsilon)")
        epsilon = config.schedule[0]
    test = AcceptanceTest(config.dataset, config.distance, epsilon, config.sim_trials, config.replicates)
    budget = int(math.ceil(config.n_particles / config.acceptance_floor))
    labels, blocks, _, best, proposals, sims = _collect_population(
        config, test, 0, [1], None, budget, None
    )
    pop = Population(labels, blocks, np.ones(len(labels)), best, epsilon, 0, sims, proposals)
    pop.normalize()
    return pop


# ---------------------------------------------------------------------------
# Markov chain sampler
# ---------------------------------------------------------------------------

@dataclass
class McmcResult:
    chain: np.ndarray  # (steps + 1, k)
    accepted: int
    proposals: int
    sims: int
    passed: int  # proposals that were in-support with distance <= epsilon
    accepted_after_pass: int
    final_scale: float = 1.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / max(self.proposals, 1)


def abc_mcmc(
    config: InferenceConfig,
    chain_length: int,
    proposal: Optional[KernelSpec] = None,
    adapt: bool = False,
    burn_in: int = 0,
    epsilon: Optional[float] = None,
    theta0: Optional[np.ndarray] = None,
) -> McmcResult:
    """Markov chain with stationary distribution = prior restricted to the
    epsilon-acceptance region.

    On rejection the current state is repeated.  Out-of-support proposals
    are rejected without consuming a simulation.  With `adapt`, a Gaussian
    proposal's scale is multiplied by 1.1 after acceptance and 0.99 after
    rejection during burn-in, then frozen (targets roughly 23% acceptance).

    Unless `theta0` is supplied, the initial state is rejection-sampled from
    the prior into the acceptance region (a chain started outside it can
    stay stuck indefinitely); those simulations are counted.
    """
    config.validate()
    if config.n_models != 1:
        raise ConfigError("abc_mcmc expects a single model")
    model = config.models[0]
    prior = config.priors[0]
    kernel = proposal if proposal is not None else config.kernels[0]
    if epsilon is None:
        epsilon = config.schedule[-1]
    if adapt:
        from .core import GaussianWalk

        if not all(isinstance(w, GaussianWalk) for w in kernel.walks):
            raise ConfigError("adaptive scaling requires an all-Gaussian proposal kernel")
    sigmas = np.array([w.sigma for w in kernel.walks], dtype=float)
    test = AcceptanceTest(config.dataset, config.distance, epsilon, 1, config.replicates)
    rng = task_rng(config.seed, 0)

    scale = 1.0
    accepted = proposals = sims = passed = accepted_after_pass = 0
    if theta0 is None:
        budget = int(math.ceil(1.0 / config.acceptance_floor))
        while True:
            theta = prior.sample(rng)
            sims += config.replicates
            _, best = test.evaluate_batch(model, theta[None, :], rng)
            if best[0] <= epsilon:
                break
            if sims > budget:
                raise BudgetExceeded("could not find an initial state within tolerance")
    else:
        theta = np.asarray(theta0, dtype=float)
        if prior.density(theta) <= 0:
            raise ConfigError("initial state has zero prior density")

    chain = np.empty((chain_length + 1, prior.dim))
    chain[0] = theta
    dens_cur = prior.density(theta)
    for i in range(chain_length):
        proposals += 1
        if adapt:
            step = scale * sigmas * rng.standard_normal(prior.dim)
            cand = theta + step
        else:
            cand = kernel.perturb(theta, rng)
        dens_cand = prior.density(cand)
        moved = False
        if dens_cand > 0.0:
            sims += config.replicates
            hits, best = test.evaluate_batch(model, cand[None, :], rng)
            if best[0] <= epsilon:
                passed += 1
                alpha = min(1.0, dens_cand / dens_cur)
                if rng.random() < alpha:
                    theta = cand
                    dens_cur = dens_cand
                    moved = True
                    accepted_after_pass += 1
        if moved:
            accepted += 1
            if adapt and i < burn_in:
                scale *= 1.1
        elif adapt and i < burn_in:
            scale *= 0.99
        chain[i + 1] = theta
    return McmcResult(chain, accepted, proposals, sims, passed, accepted_after_pass, scale)
