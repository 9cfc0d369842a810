"""Domain types and probabilistic primitives shared by all samplers.

Parameter vectors are plain float64 numpy arrays; coordinates flagged as
discrete (integer-valued) hold integral values and are sampled/perturbed on
the integer lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from .distance import Dataset
    from .models import ModelSpec

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ConfigError(ValueError):
    """Invalid configuration (bad bounds, schedule, dimensions...)."""


class ModelDiedOut(RuntimeError):
    """No particles of the requested model survive in a population."""


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"uniform prior needs lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform over the integers {lo, ..., hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        if int(self.lo) != self.lo or int(self.hi) != self.hi:
            raise ConfigError("discrete uniform bounds must be integers")
        if not self.lo < self.hi:
            raise ConfigError(f"discrete uniform prior needs lo < hi, got ({self.lo}, {self.hi})")


Marginal = Union[Uniform, DiscreteUniform]


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-coordinate box prior (continuous or integer uniform)."""

    marginals: tuple[Marginal, ...]

    @property
    def dim(self) -> int:
        return len(self.marginals)

    @property
    def discrete_mask(self) -> np.ndarray:
        return np.array([isinstance(m, DiscreteUniform) for m in self.marginals])

    @property
    def lows(self) -> np.ndarray:
        return np.array([m.lo for m in self.marginals], dtype=float)

    @property
    def highs(self) -> np.ndarray:
        return np.array([m.hi for m in self.marginals], dtype=float)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw one theta (size=None) or a (size, k) batch from the prior."""
        n = 1 if size is None else size
        out = np.empty((n, self.dim))
        for j, m in enumerate(self.marginals):
            if isinstance(m, DiscreteUniform):
                out[:, j] = rng.integers(m.lo, m.hi + 1, size=n)
            else:
                out[:, j] = rng.uniform(m.lo, m.hi, size=n)
        return out[0] if size is None else out

    def density(self, theta: np.ndarray) -> float:
        """Product of per-coordinate densities; 0 outside the support box."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, prior dimension is {self.dim}")
        return float(self.density_many(theta[None, :])[0])

    def density_many(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized density over rows of a (n, k) array."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) array, got {thetas.shape}")
        dens = np.ones(thetas.shape[0])
        for j, m in enumerate(self.marginals):
            x = thetas[:, j]
            if isinstance(m, DiscreteUniform):
                inside = (x >= m.lo) & (x <= m.hi) & (x == np.round(x))
                dens *= np.where(inside, 1.0 / (m.hi - m.lo + 1), 0.0)
            else:
                inside = (x >= m.lo) & (x <= m.hi)
                dens *= np.where(inside, 1.0 / (m.hi - m.lo), 0.0)
        return dens


def uniform_box(bounds: Sequence[tuple[float, float]]) -> PriorSpec:
    return PriorSpec(tuple(Uniform(lo, hi) for lo, hi in bounds))


# ---------------------------------------------------------------------------
# Perturbation kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformWalk:
    """Additive noise sigma * U(-1, 1)."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError("kernel sigma must be > 0")


@dataclass(frozen=True)
class GaussianWalk:
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError("kernel sigma must be > 0")


@dataclass(frozen=True)
class IntegerWalk:
    """Additive uniform step on the integers {-sigma, ..., sigma}."""

    sigma: int

    def __post_init__(self):
        if int(self.sigma) != self.sigma or self.sigma < 1:
            raise ConfigError("integer walk sigma must be a positive integer")


WalkKernel = Union[UniformWalk, GaussianWalk, IntegerWalk]


@dataclass(frozen=True)
class KernelSpec:
    """Per-coordinate symmetric random-walk kernel."""

    walks: tuple[WalkKernel, ...]

    @property
    def dim(self) -> int:
        return len(self.walks)

    @classmethod
    def for_prior(cls, prior: PriorSpec, sigmas: Sequence[float], kind: str = "uniform") -> "KernelSpec":
        """Build a kernel matching the prior's discreteness pattern."""
        if len(sigmas) != prior.dim:
            raise ConfigError("one sigma per prior coordinate required")
        walks: list[WalkKernel] = []
        for m, s in zip(prior.marginals, sigmas):
            if isinstance(m, DiscreteUniform):
                walks.append(IntegerWalk(int(s)))
            elif kind == "gaussian":
                walks.append(GaussianWalk(float(s)))
            else:
                walks.append(UniformWalk(float(s)))
        return cls(tuple(walks))

    def perturb(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """theta + symmetric per-coordinate noise; integers stay integers."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, kernel dimension is {self.dim}")
        return self.perturb_many(theta[None, :], rng)[0]

    def perturb_many(self, thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        n = thetas.shape[0]
        out = thetas.copy()
        for j, w in enumerate(self.walks):
            if isinstance(w, IntegerWalk):
                out[:, j] += rng.integers(-w.sigma, w.sigma + 1, size=n)
            elif isinstance(w, GaussianWalk):
                out[:, j] += w.sigma * rng.standard_normal(n)
            else:
                out[:, j] += w.sigma * rng.uniform(-1.0, 1.0, size=n)
        return out

    def density(self, a: np.ndarray, b: np.ndarray) -> float:
        """Transition density K(a -> b); symmetric in (a, b)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise ValueError("kernel density arguments must match the kernel dimension")
        return float(self.density_matrix(a[None, :], b[None, :])[0, 0])

    def density_matrix(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """(n_targets, n_sources) matrix of K(source -> target) values."""
        sources = np.asarray(sources, dtype=float)
        targets = np.asarray(targets, dtype=float)
        delta = targets[:, None, :] - sources[None, :, :]  # (T, S, k)
        dens = np.ones(delta.shape[:2])
        for j, w in enumerate(self.walks):
            d = delta[:, :, j]
            if isinstance(w, IntegerWalk):
                inside = (np.abs(d) <= w.sigma) & (d == np.round(d))
                dens *= np.where(inside, 1.0 / (2 * w.sigma + 1), 0.0)
            elif isinstance(w, GaussianWalk):
                z = d / w.sigma
                dens *= np.exp(-0.5 * z * z) / (w.sigma * _SQRT_2PI)
            else:
                dens *= np.where(np.abs(d) <= w.sigma, 1.0 / (2.0 * w.sigma), 0.0)
        return dens


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

@dataclass
class Population:
    """Weighted accepted particles at one tolerance level, held as arrays
    aligned by row in proposal order.

    `labels[i]` is the 1-based model of row i (all 1 in a single-model run).
    Models may differ in dimension, so thetas are kept in one block per
    model present: `blocks[m]` holds the thetas of the rows labelled m, in
    row order.
    """

    labels: np.ndarray  # (N,) int
    blocks: dict  # label -> (n_m, k_m) float thetas
    weight: np.ndarray  # (N,)
    distance: np.ndarray  # (N,) smallest accepted trial distance
    epsilon: float
    index: int
    sim_count: int  # cumulative data-generation steps up to this population
    proposals: int = 0  # proposals of this population (incl. out-of-prior draws)

    def __len__(self) -> int:
        return len(self.labels)

    def models_present(self) -> list[int]:
        return sorted(self.blocks)

    def thetas(self, model: Optional[int] = None) -> np.ndarray:
        if model is not None:
            self._rows(model)
            return self.blocks[model]
        dims = {b.shape[1] for b in self.blocks.values()}
        if len(dims) != 1:
            raise ValueError("models differ in dimension; pass a model label")
        out = np.empty((len(self), dims.pop()))
        for label, block in self.blocks.items():
            out[self.labels == label] = block
        return out

    def weights(self, model: Optional[int] = None) -> np.ndarray:
        return self.weight if model is None else self.weight[self._rows(model)]

    def distances(self, model: Optional[int] = None) -> np.ndarray:
        return self.distance if model is None else self.distance[self._rows(model)]

    def model_counts(self, n_models: int) -> np.ndarray:
        return np.bincount(self.labels - 1, minlength=n_models)

    def normalize(self) -> None:
        """Rescale the weights to sum to 1 within each model.

        The total is added left to right (`np.cumsum`), not pairwise
        (`np.sum`): seeded outputs depend on the last bits of these weights.
        """
        for label in self.blocks:
            rows = self.labels == label
            self.weight[rows] /= np.cumsum(self.weight[rows])[-1]

    def _rows(self, model: int) -> np.ndarray:
        if model not in self.blocks:
            raise ModelDiedOut(f"no particles left for model {model}")
        return self.labels == model


# ---------------------------------------------------------------------------
# Schedules and run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToleranceSchedule:
    """Strictly decreasing tolerances, final one >= 0."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = self.epsilons
        if len(eps) == 0:
            raise ConfigError("tolerance schedule must be non-empty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(f"tolerances must be strictly decreasing, got {eps}")
        if eps[-1] < 0:
            raise ConfigError("final tolerance must be >= 0")

    def __len__(self) -> int:
        return len(self.epsilons)

    def __iter__(self):
        return iter(self.epsilons)

    def __getitem__(self, i):
        return self.epsilons[i]


@dataclass
class InferenceConfig:
    """Everything a sampler run needs.

    `sim_trials` is the number of candidate datasets simulated per proposal
    (a proposal is accepted when at least one lands within tolerance);
    `replicates` is the number of runs averaged into each candidate dataset.
    """

    models: tuple["ModelSpec", ...]
    priors: tuple[PriorSpec, ...]
    kernels: tuple[KernelSpec, ...]
    schedule: ToleranceSchedule
    n_particles: int
    dataset: "Dataset"
    distance: str = "sse"
    sim_trials: int = 1
    replicates: int = 1
    seed: int = 0
    max_proposals_per_population: Optional[int] = None  # default 1e6 * N
    acceptance_floor: float = 1e-7

    def __post_init__(self):
        self.validate()

    @classmethod
    def single(cls, model, prior, kernel, **kw) -> "InferenceConfig":
        return cls(models=(model,), priors=(prior,), kernels=(kernel,), **kw)

    @property
    def n_models(self) -> int:
        return len(self.models)

    def validate(self) -> None:
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")
        if self.sim_trials < 1:
            raise ConfigError("sim_trials must be >= 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not (len(self.models) == len(self.priors) == len(self.kernels)):
            raise ConfigError("models, priors and kernels must have equal length")
        if len(self.models) == 0:
            raise ConfigError("at least one model required")
        for model, prior, kernel in zip(self.models, self.priors, self.kernels):
            k = len(model.param_names)
            if prior.dim != k:
                raise ConfigError(
                    f"model '{model.name}' has {k} parameters but prior has {prior.dim}"
                )
            if kernel.dim != k:
                raise ConfigError(
                    f"model '{model.name}' has {k} parameters but kernel has {kernel.dim}"
                )

    def proposal_budget(self) -> int:
        if self.max_proposals_per_population is not None:
            return int(self.max_proposals_per_population)
        return int(1e6) * self.n_particles


def task_rng(seed: int, *ids: int) -> np.random.Generator:
    """Independent generator for one task, derived from (seed, task ids)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed) & (2**64 - 1), *ids)))
