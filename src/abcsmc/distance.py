"""Distance functions between observed and simulated datasets.

Datasets carry a full species matrix plus an observability mask; distances
are computed over the masked (observed) entries only, by array functions
with a leading batch axis that take `Dataset.observed_values()` as the
observation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Time series observations: times (n,), values (n, s) with NaN allowed
    only in unobserved columns, and `observed` listing the visible columns."""

    times: np.ndarray
    values: np.ndarray
    species: tuple[str, ...]
    observed: tuple[int, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape != (t.shape[0], len(self.species)):
            raise ValueError(
                f"values shape {v.shape} does not match {t.shape[0]} times x {len(self.species)} species"
            )
        if np.any(np.diff(t) <= 0):
            raise ValueError("dataset times must be strictly increasing")
        obs = tuple(int(i) for i in self.observed)
        if len(obs) == 0:
            raise ValueError("at least one observed species required")
        if any(i < 0 or i >= len(self.species) for i in obs):
            raise ValueError(f"observed indices {obs} out of range")
        if not np.isfinite(v[:, list(obs)]).all():
            raise ValueError("observed entries must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "observed", obs)

    @property
    def observed_species(self) -> tuple[str, ...]:
        return tuple(self.species[i] for i in self.observed)

    def observed_values(self) -> np.ndarray:
        return self.values[:, list(self.observed)]


def _paired(a: Dataset, b: Dataset) -> tuple[np.ndarray, np.ndarray]:
    av, bv = a.observed_values(), b.observed_values()
    if av.shape != bv.shape:
        raise ValueError(f"dataset shapes differ: {av.shape} vs {bv.shape}")
    if not np.array_equal(a.times, b.times):
        raise ValueError("dataset time grids differ")
    return av, bv


# ---------------------------------------------------------------------------
# Array cores (obs: (n, s); sims: (..., n, s) with a leading batch axis)
# ---------------------------------------------------------------------------

def sse_many(obs: np.ndarray, sims: np.ndarray) -> np.ndarray:
    d = sims - obs
    return np.sum(d * d, axis=(-2, -1))


def l1_many(obs: np.ndarray, sims: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(sims - obs), axis=(-2, -1))


def cosine_many(obs: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """Sum over species of (1 - cosine similarity) along the time axis.

    Zero-norm simulated columns yield +inf (unrankable candidate).
    """
    obs_norm = np.linalg.norm(obs, axis=-2)
    if np.any(obs_norm == 0):
        raise ValueError("cosine distance undefined: observed species column has zero norm")
    sim_norm = np.linalg.norm(sims, axis=-2)
    dots = np.sum(sims * obs, axis=-2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = dots / (sim_norm * obs_norm)
    per_species = np.where(sim_norm > 0, 1.0 - cos, np.inf)
    return per_species.sum(axis=-1)


DISTANCES = {"sse": sse_many, "l1": l1_many, "cosine": cosine_many}


def distance_fn(name: str):
    try:
        return DISTANCES[name]
    except KeyError:
        raise ValueError(f"unknown distance '{name}'; choose from {sorted(DISTANCES)}") from None


# ---------------------------------------------------------------------------
# Dataset-level operations
# ---------------------------------------------------------------------------

def gaussian_loglik(a: Dataset, b: Dataset, sigma: float) -> float:
    """Log-likelihood of `a` under i.i.d. Gaussian errors around `b`.

    Satisfies gaussian_loglik + sse/(2 sigma^2) == -(n/2) log(2 pi sigma^2)
    exactly, with n the number of observed entries.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    av, bv = _paired(a, b)
    n = av.size
    sse = float(sse_many(av, bv))
    return -0.5 * sse / sigma**2 - 0.5 * n * math.log(2.0 * math.pi * sigma**2)
