"""Model zoo: ready-made model specifications with their standard true
parameters, initial conditions, priors, kernels and data recipes.

Each experiment bundle (`default_setup`) records every constant the runs
need, so nothing is buried in sampler code; CLI configs can override any
of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ConfigError,
    DiscreteUniform,
    KernelSpec,
    PriorSpec,
    Uniform,
    uniform_box,
)
from .distance import Dataset
from .simulate import (
    DdeSystem,
    DirectSampler,
    OdeSystem,
    ReactionNetwork,
    SimOptions,
    SimulationFailure,
    simulate_model_batch,
)


@dataclass(frozen=True)
class ModelSpec:
    """A simulatable model: system + parameter/species metadata.

    Each fact is stored once: the engine kind is derived from the system
    (`kind`), and the state size is `len(species)`, which `x0` must match.
    """

    name: str
    system: object
    param_names: tuple[str, ...]
    species: tuple[str, ...]
    observed: tuple[int, ...]  # default observable species (indices)
    x0: Optional[np.ndarray] = None
    t0: float = 0.0
    initial_state: Optional[Callable] = None  # theta (..., k) -> state (..., m)
    sim: SimOptions = field(default_factory=SimOptions)

    def __post_init__(self):
        if len(self.observed) == 0:
            raise ConfigError("observable mask must be nonempty")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (len(self.species),):
                raise ConfigError(
                    f"model '{self.name}': x0 has shape {x0.shape}, "
                    f"expected one value per species ({len(self.species)})"
                )
            object.__setattr__(self, "x0", x0)

    @property
    def kind(self) -> str:
        """"ode" | "dde" | "ssa" | "direct", read from the system."""
        return self.system.kind

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True)
class DataRecipe:
    """How an experiment's synthetic dataset is produced."""

    model: ModelSpec
    true_theta: np.ndarray
    times: np.ndarray
    noise_sd: float
    replicates: int = 1

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ConfigError("noise sd must be >= 0")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        object.__setattr__(self, "true_theta", np.asarray(self.true_theta, dtype=float))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))


@dataclass(frozen=True)
class Setup:
    """Default experiment bundle for a zoo entry."""

    models: tuple[ModelSpec, ...]
    priors: tuple[PriorSpec, ...]
    kernels: tuple[KernelSpec, ...]
    epsilons: tuple[float, ...]
    n_particles: int
    distance: str = "sse"
    sim_trials: int = 1
    replicates: int = 1
    recipe: Optional[DataRecipe] = None
    dataset: Optional[Dataset] = None


def generate_data(recipe: DataRecipe, rng: np.random.Generator) -> Dataset:
    """Simulate at the true parameters and add i.i.d. Gaussian noise to the
    observed entries; unobserved species columns are masked with NaN.  With
    several replicates the clean trajectory is their pointwise mean."""
    model = recipe.model
    thetas = np.repeat(recipe.true_theta[None, :], recipe.replicates, axis=0)
    states, ok = simulate_model_batch(model, thetas, recipe.times, rng)
    if not ok.all():
        raise SimulationFailure(f"simulation of '{model.name}' at the true parameters failed")
    values = states.mean(axis=0)
    obs = list(model.observed)
    if recipe.noise_sd > 0:
        values[:, obs] += recipe.noise_sd * rng.standard_normal((len(recipe.times), len(obs)))
    hidden = [i for i in range(len(model.species)) if i not in model.observed]
    values[:, hidden] = np.nan
    return Dataset(recipe.times, values, model.species, model.observed)


# ---------------------------------------------------------------------------
# Lotka-Volterra (predator-prey)
# ---------------------------------------------------------------------------

# starting below the (1, 1) fixed point gives orbits with enough amplitude
# that far-off parameter draws score well above the widest tolerance
LV_X0 = (1.0, 0.25)
LV_TIMES = np.linspace(1.0, 15.0, 8)


def _lv_rhs(t, s, th):
    x, y = s[..., 0], s[..., 1]
    a, b = th[..., 0], th[..., 1]
    return np.stack([a * x - x * y, b * x * y - y], axis=-1)


def lv_ode(x0: Sequence[float] = LV_X0) -> ModelSpec:
    """Deterministic predator-prey model, parameters (a, b)."""
    return ModelSpec(
        name="lv_ode",
        system=OdeSystem(_lv_rhs),
        param_names=("a", "b"),
        species=("prey", "predator"),
        observed=(0, 1),
        x0=np.asarray(x0, dtype=float),
        sim=SimOptions(rk4_steps=300),
    )


LV_SSA_X0 = (1000, 1000)
LV_SSA_TIMES = np.round(np.linspace(0.1, 1.9, 19), 10)
LV_SSA_STOICHIOMETRY = ((1, 0), (-1, 1), (0, -1))  # prey birth, predation, predator death


def _lv_hazards(s, th):
    return np.array([th[0] * s[0], th[1] * s[0] * s[1], th[2] * s[1]])


def lv_ssa() -> ModelSpec:
    """Stochastic predator-prey reaction network, rates (c1, c2, c3).

    Prey birth consumes a fixed resource a = 1, so its hazard is c1 * x.
    """
    return ModelSpec(
        name="lv_ssa",
        system=ReactionNetwork(LV_SSA_STOICHIOMETRY, _lv_hazards),
        param_names=("c1", "c2", "c3"),
        species=("prey", "predator"),
        observed=(0, 1),
        x0=np.asarray(LV_SSA_X0, dtype=float),
    )


# ---------------------------------------------------------------------------
# Repressilator (three-gene oscillator)
# ---------------------------------------------------------------------------

REPRESSILATOR_X0 = (0.0, 2.0, 0.0, 1.0, 0.0, 3.0)  # (m1, p1, m2, p2, m3, p3)
REPRESSILATOR_TRUE = (1.0, 2.0, 5.0, 1000.0)  # (alpha0, n, beta, alpha)
REPRESSILATOR_TIMES = np.linspace(2.0, 38.0, 19)


def _hill(p, n, alpha, alpha0):
    with np.errstate(all="ignore"):
        return alpha / (1.0 + np.abs(p) ** n) + alpha0


def _repressilator_rhs(t, s, th):
    alpha0, n, beta, alpha = th[..., 0], th[..., 1], th[..., 2], th[..., 3]
    m1, p1, m2, p2, m3, p3 = (s[..., i] for i in range(6))
    # negative protein levels never occur on-support; |p| keeps fractional
    # exponents from produxing NaN before the blowup guard rejects the row
    return np.stack(
        [
            -m1 + _hill(p3, n, alpha, alpha0),
            -beta * (p1 - m1),
            -m2 + _hill(p1, n, alpha, alpha0),
            -beta * (p2 - m2),
            -m3 + _hill(p2, n, alpha, alpha0),
            -beta * (p3 - m3),
        ],
        axis=-1,
    )


def repressilator_ode() -> ModelSpec:
    """Deterministic three-gene repressor loop; only mRNA is observable."""
    return ModelSpec(
        name="repressilator_ode",
        system=OdeSystem(_repressilator_rhs),
        param_names=("alpha0", "n", "beta", "alpha"),
        species=("m1", "p1", "m2", "p2", "m3", "p3"),
        observed=(0, 2, 4),
        x0=np.asarray(REPRESSILATOR_X0, dtype=float),
        sim=SimOptions(rk4_steps=2000),
    )


# per gene i = 1..3: transcription, mRNA decay, translation, protein decay
REPRESSILATOR_SSA_STOICHIOMETRY = np.kron(np.eye(3), [[1, 0], [-1, 0], [0, 1], [0, -1]])


def _repressilator_hazards(s, th):
    m, p = s[0::2], s[1::2]
    repressor = p[[2, 0, 1]]  # gene i is repressed by protein j: (1<-3, 2<-1, 3<-2)
    transcription = th[3] / (1.0 + repressor ** th[1]) + th[0]
    per_gene = np.stack([transcription, m, th[2] * m, th[2] * p], axis=1)
    return per_gene.reshape((12,) + per_gene.shape[2:])


def repressilator_ssa() -> ModelSpec:
    """Stochastic repressilator: 12 reactions over (m_i, p_i), i = 1..3.

    Gene by gene: transcription at alpha / (1 + p_j^n) + alpha0, with p_j
    the protein that represses gene i; mRNA decay at m_i; translation at
    beta * m_i; protein decay at beta * p_i.
    """
    return ModelSpec(
        name="repressilator_ssa",
        system=ReactionNetwork(REPRESSILATOR_SSA_STOICHIOMETRY, _repressilator_hazards),
        param_names=("alpha0", "n", "beta", "alpha"),
        species=("m1", "p1", "m2", "p2", "m3", "p3"),
        observed=(0, 1, 2, 3, 4, 5),
        x0=np.asarray(REPRESSILATOR_X0, dtype=float),
        sim=SimOptions(ssa_max_events=20_000_000),
    )


# ---------------------------------------------------------------------------
# SIR epidemic family
# ---------------------------------------------------------------------------

SIR_X0 = (20.0, 10.0, 0.0)  # default initial (S, I, R) for the full variants
SIR_TIMES = np.arange(0.0, 12.0)  # day 0 pins the shared initial state
SIR_TRUE = (0.05, 0.08, 0.02, 0.3)  # default (alpha, gamma, d, v)

# selection-study constants: a closed population (no births or deaths, as in
# the island-outbreak analysis) plus a small infected seed make the wave's
# rise, peak and tail pin the timing, so the extra mechanisms of the rival
# models cannot silently re-create the generating dynamics
SIR_STUDY_X0 = (20.0, 2.0, 0.0)
SIR_STUDY_TRUE = (0.1, 0.4)  # (gamma, v)


def _sir_basic_rhs(t, s, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    alpha, gamma, d, v = (th[..., i] for i in range(4))
    inf = gamma * S * I
    return np.stack([alpha - inf - d * S, inf - v * I - d * I, v * I - d * R], axis=-1)


def sir_basic(x0: Sequence[float] = SIR_X0) -> ModelSpec:
    """Susceptible-infected-recovered with births/deaths: (alpha, gamma, d, v)."""
    return ModelSpec(
        name="sir_basic",
        system=OdeSystem(_sir_basic_rhs),
        param_names=("alpha", "gamma", "d", "v"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=np.asarray(x0, dtype=float),
        sim=SimOptions(rk4_steps=600),
    )


def _sir_delay_rhs(t, s, lagged, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    I_lag = lagged[0][..., 1]
    alpha, gamma, d, v = (th[..., i] for i in range(4))
    inf = gamma * S * I_lag
    return np.stack([alpha - inf - d * S, inf - v * I - d * I, v * I - d * R], axis=-1)


def sir_delay(x0: Sequence[float] = SIR_X0) -> ModelSpec:
    """SIR with an infectiousness delay: (alpha, gamma, d, v, tau).

    Negative tau draws (the priors allow them) are anti-causal and fail
    simulation, so they are never accepted.
    """
    return ModelSpec(
        name="sir_delay",
        system=DdeSystem((4,), _sir_delay_rhs),
        param_names=("alpha", "gamma", "d", "v", "tau"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=np.asarray(x0, dtype=float),
        # delays below ~2% of the window are beneath the daily sampling
        # resolution and count as zero; 330 steps over the 11-day window
        # make the grid step 1/30 day
        sim=SimOptions(rk4_steps=330, lag_floor_frac=0.02),
    )


def _sir_latent_rhs(t, s, th):
    S, L, I, R = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    alpha, gamma, d, v, delta = (th[..., i] for i in range(5))
    inf = gamma * S * I
    return np.stack(
        [
            alpha - inf - d * S,
            inf - delta * L - d * L,
            delta * L - v * I - d * I,
            v * I - d * R,
        ],
        axis=-1,
    )


def sir_latent(x0: Optional[Sequence[float]] = None) -> ModelSpec:
    """SIR with a latent infected phase: (alpha, gamma, d, v, delta)."""
    if x0 is None:
        x0 = (SIR_X0[0], 0.0, SIR_X0[1], SIR_X0[2])
    return ModelSpec(
        name="sir_latent",
        system=OdeSystem(_sir_latent_rhs),
        param_names=("alpha", "gamma", "d", "v", "delta"),
        species=("S", "L", "I", "R"),
        observed=(0, 2, 3),
        x0=np.asarray(x0, dtype=float),
        sim=SimOptions(rk4_steps=600),
    )


def _sir_sirs_rhs(t, s, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    alpha, gamma, d, v, e = (th[..., i] for i in range(5))
    inf = gamma * S * I
    return np.stack(
        [alpha - inf - d * S + e * R, inf - v * I - d * I, v * I - (d + e) * R],
        axis=-1,
    )


def sir_sirs(x0: Sequence[float] = SIR_X0) -> ModelSpec:
    """SIR with waning immunity (recovered return to susceptible at rate e)."""
    return ModelSpec(
        name="sir_sirs",
        system=OdeSystem(_sir_sirs_rhs),
        param_names=("alpha", "gamma", "d", "v", "e"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=np.asarray(x0, dtype=float),
        sim=SimOptions(rk4_steps=600),
    )


# ---------------------------------------------------------------------------
# Closed-population variants (no births or deaths) for the selection study
# ---------------------------------------------------------------------------

def sir_study_models(x0: Sequence[float] = SIR_STUDY_X0) -> tuple[ModelSpec, ...]:
    """The four epidemic variants with demography switched off and a known
    initial state; parameters are (gamma, v) plus each model's extra knob."""
    x0 = np.asarray(x0, dtype=float)
    x0_latent = np.array([x0[0], 0.0, x0[1], x0[2]])
    basic = ModelSpec(
        name="sir_basic_closed",
        system=OdeSystem(_outbreak_basic_rhs),
        param_names=("gamma", "v"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=x0,
        sim=SimOptions(rk4_steps=600),
    )
    delay = ModelSpec(
        name="sir_delay_closed",
        system=DdeSystem((2,), _outbreak_delay_rhs),
        param_names=("gamma", "v", "tau"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=x0,
        sim=SimOptions(rk4_steps=330, lag_floor_frac=0.02),  # step 1/30 day over 11 days
    )
    latent = ModelSpec(
        name="sir_latent_closed",
        system=OdeSystem(_outbreak_latent_rhs),
        param_names=("gamma", "v", "delta"),
        species=("S", "L", "I", "R"),
        observed=(0, 2, 3),
        x0=x0_latent,
        sim=SimOptions(rk4_steps=600),
    )
    sirs = ModelSpec(
        name="sir_sirs_closed",
        system=OdeSystem(_outbreak_sirs_rhs),
        param_names=("gamma", "v", "e"),
        species=("S", "I", "R"),
        observed=(0, 1, 2),
        x0=x0,
        sim=SimOptions(rk4_steps=600),
    )
    return (basic, delay, latent, sirs)


# ---------------------------------------------------------------------------
# Island outbreak variants: no births/deaths, unknown starting susceptibles
# ---------------------------------------------------------------------------

TRISTAN_DAYS = np.arange(1.0, 22.0)


def _outbreak_start_sir(th):
    s0 = th[..., -1]
    one = np.ones_like(s0)
    return np.stack([s0, one, 0.0 * one], axis=-1)


def _outbreak_start_latent(th):
    s0 = th[..., -1]
    one = np.ones_like(s0)
    return np.stack([s0, 0.0 * one, one, 0.0 * one], axis=-1)


def _outbreak_basic_rhs(t, s, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    gamma, v = th[..., 0], th[..., 1]
    inf = gamma * S * I
    return np.stack([-inf, inf - v * I, v * I], axis=-1)


def _outbreak_delay_rhs(t, s, lagged, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    I_lag = lagged[0][..., 1]
    gamma, v = th[..., 0], th[..., 1]
    inf = gamma * S * I_lag
    return np.stack([-inf, inf - v * I, v * I], axis=-1)


def _outbreak_latent_rhs(t, s, th):
    S, L, I, R = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    gamma, v, delta = th[..., 0], th[..., 1], th[..., 2]
    inf = gamma * S * I
    return np.stack([-inf, inf - delta * L, delta * L - v * I, v * I], axis=-1)


def _outbreak_sirs_rhs(t, s, th):
    S, I, R = s[..., 0], s[..., 1], s[..., 2]
    gamma, v, e = th[..., 0], th[..., 1], th[..., 2]
    inf = gamma * S * I
    return np.stack([-inf + e * R, inf - v * I, v * I - e * R], axis=-1)


def outbreak_models() -> tuple[ModelSpec, ...]:
    """The four epidemic variants configured for a 21-day outbreak with
    one initial case, no births/deaths, and the starting susceptible count
    as a discrete parameter (last coordinate)."""
    common = dict(t0=1.0, x0=None)
    basic = ModelSpec(
        name="outbreak_basic",
        system=OdeSystem(_outbreak_basic_rhs),
        param_names=("gamma", "v", "s0"),
        species=("S", "I", "R"),
        observed=(1, 2),
        initial_state=_outbreak_start_sir,
        sim=SimOptions(rk4_steps=600),
        **common,
    )
    delay = ModelSpec(
        name="outbreak_delay",
        system=DdeSystem((2,), _outbreak_delay_rhs),
        param_names=("gamma", "v", "tau", "s0"),
        species=("S", "I", "R"),
        observed=(1, 2),
        initial_state=_outbreak_start_sir,
        sim=SimOptions(rk4_steps=600, lag_floor_frac=0.01),  # step 1/30 day over 20 days
        **common,
    )
    latent = ModelSpec(
        name="outbreak_latent",
        system=OdeSystem(_outbreak_latent_rhs),
        param_names=("gamma", "v", "delta", "s0"),
        species=("S", "L", "I", "R"),
        observed=(2, 3),
        initial_state=_outbreak_start_latent,
        sim=SimOptions(rk4_steps=600),
        **common,
    )
    sirs = ModelSpec(
        name="outbreak_sirs",
        system=OdeSystem(_outbreak_sirs_rhs),
        param_names=("gamma", "v", "e", "s0"),
        species=("S", "I", "R"),
        observed=(1, 2),
        initial_state=_outbreak_start_sir,
        sim=SimOptions(rk4_steps=600),
        **common,
    )
    return (basic, delay, latent, sirs)


TRISTAN_I = (1, 1, 3, 7, 6, 10, 13, 13, 14, 14, 17, 10, 6, 6, 4, 3, 1, 1, 1, 1, 0)
TRISTAN_R = (0, 0, 0, 0, 5, 7, 8, 13, 13, 16, 16, 24, 30, 31, 33, 34, 36, 36, 36, 36, 37)


def tristan_dataset() -> Dataset:
    """Common-cold counts from the Tristan da Cunha outbreak, October 1967:
    daily infected and recovered; susceptibles were never observed."""
    values = np.column_stack(
        [np.full(21, np.nan), np.array(TRISTAN_I, float), np.array(TRISTAN_R, float)]
    )
    return Dataset(TRISTAN_DAYS, values, ("S", "I", "R"), (1, 2))


# ---------------------------------------------------------------------------
# Normal-mixture toy (direct sampler)
# ---------------------------------------------------------------------------

MIXTURE_VARIANCE = 0.5 * 1.0 + 0.5 * 0.01  # variance of the flat-prior target


def _mixture_sample(thetas, times, rng):
    B, n = thetas.shape[0], len(times)
    wide = rng.random((B, n)) < 0.5
    sd = np.where(wide, 1.0, 0.1)
    return (thetas[:, :1, None] + sd[..., None] * rng.standard_normal((B, n, 1)))


def normal_mixture_toy() -> ModelSpec:
    """Scalar toy: one draw from an equal mixture of N(theta, 1) and
    N(theta, 1/100); the observed datum is 0."""
    return ModelSpec(
        name="normal_mixture",
        system=DirectSampler(_mixture_sample),
        param_names=("theta",),
        species=("x",),
        observed=(0,),
    )


def normal_mixture_dataset() -> Dataset:
    return Dataset(np.array([0.0]), np.array([[0.0]]), ("x",), (0,))


MIXTURE_EPSILONS = (2.0, 1.5, 1.0, 0.75, 0.5, 0.2, 0.1, 0.075, 0.05, 0.03, 0.025)


# ---------------------------------------------------------------------------
# Registry and default experiment setups
# ---------------------------------------------------------------------------

MODELS: dict[str, Callable[[], ModelSpec]] = {
    "lv_ode": lv_ode,
    "lv_ssa": lv_ssa,
    "repressilator_ode": repressilator_ode,
    "repressilator_ssa": repressilator_ssa,
    "sir_basic": sir_basic,
    "sir_delay": sir_delay,
    "sir_latent": sir_latent,
    "sir_sirs": sir_sirs,
    "sir_basic_closed": lambda: sir_study_models()[0],
    "sir_delay_closed": lambda: sir_study_models()[1],
    "sir_latent_closed": lambda: sir_study_models()[2],
    "sir_sirs_closed": lambda: sir_study_models()[3],
    "outbreak_basic": lambda: outbreak_models()[0],
    "outbreak_delay": lambda: outbreak_models()[1],
    "outbreak_latent": lambda: outbreak_models()[2],
    "outbreak_sirs": lambda: outbreak_models()[3],
    "normal_mixture": normal_mixture_toy,
}


def get_model(name: str) -> ModelSpec:
    try:
        return MODELS[name]()
    except KeyError:
        raise ConfigError(f"unknown model '{name}'; choose from {sorted(MODELS)}") from None


# priors/kernels for the synthetic epidemic selection study; the generating
# values SIR_STUDY_TRUE are a documented choice (only the noise level is
# standard)
SIR_PRIOR_BOUNDS = {
    "gamma": (0.0, 0.3),
    "v": (0.0, 2.0),
    "tau": (-0.5, 5.0),
    "delta": (-0.5, 5.0),
    "e": (-0.5, 5.0),
}
SIR_KERNEL_SIGMAS = {
    "gamma": 0.004,
    "v": 0.02,
    "tau": 0.1,
    "delta": 0.1,
    "e": 0.1,
}
SIR_SELECTION_EPSILONS = (1000.0, 500.0, 250.0, 120.0, 60.0, 30.0, 15.0, 8.0, 5.0, 3.2, 2.4)
SIR_NOISE_SD = 0.2

TRISTAN_EPSILONS = (100.0, 90.0, 80.0, 73.0, 70.0, 60.0, 50.0, 40.0, 30.0, 25.0, 20.0, 16.0, 15.0, 14.0, 13.8)
TRISTAN_PRIOR_BOUNDS = {
    "gamma": (0.0, 3.0),
    "v": (0.0, 3.0),
    "tau": (-0.5, 5.0),
    "delta": (-0.5, 5.0),
    "e": (-0.5, 5.0),
}
TRISTAN_KERNEL_SIGMAS = {"gamma": 0.3, "v": 0.3, "tau": 1.0, "delta": 1.0, "e": 1.0, "s0": 3}

REPRESSILATOR_EPSILONS = (10000.0, 6000.0, 4000.0, 3000.0, 2500.0, 2200.0, 2000.0, 1900.0, 1800.0, 1700.0)


def _prior_kernel_from_tables(model, bounds, sigmas, s0_prior=None):
    marginals = []
    sig = []
    for i, p in enumerate(model.param_names):
        if p == "s0":
            marginals.append(s0_prior or DiscreteUniform(37, 100))
        else:
            lo, hi = bounds[p]
            marginals.append(Uniform(lo, hi))
        sig.append(sigmas[p] if p in sigmas else 1.0)
    prior = PriorSpec(tuple(marginals))
    kernel = KernelSpec.for_prior(prior, sig)
    return prior, kernel


def default_setup(name: str) -> Setup:
    """Standard experiment configuration for a zoo entry (or study name)."""
    if name == "lv_ode":
        model = lv_ode()
        prior = uniform_box([(-10.0, 10.0), (-10.0, 10.0)])
        kernel = KernelSpec.for_prior(prior, [0.1, 0.1])
        recipe = DataRecipe(model, (1.0, 1.0), LV_TIMES, noise_sd=0.5)
        return Setup(
            models=(model,), priors=(prior,), kernels=(kernel,),
            epsilons=(30.0, 16.0, 6.0, 5.0, 4.3), n_particles=1000,
            distance="sse", recipe=recipe,
        )
    if name == "lv_ssa":
        model = lv_ssa()
        prior = uniform_box([(0.0, 28.0), (0.0, 0.04), (0.0, 28.0)])
        kernel = KernelSpec.for_prior(prior, [1.0, 0.0025, 1.0])
        recipe = DataRecipe(model, (10.0, 0.01, 10.0), LV_SSA_TIMES, noise_sd=0.0, replicates=3)
        return Setup(
            models=(model,), priors=(prior,), kernels=(kernel,),
            epsilons=(4000.0, 2900.0, 2000.0, 1900.0, 1800.0), n_particles=100,
            distance="sse", sim_trials=10, replicates=3, recipe=recipe,
        )
    if name == "repressilator_ode":
        model = repressilator_ode()
        prior = uniform_box([(-2.0, 10.0), (0.0, 10.0), (-5.0, 20.0), (500.0, 2500.0)])
        kernel = KernelSpec.for_prior(prior, [0.3, 0.25, 0.6, 50.0])
        recipe = DataRecipe(model, REPRESSILATOR_TRUE, REPRESSILATOR_TIMES, noise_sd=5.0)
        return Setup(
            models=(model,), priors=(prior,), kernels=(kernel,),
            epsilons=REPRESSILATOR_EPSILONS, n_particles=1000,
            distance="sse", recipe=recipe,
        )
    if name == "repressilator_ssa":
        model = repressilator_ssa()
        prior = uniform_box([(-2.0, 10.0), (0.0, 10.0), (-5.0, 20.0), (500.0, 2500.0)])
        kernel = KernelSpec.for_prior(prior, [0.3, 0.25, 0.6, 50.0])
        recipe = DataRecipe(model, REPRESSILATOR_TRUE, REPRESSILATOR_TIMES, noise_sd=0.0, replicates=20)
        return Setup(
            models=(model,), priors=(prior,), kernels=(kernel,),
            epsilons=(900.0, 650.0, 500.0, 450.0, 400.0), n_particles=200,
            distance="sse", sim_trials=5, replicates=20, recipe=recipe,
        )
    if name == "normal_mixture":
        model = normal_mixture_toy()
        prior = uniform_box([(-10.0, 10.0)])
        kernel = KernelSpec.for_prior(prior, [1.5])
        return Setup(
            models=(model,), priors=(prior,), kernels=(kernel,),
            epsilons=MIXTURE_EPSILONS, n_particles=100,
            distance="l1", dataset=normal_mixture_dataset(),
        )
    if name == "sir_selection":
        models = sir_study_models()
        priors, kernels = [], []
        for m in models:
            p, k = _prior_kernel_from_tables(m, SIR_PRIOR_BOUNDS, SIR_KERNEL_SIGMAS)
            priors.append(p)
            kernels.append(k)
        recipe = DataRecipe(models[0], SIR_STUDY_TRUE, SIR_TIMES, noise_sd=SIR_NOISE_SD)
        return Setup(
            models=models, priors=tuple(priors), kernels=tuple(kernels),
            epsilons=SIR_SELECTION_EPSILONS, n_particles=500,
            distance="sse", recipe=recipe,
        )
    if name == "tristan":
        models = outbreak_models()
        priors, kernels = [], []
        for m in models:
            p, k = _prior_kernel_from_tables(m, TRISTAN_PRIOR_BOUNDS, TRISTAN_KERNEL_SIGMAS)
            priors.append(p)
            kernels.append(k)
        return Setup(
            models=models, priors=tuple(priors), kernels=tuple(kernels),
            epsilons=TRISTAN_EPSILONS, n_particles=1000,
            distance="sse", dataset=tristan_dataset(),
        )
    raise ConfigError(f"no default setup named '{name}'")


SETUPS = (
    "lv_ode", "lv_ssa", "repressilator_ode", "repressilator_ssa",
    "normal_mixture", "sir_selection", "tristan",
)
