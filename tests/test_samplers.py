import math

import numpy as np
import pytest
from scipy import stats

from abcsmc import models
from abcsmc.core import (
    ConfigError,
    GaussianWalk,
    InferenceConfig,
    KernelSpec,
    PriorSpec,
    ToleranceSchedule,
    Uniform,
    UniformWalk,
    task_rng,
    uniform_box,
)
from abcsmc.distance import Dataset
from abcsmc.samplers import (
    AcceptanceTest,
    BudgetExceeded,
    SmcResult,
    abc_mcmc,
    abc_prc_baseline,
    abc_rejection,
    abc_smc,
    abc_smc_model_selection,
    importance_weights,
    observed_columns,
)


def toy_config(epsilons, n_particles=100, seed=0, sigma=1.5, **kw):
    setup = models.default_setup("normal_mixture")
    kernel = KernelSpec((UniformWalk(sigma),))
    return InferenceConfig(
        models=setup.models,
        priors=setup.priors,
        kernels=(kernel,),
        schedule=ToleranceSchedule(epsilons),
        n_particles=n_particles,
        dataset=setup.dataset,
        distance="l1",
        seed=seed,
        **kw,
    )


def lv_config(epsilons, n_particles=200, seed=0, data_seed=5, **kw):
    setup = models.default_setup("lv_ode")
    dataset = models.generate_data(setup.recipe, task_rng(data_seed))
    return InferenceConfig(
        models=setup.models,
        priors=setup.priors,
        kernels=setup.kernels,
        schedule=ToleranceSchedule(epsilons),
        n_particles=n_particles,
        dataset=dataset,
        distance="sse",
        seed=seed,
        **kw,
    )


def wvar(pop):
    th = pop.thetas()[:, 0]
    w = pop.weights()
    w = w / w.sum()
    mu = w @ th
    return float(w @ (th - mu) ** 2)


# ---------------------------------------------------------------------------
# Weight computation against a brute-force oracle
# ---------------------------------------------------------------------------

def _one_model_weights(thetas, hits, prior, kernel, parents=None, parent_w=None):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    previous = None if parents is None else {1: (np.asarray(parents, dtype=float),
                                                  np.asarray(parent_w, dtype=float))}
    labels = np.ones(len(thetas), dtype=int)
    return importance_weights(labels, {1: thetas}, np.asarray(hits), (prior,), (kernel,),
                              previous)


def test_importance_weights_first_population_is_hit_count():
    prior = uniform_box([(-10.0, 10.0)])
    kernel = KernelSpec((UniformWalk(0.5),))
    hits = np.array([1, 4, 2, 5])
    w = _one_model_weights([[0.0], [1.0], [2.0], [3.0]], hits, prior, kernel)
    assert np.array_equal(w, hits.astype(float))


def test_importance_weights_single_parent_hand_value():
    prior = uniform_box([(-10.0, 10.0)])
    kernel = KernelSpec((UniformWalk(0.5),))
    w = _one_model_weights([[1.2]], [1], prior, kernel, parents=[[1.0]], parent_w=[1.0])
    # prior density 1/20; single parent with weight 1 and kernel density 1/(2*0.5)
    assert w[0] == pytest.approx((1 / 20) / 1.0)


def test_importance_weights_match_brute_force_sum():
    rng = np.random.default_rng(8)
    prior = uniform_box([(-5.0, 5.0), (-5.0, 5.0)])
    kernel = KernelSpec((UniformWalk(1.0), GaussianWalk(0.7)))
    parents = rng.uniform(-2, 2, (5, 2))
    parent_w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    theta = np.array([0.4, -0.2])

    def k(a, b):
        uniform = 0.5 if abs(b[0] - a[0]) <= 1.0 else 0.0
        z = (b[1] - a[1]) / 0.7
        return uniform * math.exp(-0.5 * z * z) / (0.7 * math.sqrt(2 * math.pi))

    expected_den = sum(wj * k(pj, theta) for pj, wj in zip(parents, parent_w))
    expected = (1 / 100) * 3 / expected_den
    w = _one_model_weights([theta], [3], prior, kernel, parents=parents, parent_w=parent_w)
    assert w[0] == pytest.approx(expected)


def test_importance_weights_zero_denominator_aborts():
    prior = uniform_box([(-5.0, 5.0)])
    kernel = KernelSpec((UniformWalk(0.1),))
    with pytest.raises(RuntimeError):
        _one_model_weights([[3.0]], [1], prior, kernel, parents=[[0.0]], parent_w=[1.0])


# ---------------------------------------------------------------------------
# Rejection sampler
# ---------------------------------------------------------------------------

def test_rejection_infinite_tolerance_recovers_prior():
    cfg = toy_config((np.inf,), n_particles=1000, seed=3)
    pop = abc_rejection(cfg)
    draws = pop.thetas()[:, 0]
    prior_draws = task_rng(99).uniform(-10, 10, 1000)
    _, p = stats.ks_2samp(draws, prior_draws)
    assert p > 0.01
    assert np.allclose(pop.weights(), pop.weights()[0])  # equal weights


def test_rejection_toy_variance_near_target():
    cfg = toy_config((0.025,), n_particles=400, seed=4)
    pop = abc_rejection(cfg)
    assert abs(wvar(pop) - 0.505) < 0.15


def test_rejection_tracks_simulation_ledger():
    cfg = toy_config((0.5,), n_particles=50, seed=5)
    pop = abc_rejection(cfg)
    assert pop.sim_count >= 50
    assert pop.proposals >= pop.sim_count  # each proposal costs one sim here
    assert len(pop) == 50


def test_rejection_acceptance_floor_aborts():
    cfg = toy_config((1e-9,), n_particles=10, seed=6, acceptance_floor=1e-3)
    with pytest.raises(BudgetExceeded):
        abc_rejection(cfg)


def test_rejection_needs_single_tolerance():
    cfg = toy_config((1.0, 0.5), n_particles=10)
    with pytest.raises(ConfigError):
        abc_rejection(cfg)
    pop = abc_rejection(cfg, epsilon=0.5)
    assert pop.epsilon == 0.5


# ---------------------------------------------------------------------------
# Sequential sampler
# ---------------------------------------------------------------------------

def test_smc_single_tolerance_equals_rejection_distribution():
    eps = 30.0
    cfg_smc = lv_config((eps,), n_particles=1000, seed=11)
    cfg_rej = lv_config((eps,), n_particles=1000, seed=12)
    smc = abc_smc(cfg_smc).final_population
    rej = abc_rejection(cfg_rej)
    for j in range(2):
        _, p = stats.ks_2samp(smc.thetas()[:, j], rej.thetas()[:, j])
        assert p > 0.01


def test_smc_accepted_particles_satisfy_tolerance_and_prior():
    cfg = lv_config((30.0, 16.0), n_particles=150, seed=13)
    result = abc_smc(cfg)
    for pop in result.populations:
        assert np.all(pop.distances() <= pop.epsilon)
        dens = cfg.priors[0].density_many(pop.thetas())
        assert np.all(dens > 0)
        assert abs(pop.weights().sum() - 1.0) < 1e-12


def test_smc_weights_finite_positive():
    cfg = toy_config((2.0, 1.0, 0.5), n_particles=200, seed=14)
    result = abc_smc(cfg)
    for pop in result.populations:
        w = pop.weights()
        assert np.all(np.isfinite(w)) and np.all(w > 0)


def test_smc_sim_counts_cumulative():
    cfg = toy_config((2.0, 1.0, 0.5), n_particles=100, seed=15)
    result = abc_smc(cfg)
    sims = [pop.sim_count for pop in result.populations]
    assert all(b >= a for a, b in zip(sims, sims[1:]))


def test_smc_concentrates_monotonically():
    from abcsmc.analysis import interquantile_trajectory

    cfg = lv_config((30.0, 16.0, 6.0, 5.0, 4.3), n_particles=400, seed=16)
    result = abc_smc(cfg)
    ranges = interquantile_trajectory(result.populations)
    assert ranges.shape == (5, 2)
    assert np.allclose(ranges[0], 1.0)
    # non-increasing up to 10% slack
    for j in range(2):
        assert np.all(np.diff(ranges[:, j]) <= 0.1)
    assert np.all(ranges[-1] < 1.0)


def test_smc_bit_reproducible():
    cfg_a = toy_config((2.0, 0.5), n_particles=120, seed=21)
    cfg_b = toy_config((2.0, 0.5), n_particles=120, seed=21)
    a = abc_smc(cfg_a).final_population
    b = abc_smc(cfg_b).final_population
    assert np.array_equal(a.thetas(), b.thetas())
    assert np.array_equal(a.weights(), b.weights())
    c = abc_smc(toy_config((2.0, 0.5), n_particles=120, seed=22)).final_population
    assert not np.array_equal(a.thetas(), c.thetas())


def test_smc_budget_exceeded_carries_partial_results():
    cfg = toy_config((2.0, 1e-9), n_particles=50, seed=24,
                     max_proposals_per_population=2000)
    with pytest.raises(BudgetExceeded) as exc:
        abc_smc(cfg)
    partial = exc.value.partial
    assert isinstance(partial, SmcResult)
    assert len(partial.populations) == 1  # first population finished


def test_replicate_trials_weight_population_zero_by_hits():
    cfg = toy_config((1.0,), n_particles=150, seed=26, sim_trials=5)
    pop = abc_smc(cfg).final_population
    # weights proportional to per-proposal hit counts in the first population
    hits = pop.weights()
    assert len(np.unique(np.round(hits / hits.min()))) > 1


# ---------------------------------------------------------------------------
# Equal-weight baseline
# ---------------------------------------------------------------------------

def test_prc_single_population_identical_to_smc():
    a = abc_smc(toy_config((0.5,), n_particles=150, seed=31)).final_population
    b = abc_prc_baseline(toy_config((0.5,), n_particles=150, seed=31)).final_population
    assert np.array_equal(a.thetas(), b.thetas())
    assert np.allclose(b.weights(), b.weights()[0])


def test_prc_full_range_kernel_matches_smc():
    # a kernel spanning the whole prior makes every weight equal analytically
    smc = abc_smc(toy_config(models.MIXTURE_EPSILONS, n_particles=100, seed=32, sigma=20.0))
    prc = abc_prc_baseline(toy_config(models.MIXTURE_EPSILONS, n_particles=100, seed=32, sigma=20.0))
    a, b = smc.final_population, prc.final_population
    assert np.array_equal(a.thetas(), b.thetas())
    assert abs(wvar(a) - wvar(b)) < 0.1
    assert np.allclose(a.weights(), a.weights()[0], rtol=1e-9)


def test_prc_underestimates_variance_with_small_kernel():
    smc_vars, prc_vars = [], []
    for seed in range(12):
        smc = abc_smc(toy_config(models.MIXTURE_EPSILONS, n_particles=100, seed=500 + seed))
        prc = abc_prc_baseline(toy_config(models.MIXTURE_EPSILONS, n_particles=100, seed=500 + seed))
        smc_vars.append(wvar(smc.final_population))
        prc_vars.append(wvar(prc.final_population))
    assert np.mean(prc_vars) < np.mean(smc_vars)


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

def _two_identical_toys(seed, n=400):
    setup = models.default_setup("normal_mixture")
    model = setup.models[0]
    prior = setup.priors[0]
    kernel = KernelSpec((UniformWalk(1.5),))
    return InferenceConfig(
        models=(model, model),
        priors=(prior, prior),
        kernels=(kernel, kernel),
        schedule=ToleranceSchedule((2.0, 1.0)),
        n_particles=n,
        dataset=setup.dataset,
        distance="l1",
        seed=seed,
    )


def test_identical_models_get_uniform_posterior():
    result = abc_smc_model_selection(_two_identical_toys(41))
    counts = result.model_counts()[-1]
    assert counts.sum() == 400
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_selection_requires_at_least_two_models():
    with pytest.raises(ConfigError):
        abc_smc_model_selection(toy_config((1.0,)))


def test_selection_particles_carry_model_labels():
    result = abc_smc_model_selection(_two_identical_toys(42, n=100))
    final = result.final_population
    assert set(final.labels.tolist()) <= {1, 2}
    assert final.models_present() == sorted(set(final.labels.tolist()))
    for label in final.models_present():
        assert abs(final.weights(label).sum() - 1.0) < 1e-12


def test_selection_bit_reproducible():
    a = abc_smc_model_selection(_two_identical_toys(43, n=100)).final_population
    b = abc_smc_model_selection(_two_identical_toys(43, n=100)).final_population
    assert np.array_equal(a.thetas(), b.thetas())
    assert np.array_equal(a.labels, b.labels)


def test_died_out_model_excluded_from_later_populations():
    setup = models.default_setup("normal_mixture")
    toy = setup.models[0]
    # second model simulates far from the datum and dies immediately
    from abcsmc.simulate import DirectSampler
    from dataclasses import replace

    def far_sample(thetas, times, rng):
        out = models._mixture_sample(thetas, times, rng)
        return out + 50.0

    far = replace(toy, name="far_toy", system=DirectSampler(1, far_sample))
    prior = setup.priors[0]
    kernel = KernelSpec((UniformWalk(1.5),))
    cfg = InferenceConfig(
        models=(toy, far),
        priors=(prior, prior),
        kernels=(kernel, kernel),
        schedule=ToleranceSchedule((2.0, 1.0, 0.5)),
        n_particles=150,
        dataset=setup.dataset,
        distance="l1",
        seed=44,
    )
    result = abc_smc_model_selection(cfg)
    counts = result.model_counts()
    assert counts[-1][1] == 0
    assert counts[-1][0] == 150


# ---------------------------------------------------------------------------
# Markov chain sampler
# ---------------------------------------------------------------------------

def test_mcmc_accepts_every_passing_proposal_with_uniform_prior():
    cfg = toy_config((0.5,), n_particles=10, seed=51)
    result = abc_mcmc(cfg, chain_length=10_000)
    assert result.passed > 100
    assert result.accepted_after_pass == result.passed


def test_mcmc_out_of_support_repeats_state():
    prior = uniform_box([(0.0, 1.0)])
    kernel = KernelSpec((UniformWalk(50.0),))  # almost always leaves the box
    setup = models.default_setup("normal_mixture")
    cfg = InferenceConfig(
        models=setup.models, priors=(prior,), kernels=(kernel,),
        schedule=ToleranceSchedule((np.inf,)), n_particles=10,
        dataset=setup.dataset, distance="l1", seed=52,
    )
    result = abc_mcmc(cfg, chain_length=500)
    repeats = np.sum(result.chain[1:] == result.chain[:-1])
    assert repeats > 400  # out-of-support proposals repeat the current state
    assert result.sims < 500  # rejected-by-prior proposals consume no simulation


def test_mcmc_stationary_region_membership():
    cfg = toy_config((0.5,), n_particles=10, seed=53)
    result = abc_mcmc(cfg, chain_length=4000)
    tail = result.chain[2000:, 0]
    # stationary distribution is the prior restricted to |x| <= 0.5-ish region;
    # the chain should spend most time near the accepted region's center
    assert np.abs(tail).mean() < 3.0


def test_mcmc_adaptive_scaling_freezes_after_burn_in():
    setup = models.default_setup("normal_mixture")
    kernel = KernelSpec((GaussianWalk(1.0),))
    cfg = InferenceConfig(
        models=setup.models, priors=setup.priors, kernels=(kernel,),
        schedule=ToleranceSchedule((0.5,)), n_particles=10,
        dataset=setup.dataset, distance="l1", seed=54,
    )
    result = abc_mcmc(cfg, chain_length=800, proposal=kernel, adapt=True, burn_in=400)
    assert result.final_scale != 1.0


def test_mcmc_adapt_requires_gaussian_kernel():
    cfg = toy_config((0.5,), n_particles=10, seed=55)
    with pytest.raises(ConfigError):
        abc_mcmc(cfg, chain_length=10, adapt=True)


# ---------------------------------------------------------------------------
# Acceptance test plumbing
# ---------------------------------------------------------------------------

def test_observed_columns_maps_by_name():
    ds = models.tristan_dataset()
    basic, delay, latent, sirs = models.outbreak_models()
    assert observed_columns(ds, basic) == [1, 2]
    assert observed_columns(ds, latent) == [2, 3]


def test_observed_columns_unknown_species_raises():
    ds = models.tristan_dataset()
    toy = models.normal_mixture_toy()
    with pytest.raises(ConfigError):
        observed_columns(ds, toy)


def test_acceptance_test_counts_hits():
    setup = models.default_setup("normal_mixture")
    test = AcceptanceTest(setup.dataset, "l1", epsilon=5.0, sim_trials=8)
    hits, best = test.evaluate_batch(setup.models[0], np.array([[0.0]]), task_rng(1))
    assert 0 <= hits[0] <= 8
    assert hits[0] > 0  # epsilon=5 catches most draws from theta=0
    assert best[0] <= 5.0


def test_simulation_failures_count_as_nonacceptance():
    # explosive parameters are simulated, counted, and never accepted
    cfg = lv_config((1e6,), n_particles=50, seed=56)
    pop = abc_rejection(cfg)
    assert np.all(np.isfinite(pop.distances()))
