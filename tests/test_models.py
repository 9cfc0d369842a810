import dataclasses

import numpy as np
import pytest

from abcsmc import models
from abcsmc.core import ConfigError, task_rng
from abcsmc.distance import sse_many
from abcsmc.models import (
    DataRecipe,
    generate_data,
    get_model,
    lv_ode,
    normal_mixture_dataset,
    normal_mixture_toy,
    repressilator_ode,
    repressilator_ssa,
    sir_basic,
    sir_delay,
    sir_latent,
    sir_sirs,
    tristan_dataset,
)
from abcsmc.samplers import _BATCH_BASE
from abcsmc.simulate import simulate_model_batch


def simulate_one(model, theta, times):
    """The (n, m) states of one deterministic run, which must succeed."""
    states, ok = simulate_model_batch(model, np.asarray(theta, dtype=float)[None, :], times)
    assert ok[0]
    return states[0]


def sse(a, b):
    return sse_many(a.observed_values(), b.observed_values())


def test_lv_fixed_point():
    model = lv_ode()
    rhs = model.system.rhs(0.0, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(rhs, 0.0)


def test_lv_recipe_matches_standard_constants():
    setup = models.default_setup("lv_ode")
    assert setup.recipe.noise_sd == 0.5
    assert len(setup.recipe.times) == 8
    assert tuple(setup.recipe.true_theta) == (1.0, 1.0)
    assert setup.epsilons == (30.0, 16.0, 6.0, 5.0, 4.3)


def test_lv_noisy_dataset_sse_concentrates_near_four():
    # E[sum of squared N(0, 0.25) noise over 16 entries] = 4
    setup = models.default_setup("lv_ode")
    noiseless = generate_data(
        DataRecipe(setup.models[0], (1.0, 1.0), setup.recipe.times, 0.0), task_rng(0)
    )
    rng = task_rng(77)
    sses = []
    for _ in range(300):
        ds = generate_data(setup.recipe, rng)
        sses.append(sse(ds, noiseless))
    assert abs(np.mean(sses) - 4.0) < 0.25
    # individual draws live in the chi-square band
    assert np.quantile(sses, 0.99) < 8.3 + 1.0


def test_generate_data_zero_noise_equals_trajectory():
    model = lv_ode()
    recipe = DataRecipe(model, (1.0, 1.0), models.LV_TIMES, 0.0)
    ds = generate_data(recipe, task_rng(1))
    states = simulate_one(model, [1.0, 1.0], models.LV_TIMES)
    assert np.array_equal(ds.observed_values(), states)


def test_generate_data_mean_sse_matches_noise_level():
    # oracle: Monte Carlo over regenerated datasets
    model = sir_basic()
    times = models.SIR_TIMES
    recipe = DataRecipe(model, models.SIR_TRUE, times, 0.2)
    noiseless = generate_data(DataRecipe(model, models.SIR_TRUE, times, 0.0), task_rng(0))
    rng = task_rng(31)
    sses = [sse(generate_data(recipe, rng), noiseless) for _ in range(1000)]
    expected = noiseless.observed_values().size * 0.04
    assert abs(np.mean(sses) - expected) < 0.1


def test_generate_data_masks_unobserved_species():
    model = repressilator_ode()
    recipe = DataRecipe(model, models.REPRESSILATOR_TRUE, models.REPRESSILATOR_TIMES, 5.0)
    ds = generate_data(recipe, task_rng(3))
    assert ds.observed_species == ("m1", "m2", "m3")
    assert np.isnan(ds.values[:, 1]).all()  # protein columns hidden
    assert np.isfinite(ds.observed_values()).all()


def test_lv_ssa_recipe_constants():
    setup = models.default_setup("lv_ssa")
    assert tuple(setup.recipe.true_theta) == (10.0, 0.01, 10.0)
    assert len(setup.recipe.times) == 19
    assert setup.replicates == 3
    assert setup.sim_trials == 10
    bounds = [(m.lo, m.hi) for m in setup.priors[0].marginals]
    assert bounds == [(0.0, 28.0), (0.0, 0.04), (0.0, 28.0)]
    assert np.array_equal(setup.models[0].x0, [1000.0, 1000.0])


def test_repressilator_limit_cycle_at_standard_parameters():
    model = repressilator_ode()
    m1 = simulate_one(model, models.REPRESSILATOR_TRUE, models.REPRESSILATOR_TIMES)[:, 0]
    assert m1.max() - m1.min() > 5.0  # swings exceed the observation noise sd


def test_repressilator_priors():
    setup = models.default_setup("repressilator_ode")
    bounds = [(m.lo, m.hi) for m in setup.priors[0].marginals]
    assert bounds == [(-2.0, 10.0), (0.0, 10.0), (-5.0, 20.0), (500.0, 2500.0)]


def test_repressilator_ssa_hazards_at_zero_state():
    model = repressilator_ssa()
    theta = np.array([1.0, 2.0, 5.0, 1000.0])  # (alpha0, n, beta, alpha)
    zero = np.zeros(6)
    hazards = model.system.hazards(zero, theta)
    # transcription fires at alpha + alpha0 when no repressor protein exists
    transcription = hazards[0::4]
    assert np.allclose(transcription, 1001.0)
    assert np.allclose(np.delete(hazards, [0, 4, 8]), 0.0)


def test_network_hazards_match_per_reaction_reference():
    # reference: each reaction's propensity written out with scalar
    # arithmetic; an (m, B) block of states must give the per-state columns
    rng = np.random.default_rng(0)
    lv = models.lv_ssa().system.hazards
    rep = repressilator_ssa().system.hazards
    prior = models.default_setup("repressilator_ssa").priors[0]
    states = rng.integers(0, 60, (200, 6)).astype(float)
    thetas = prior.sample(rng, 200)
    lv_block, rep_block = lv(states[:, :2].T, thetas[:, :3].T), rep(states.T, thetas.T)
    for b, (s, th) in enumerate(zip(states.tolist(), thetas.tolist())):
        assert lv(states[b], thetas[b]).tolist() == [th[0] * s[0], th[1] * s[0] * s[1], th[2] * s[1]]
        ref = []
        for i in range(3):
            j = (i + 2) % 3  # gene i is repressed by protein j
            m, p, pj = s[2 * i], s[2 * i + 1], s[2 * j + 1]
            ref += [th[3] / (1.0 + pj ** th[1]) + th[0], m, th[2] * m, th[2] * p]
        # array and scalar powers may differ in the last bit; values reach 2.5e3
        assert np.allclose(rep(states[b], thetas[b]), ref, rtol=1e-13, atol=1e-11)
        assert np.array_equal(lv_block[:, b], lv(states[b, :2], thetas[b, :3]))
        assert np.array_equal(rep_block[:, b], rep(states[b], thetas[b]))


def test_repressilator_ssa_setup_constants():
    setup = models.default_setup("repressilator_ssa")
    assert setup.epsilons == (900.0, 650.0, 500.0, 450.0, 400.0)
    assert setup.n_particles == 200
    assert setup.sim_trials == 5
    assert setup.replicates == 20
    assert setup.models[0].observed == (0, 1, 2, 3, 4, 5)


def test_sir_decoupled_decay():
    # with alpha = d = 0 and gamma = 0, infections decay as I(0) e^(-v t)
    for factory in (sir_basic, sir_sirs):
        model = factory()
        theta = np.zeros(model.n_params)
        theta[list(model.param_names).index("v")] = 0.5
        times = np.array([1.0, 2.0, 4.0, 8.0])
        states = simulate_one(model, theta, times)
        i_col = model.species.index("I")
        expected = 10.0 * np.exp(-0.5 * times)
        assert np.allclose(states[:, i_col], expected, rtol=1e-6)


def test_sir_conservation_without_births_deaths():
    times = np.linspace(1.0, 12.0, 12)
    for factory, theta in [
        (sir_basic, [0.0, 0.025, 0.0, 0.25]),
        (sir_latent, [0.0, 0.025, 0.0, 0.25, 1.0]),
        (sir_sirs, [0.0, 0.025, 0.0, 0.25, 0.3]),
        (sir_delay, [0.0, 0.025, 0.0, 0.25, 1.0]),
    ]:
        model = factory()
        total = simulate_one(model, theta, times).sum(axis=1)
        assert np.allclose(total, total[0], rtol=1e-5)


def test_sir_delay_zero_lag_approaches_basic():
    times = models.SIR_TIMES
    basic = simulate_one(sir_basic(), models.SIR_TRUE, times)
    delayed = simulate_one(sir_delay(), list(models.SIR_TRUE) + [0.0], times)
    assert np.abs(basic - delayed).max() < 1e-3


def test_sir_latent_approaches_basic_as_transition_speeds_up():
    times = models.SIR_TIMES
    basic = simulate_one(sir_basic(), models.SIR_TRUE, times)
    diffs = []
    for delta in (10.0, 100.0):
        states = simulate_one(sir_latent(), list(models.SIR_TRUE) + [delta], times)
        visible = states[:, [0, 2, 3]]  # S, I, R
        diffs.append(np.abs(visible - basic).max())
    assert diffs[1] < diffs[0]


def test_tristan_dataset_values():
    ds = tristan_dataset()
    assert len(ds.times) == 21
    i = ds.values[:, 1]
    r = ds.values[:, 2]
    assert i[10] == 17  # day 11
    assert r[20] == 37  # day 21
    assert np.isnan(ds.values[:, 0]).all()  # S never observed
    assert ds.observed_species == ("I", "R")


def test_tristan_setup_priors_and_kernels():
    setup = models.default_setup("tristan")
    assert setup.epsilons[0] == 100.0 and setup.epsilons[-1] == 13.8
    assert len(setup.epsilons) == 15
    assert setup.n_particles == 1000
    basic_prior = setup.priors[0]
    assert [(m.lo, m.hi) for m in basic_prior.marginals] == [(0.0, 3.0), (0.0, 3.0), (37, 100)]
    from abcsmc.core import DiscreteUniform, IntegerWalk

    assert isinstance(basic_prior.marginals[-1], DiscreteUniform)
    assert isinstance(setup.kernels[0].walks[-1], IntegerWalk)
    assert setup.kernels[0].walks[-1].sigma == 3


def test_outbreak_models_start_from_one_case():
    for model in models.outbreak_models():
        theta = np.array([0.02, 0.5, 1.0, 50.0])[: model.n_params]
        theta[-1] = 50.0
        x0 = model.initial_state(theta[None, :])[0]
        assert x0[0] == 50.0
        assert x0[model.species.index("I")] == 1.0
        assert x0.sum() == 51.0


def test_mixture_target_variance_constant():
    assert models.MIXTURE_VARIANCE == pytest.approx(0.505)


def test_mixture_toy_draws_center_on_theta():
    model = normal_mixture_toy()
    rng = task_rng(5)
    thetas = np.full((4000, 1), 2.5)
    states, ok = simulate_model_batch(model, thetas, np.array([0.0]), rng)
    assert ok.all()
    draws = states[:, 0, 0]
    assert abs(draws.mean() - 2.5) < 0.05
    assert abs(draws.var() - 0.505) < 0.05


def test_mixture_dataset_is_single_zero_observation():
    ds = normal_mixture_dataset()
    assert ds.values.tolist() == [[0.0]]


def test_zoo_round_trip_by_name():
    for name in models.MODELS:
        a = get_model(name)
        b = get_model(name)
        assert a.name == b.name == name
        assert a.param_names == b.param_names
        if a.kind in ("ode", "dde"):
            theta = np.ones(a.n_params)
            if "s0" in a.param_names:
                theta[a.param_names.index("s0")] = 50.0
            if "tau" in a.param_names:
                theta[a.param_names.index("tau")] = 0.5
            times = np.linspace(a.t0 + 0.5, a.t0 + 3.0, 4)
            # a blowup is fine as long as both instances agree
            sa, oka = simulate_model_batch(a, theta[None, :], times)
            sb, okb = simulate_model_batch(b, theta[None, :], times)
            assert oka[0] == okb[0]
            assert np.array_equal(sa, sb)


def test_every_model_has_an_engine_and_one_state_column_per_species():
    tristan = models.default_setup("tristan")
    priors = {m.name: p for m, p in zip(tristan.models, tristan.priors)}
    for name in models.MODELS:
        model = get_model(name)
        assert model.kind in _BATCH_BASE
        if model.x0 is not None:
            x0s = model.x0[None, :]
        elif model.initial_state is not None:
            x0s = model.initial_state(priors[name].sample(np.random.default_rng(0), 1))
        else:
            continue  # a direct sampler has no state to start from
        assert x0s.shape == (1, len(model.species)), name


def test_model_spec_rejects_x0_of_wrong_length():
    model = lv_ode()
    for x0 in ([1.0], [1.0, 0.25, 0.0], [[1.0, 0.25]]):
        with pytest.raises(ConfigError):
            dataclasses.replace(model, x0=np.array(x0))


def test_unknown_model_name_rejected():
    with pytest.raises(Exception):
        get_model("not_a_model")
