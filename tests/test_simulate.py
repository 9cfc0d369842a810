import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from abcsmc import models
from abcsmc.core import task_rng
from abcsmc.distance import sse_many
from abcsmc.models import DataRecipe, generate_data
from abcsmc.samplers import observed_columns
from abcsmc.simulate import (
    DdeSystem,
    OdeSystem,
    ReactionNetwork,
    SimulationFailure,
    dde_solve_batch,
    gillespie,
    rk4_solve_batch,
    simulate_model_batch,
)

EXP_DECAY = OdeSystem(lambda t, s, th: -s)
NO_THETA = np.zeros((1, 1))  # one row for systems that read no parameter


def exp_err(step):
    states, _ = rk4_solve_batch(EXP_DECAY, NO_THETA, np.array([1.0]), [1.0], step=step, t0=0.0)
    return abs(states[0, 0, 0] - math.exp(-1))


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

def test_rk4_exponential_analytic():
    assert exp_err(0.01) < 1e-6


def test_rk4_fourth_order_convergence():
    order = math.log2(exp_err(0.02) / exp_err(0.01))
    assert 3.5 <= order <= 4.5


def test_rk4_matches_adaptive_oracle_on_lv():
    # oracle: high-accuracy adaptive RK45 on the same right-hand side
    model = models.lv_ode(x0=(1.0, 0.5))
    theta = np.array([1.0, 1.0])
    times = np.linspace(1.0, 15.0, 8)
    states, ok = rk4_solve_batch(model.system, theta[None, :], np.array([1.0, 0.5]), times,
                                 step=0.01, t0=0.0)
    assert ok[0]
    sol = solve_ivp(
        lambda t, y: model.system.rhs(t, y, theta),
        (0.0, 15.0),
        np.array([1.0, 0.5]),
        t_eval=times,
        rtol=1e-10,
        atol=1e-12,
    )
    assert np.abs(states[0] - sol.y.T).max() < 1e-4


def test_rk4_trajectory_times_equal_requested():
    # uneven record times are landed on exactly, one state row per time
    times = [0.3, 0.7, 1.234, 2.0]
    states, _ = rk4_solve_batch(EXP_DECAY, NO_THETA, np.array([1.0]), times, step=0.05, t0=0.0)
    assert states.shape == (1, len(times), 1)
    assert np.abs(states[0, :, 0] - np.exp(-np.array(times))).max() < 1e-6


def test_rk4_blowup_raises_simulation_failure():
    # a batch flags the blown row; generating data from it raises
    growth = models.ModelSpec(
        name="growth", system=OdeSystem(lambda t, s, th: s * s),
        param_names=("unused",), species=("x",), observed=(0,), x0=np.array([3.0]),
    )
    with pytest.raises(SimulationFailure):
        generate_data(DataRecipe(growth, (0.0,), np.array([5.0]), 0.0), np.random.default_rng(0))


def test_rk4_batch_blowup_masks_row_only():
    growth = OdeSystem(lambda t, s, th: th[..., :1] * s * s)
    thetas = np.array([[1.0], [0.0]])
    states, ok = rk4_solve_batch(growth, thetas, np.array([3.0]), [5.0], step=0.01, t0=0.0)
    assert not ok[0] and ok[1]
    assert np.isfinite(states[1]).all()


def test_rk4_validates_inputs():
    with pytest.raises(ValueError):
        rk4_solve_batch(EXP_DECAY, NO_THETA, np.array([1.0]), [1.0], step=-0.1)
    with pytest.raises(ValueError):
        rk4_solve_batch(EXP_DECAY, NO_THETA, np.array([1.0]), [2.0, 1.0], step=0.1)


# ---------------------------------------------------------------------------
# DDE
# ---------------------------------------------------------------------------

def test_dde_zero_lag_matches_rk4():
    system = DdeSystem((0.0,), lambda t, s, lagged, th: -lagged[0])
    times = [0.25, 0.5, 1.0, 2.0]
    states, _ = dde_solve_batch(system, NO_THETA, np.array([1.0]), times, step=0.01, t0=0.0)
    reference, _ = rk4_solve_batch(EXP_DECAY, NO_THETA, np.array([1.0]), times, step=0.001, t0=0.0)
    assert np.abs(states - reference).max() < 1e-5


def test_dde_first_interval_analytic():
    # dx/dt = -x(t-1) with unit history: x(t) = 1 - t on [0, 1]
    system = DdeSystem((1.0,), lambda t, s, lagged, th: -lagged[0])
    states, _ = dde_solve_batch(system, NO_THETA, np.array([1.0]), [0.25, 0.5, 1.0], step=0.01, t0=0.0)
    expected = 1.0 - np.array([0.25, 0.5, 1.0])
    assert np.abs(states[0, :, 0] - expected).max() < 1e-9


def test_dde_second_interval_analytic():
    # on [1, 2]: x(t) = 1 - t + (t-1)^2 / 2
    system = DdeSystem((1.0,), lambda t, s, lagged, th: -lagged[0])
    states, _ = dde_solve_batch(system, NO_THETA, np.array([1.0]), [1.5, 2.0], step=0.01, t0=0.0)
    t = np.array([1.5, 2.0])
    expected = 1.0 - t + 0.5 * (t - 1.0) ** 2
    # the derivative kink where the delayed term activates sits on a grid
    # node, so the Hermite lag lookup stays accurate across it
    assert np.abs(states[0, :, 0] - expected).max() < 1e-5


def _method_of_steps_oracle(theta, times, t0, x0, steps_per_unit=200):
    """Fixed-step RK4 with linear interpolation of the lagged infected count."""
    tau = theta[4]
    h = 1.0 / steps_per_unit
    n = int(round((times[-1] - t0) / h))
    ts = t0 + h * np.arange(n + 1)
    hist_t = [t0]
    hist_i = [x0[1]]

    def lagged_i(t):
        tq = t - tau
        if tq <= t0:
            return x0[1]
        return np.interp(tq, hist_t, hist_i)

    def rhs(t, y):
        alpha, gamma, d, v = theta[:4]
        inf = gamma * y[0] * lagged_i(t)
        return np.array([alpha - inf - d * y[0], inf - v * y[1] - d * y[1], v * y[1] - d * y[2]])

    y = np.array(x0, dtype=float)
    out = []
    j = 0
    for i in range(n + 1):
        t = ts[i]
        while j < len(times) and times[j] <= t + 1e-12:
            out.append(y.copy())
            j += 1
        if i == n:
            break
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        hist_t.append(t + h)
        hist_i.append(y[1])
    return np.array(out)


def test_sir_delay_matches_method_of_steps_oracle():
    model = models.sir_delay()
    theta = np.array([0.05, 0.025, 0.02, 0.25, 1.7])
    times = np.arange(1.0, 22.0)
    states, ok = simulate_model_batch(model, theta[None, :], times)
    assert ok[0] and np.isfinite(states).all()
    oracle = _method_of_steps_oracle(theta, times, model.t0, model.x0)
    assert np.abs(states[0] - oracle).max() < 5e-3


def test_dde_negative_lag_is_invalid():
    model = models.sir_delay()
    theta = np.array([0.05, 0.025, 0.02, 0.25, -0.3])
    _, ok = simulate_model_batch(model, theta[None, :], np.arange(1.0, 13.0))
    assert not ok[0]


def test_dde_rejects_bad_step():
    system = DdeSystem((0.5,), lambda t, s, lagged, th: -lagged[0])
    for step in (0.0, -0.1):
        with pytest.raises(ValueError):
            dde_solve_batch(system, NO_THETA, np.array([1.0]), [1.0], step=step)


def _mixed_batch(name):
    """Prior draws of one model, plus the rows its engine must fail or
    treat specially; returns (model, thetas, record times)."""
    if name == "lv_ode":
        setup = models.default_setup("lv_ode")
        model = setup.models[0]
        thetas = setup.priors[0].sample(np.random.default_rng(4), 64)
    else:
        setup = models.default_setup("sir_selection")
        model = setup.models[1]
        thetas = setup.priors[1].sample(np.random.default_rng(4), 64)
        thetas[10, 2] = -0.3  # anti-causal lag: the row fails
        thetas[20, 2] = 0.1  # below the 0.22-day lag floor: counts as zero
    return model, thetas, setup.recipe.times


@pytest.mark.parametrize("name", ["lv_ode", "sir_delay_closed"])
def test_rows_simulate_alone_as_in_a_mixed_batch(name):
    # a row's flag and states must not depend on the rows beside it; for
    # lv_ode the prior's blow-ups share the batch with finite rows
    model, thetas, times = _mixed_batch(name)
    states, ok = simulate_model_batch(model, thetas, times)
    assert 0 < ok.sum() < len(ok)
    assert np.isfinite(states).all()  # failed rows are zeroed, never nan
    for b in range(len(thetas)):
        alone, ok_alone = simulate_model_batch(model, thetas[b : b + 1], times)
        assert ok_alone[0] == ok[b]
        assert np.array_equal(alone[0], states[b])
    if name == "sir_delay_closed":
        assert not ok[10] and ok[20]
        zero_lag = thetas[20].copy()
        zero_lag[2] = 0.0
        same, _ = simulate_model_batch(model, zero_lag[None, :], times)
        assert np.array_equal(same[0], states[20])


# near-truth boxes: parameter ranges whose trajectories come close to the
# data of criterion 1 (lv_ode) and criterion 6 (the four selection models)
_BUDGET_CASES = [
    ("lv_ode", 0, 5, [(0.9, 1.1), (0.9, 1.1)]),
    ("sir_selection", 0, 200, [(0.08, 0.12), (0.3, 0.5)]),
    ("sir_selection", 1, 200, [(0.1, 0.15), (0.35, 0.47), (0.22, 0.6)]),
    ("sir_selection", 2, 200, [(0.11, 0.17), (0.37, 0.48), (2.4, 5.0)]),
    ("sir_selection", 3, 200, [(0.09, 0.11), (0.36, 0.44), (-0.05, 0.1)]),
]


@pytest.mark.parametrize("setup_name, index, data_seed, box", _BUDGET_CASES)
def test_rk4_steps_meet_accuracy_budget(setup_name, index, data_seed, box):
    # each model's rk4_steps must keep |dSSE| within 1% of the final
    # tolerance against an 8x-step reference, on the rows whose reference
    # SSE is within 5 final tolerances
    setup = models.default_setup(setup_name)
    model = setup.models[index]
    dataset = models.generate_data(setup.recipe, task_rng(data_seed))
    eps_final = setup.epsilons[-1]
    lo, hi = np.array(box).T
    thetas = np.random.default_rng(1).uniform(lo, hi, (256, len(box)))
    fine = dataclasses.replace(model, sim=dataclasses.replace(model.sim, rk4_steps=8 * model.sim.rk4_steps))

    def sse(m):
        states, ok = simulate_model_batch(m, thetas, dataset.times)
        assert ok.all()
        return sse_many(dataset.observed_values(), states[:, :, observed_columns(dataset, model)])

    ref = sse(fine)
    near = ref <= 5 * eps_final
    assert near.sum() >= 20
    assert np.abs(sse(model) - ref)[near].max() <= 0.01 * eps_final


# ---------------------------------------------------------------------------
# Stochastic simulation
# ---------------------------------------------------------------------------

def _pure_death():
    return ReactionNetwork([[-1]], lambda s, th: th[0] * s[:1])


def _immigration():
    return ReactionNetwork([[1]], lambda s, th: th[:1])


def test_gillespie_pure_death_mean():
    # the acceptance suite runs the full 10^4-replicate version
    rng = np.random.default_rng(42)
    net = _pure_death()
    n = 3000
    finals = np.array(
        [gillespie(net, np.array([1.0]), [100], [1.0], rng)[0, 0] for _ in range(n)]
    )
    expected = 100 * math.exp(-1)
    se = finals.std(ddof=1) / math.sqrt(n)
    assert abs(finals.mean() - expected) <= 3 * se


def test_gillespie_immigration_poisson_dispersion():
    rng = np.random.default_rng(7)
    net = _immigration()
    n = 4000
    finals = np.array(
        [gillespie(net, np.array([5.0]), [0], [2.0], rng)[0, 0] for _ in range(n)]
    )
    ratio = finals.var(ddof=1) / finals.mean()
    assert 0.93 <= ratio <= 1.07


def test_gillespie_absorption_holds_state():
    rng = np.random.default_rng(3)
    net = _pure_death()
    states = gillespie(net, np.array([50.0]), [2], [0.5, 100.0, 200.0], rng)
    assert states[-1, 0] == states[-2, 0] or states[-1, 0] == 0.0
    assert states[-1, 0] >= 0


def test_gillespie_states_nonnegative_integers():
    rng = np.random.default_rng(11)
    model = models.lv_ssa()
    states = gillespie(model.system, np.array([10.0, 0.01, 10.0]), [1000, 1000],
                       models.LV_SSA_TIMES, rng)
    assert np.all(states >= 0)
    assert np.all(states == np.round(states))


def test_gillespie_bit_reproducible():
    model = models.lv_ssa()
    theta = np.array([10.0, 0.01, 10.0])
    a = gillespie(model.system, theta, [1000, 1000], models.LV_SSA_TIMES, np.random.default_rng(5))
    b = gillespie(model.system, theta, [1000, 1000], models.LV_SSA_TIMES, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_gillespie_event_cap():
    rng = np.random.default_rng(1)
    net = _immigration()
    with pytest.raises(SimulationFailure):
        gillespie(net, np.array([1e6]), [0], [5.0], rng, max_events=1000)


def test_gillespie_rejects_fractional_initial_state():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        gillespie(_pure_death(), np.array([1.0]), [2.5], [1.0], rng)


def test_stochastic_lv_persists_past_final_record_time():
    model = models.lv_ssa()
    theta = np.array([10.0, 0.01, 10.0])
    rng = np.random.default_rng(2024)
    survived = 0
    runs = 7
    for _ in range(runs):
        states = gillespie(model.system, theta, [1000, 1000], models.LV_SSA_TIMES, rng)
        if states[-1].min() > 0:
            survived += 1
    assert survived > runs / 2


# ---------------------------------------------------------------------------
# Uniform contract and replicates
# ---------------------------------------------------------------------------

def test_generate_data_deterministic_replicates_equal_single_run():
    model = models.lv_ode()
    theta = np.array([1.0, 1.0])
    single, _ = simulate_model_batch(model, theta[None, :], models.LV_TIMES)
    for replicates in (1, 5):
        recipe = DataRecipe(model, theta, models.LV_TIMES, 0.0, replicates)
        ds = generate_data(recipe, np.random.default_rng(0))
        assert np.allclose(ds.observed_values(), single[0])


def test_replicate_average_reduces_variance():
    # averaging 3 runs should cut pointwise variance to about a third
    net = _immigration()
    model = models.ModelSpec(
        name="imm", system=net, param_names=("rate",),
        species=("x",), observed=(0,), x0=np.array([0.0]),
    )
    theta = np.array([5.0])
    times = np.array([2.0])
    rng = np.random.default_rng(9)

    def finals(replicates):
        recipe = DataRecipe(model, theta, times, 0.0, replicates)
        return np.array([generate_data(recipe, rng).values[0, 0] for _ in range(1000)])

    singles = finals(1)
    triples = finals(3)
    ratio = triples.var(ddof=1) / singles.var(ddof=1)
    assert 0.2 < ratio < 0.5


def test_simulate_model_batch_requires_rng_for_stochastic():
    model = models.lv_ssa()
    with pytest.raises(ValueError):
        simulate_model_batch(model, np.array([[10.0, 0.01, 10.0]]), models.LV_SSA_TIMES)
