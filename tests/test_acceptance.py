"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two long reproduction
studies (repressilator sensitivity fractions, island-outbreak selection) are
opt-in via --run-extended.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from abcsmc import analysis, cli, models, samplers, simulate
from abcsmc.core import (
    GaussianWalk,
    InferenceConfig,
    KernelSpec,
    ToleranceSchedule,
    UniformWalk,
    task_rng,
    uniform_box,
)
from abcsmc.distance import Dataset, gaussian_loglik, sse_many
from abcsmc.models import DataRecipe, generate_data


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def _lv_dataset():
    setup = models.default_setup("lv_ode")
    return setup, generate_data(setup.recipe, task_rng(5))


def _lv_config(setup, dataset, epsilons, n, seed):
    return InferenceConfig(
        models=setup.models, priors=setup.priors, kernels=setup.kernels,
        schedule=ToleranceSchedule(epsilons), n_particles=n,
        dataset=dataset, distance="sse", seed=seed,
    )


def _weighted_median(pop, j):
    return analysis.weighted_quantile(pop.thetas()[:, j], pop.weights(), 0.5)


def wvar(pop):
    th = pop.thetas()[:, 0]
    w = pop.weights()
    w = w / w.sum()
    mu = w @ th
    return float(w @ (th - mu) ** 2)


# ---------------------------------------------------------------------------

def test_criterion_1_lv_smc_medians_and_cost():
    """Predator-prey sequential run: medians near truth, Table-2-scale cost."""
    setup, dataset = _lv_dataset()
    cfg = _lv_config(setup, dataset, (30.0, 16.0, 6.0, 5.0, 4.3), 1000, seed=42)
    t0 = time.time()
    result = samplers.abc_smc(cfg)
    elapsed = time.time() - t0
    final = result.final_population
    med_a = _weighted_median(final, 0)
    med_b = _weighted_median(final, 1)
    sims = final.sim_count
    ok = (
        abs(med_a - 1.0) <= 0.1
        and abs(med_b - 1.0) <= 0.1
        and 52_194 / 3 <= sims <= 52_194 * 3
        and elapsed < 120
    )
    report(
        "1 (sequential LV inference)",
        ok,
        f"medians=({med_a:.3f}, {med_b:.3f}), sims={sims}, {elapsed:.0f}s",
    )


def test_criterion_2_efficiency_ratio_vs_rejection():
    """Rejection at the final tolerance needs >= 20x the sequential cost."""
    setup, dataset = _lv_dataset()
    rej = samplers.abc_rejection(_lv_config(setup, dataset, (4.3,), 100, seed=7))
    smc = samplers.abc_smc(_lv_config(setup, dataset, (30.0, 16.0, 6.0, 5.0, 4.3), 100, seed=7))
    ratio = rej.sim_count / smc.final_population.sim_count
    rate = len(rej) / rej.proposals
    ok = ratio >= 20 and 1e-5 <= rate <= 1e-3
    report(
        "2 (efficiency ratio)",
        ok,
        f"rejection={rej.sim_count}, smc={smc.final_population.sim_count}, "
        f"ratio={ratio:.0f}, acceptance={rate:.1e}",
    )


def test_criterion_3_mcmc_accepts_all_passing_proposals():
    """Uniform prior + symmetric kernel: every in-support, within-tolerance
    proposal is accepted."""
    setup = models.default_setup("normal_mixture")
    cfg = InferenceConfig(
        models=setup.models, priors=setup.priors,
        kernels=(KernelSpec((UniformWalk(1.5),)),),
        schedule=ToleranceSchedule((0.5,)), n_particles=10,
        dataset=setup.dataset, distance="l1", seed=51,
    )
    result = samplers.abc_mcmc(cfg, chain_length=10_000)
    ok = result.passed > 0 and result.accepted_after_pass == result.passed
    report(
        "3 (unit acceptance probability)",
        ok,
        f"{result.accepted_after_pass}/{result.passed} passing proposals accepted",
    )


def test_criterion_4_single_tolerance_equals_rejection():
    """One-level sequential run is distributionally the rejection sampler."""
    setup, dataset = _lv_dataset()
    smc = samplers.abc_smc(_lv_config(setup, dataset, (30.0,), 1000, seed=11)).final_population
    rej = samplers.abc_rejection(_lv_config(setup, dataset, (30.0,), 1000, seed=12))
    ps = []
    for j in range(2):
        _, p = stats.ks_2samp(smc.thetas()[:, j], rej.thetas()[:, j])
        ps.append(p)
    ok = all(p > 0.01 for p in ps)
    report("4 (single level = rejection)", ok, f"KS p-values = {ps[0]:.3f}, {ps[1]:.3f}")


def test_criterion_5_equal_weight_variance_pathology():
    """Mixture toy: proper weighting keeps the posterior variance near its
    target; the equal-weight baseline shrinks it."""
    setup = models.default_setup("normal_mixture")
    smc_vars, prc_vars = [], []
    for run in range(30):
        cfg = InferenceConfig(
            models=setup.models, priors=setup.priors,
            kernels=(KernelSpec((UniformWalk(1.5),)),),
            schedule=ToleranceSchedule(models.MIXTURE_EPSILONS), n_particles=100,
            dataset=setup.dataset, distance="l1", seed=1000 + run,
        )
        smc_vars.append(wvar(samplers.abc_smc(cfg).final_population))
        prc_vars.append(wvar(samplers.abc_prc_baseline(cfg).final_population))
    smc_vars, prc_vars = np.array(smc_vars), np.array(prc_vars)
    pairs = int(np.sum(prc_vars < smc_vars))
    ok = 0.355 <= smc_vars.mean() <= 0.655 and pairs >= 24
    report(
        "5 (equal-weight variance pathology)",
        ok,
        f"mean var: weighted={smc_vars.mean():.3f}, equal-weight={prc_vars.mean():.3f}, "
        f"smaller in {pairs}/30 paired runs",
    )


def test_criterion_6_epidemic_model_selection():
    """Selection on data from the basic epidemic model: the generating model
    wins the final population in at least 8 of 10 seeded runs."""
    setup = models.default_setup("sir_selection")
    wins = 0
    b14_positive = 0
    details = []
    for run in range(10):
        dataset = generate_data(setup.recipe, task_rng(200 + run))
        cfg = InferenceConfig(
            models=setup.models, priors=setup.priors, kernels=setup.kernels,
            schedule=ToleranceSchedule(setup.epsilons), n_particles=500,
            dataset=dataset, distance="sse", seed=300 + run,
        )
        counts = samplers.abc_smc_model_selection(cfg).model_counts()[-1]
        wins += int(np.argmax(counts) == 0)
        b14_positive += int(analysis.bayes_factor(counts, 1, 4) > 3)
        details.append(tuple(counts))
    ok = wins >= 8 and b14_positive >= 6
    report(
        "6 (epidemic model selection)",
        ok,
        f"argmax=generating in {wins}/10 runs, B(1,4)>3 in {b14_positive}/10",
    )


def test_criterion_7_loglik_sse_identity_on_lv():
    """Gaussian log-likelihood and squared-error distance differ by a
    theta-independent constant."""
    setup, _ = _lv_dataset()
    model = setup.models[0]
    rng = task_rng(77)
    thetas = rng.uniform(0.5, 1.5, (100, 2))
    times = setup.recipe.times
    states, ok_mask = simulate.simulate_model_batch(model, thetas, times)
    assert ok_mask.all()
    base = Dataset(times, states[0], model.species, model.observed)
    sigma = 0.5
    n = base.observed_values().size
    const = -(n / 2) * math.log(2 * math.pi * sigma**2)
    worst = 0.0
    for b in range(1, 100):
        other = Dataset(times, states[b], model.species, model.observed)
        sse = sse_many(base.observed_values(), other.observed_values())
        lhs = gaussian_loglik(base, other, sigma) + sse / (2 * sigma**2)
        worst = max(worst, abs(lhs - const))
    ok = worst <= 1e-10
    report("7 (log-likelihood identity)", ok, f"max deviation = {worst:.2e}")


def test_criterion_8_solver_suite():
    """RK4 order, delay-solver consistency, exact-sampler moments."""
    # RK4 order on exponential decay
    decay = simulate.OdeSystem(lambda t, s, th: -s)
    one_row = np.zeros((1, 1))  # neither system reads a parameter

    def err(h):
        states, _ = simulate.rk4_solve_batch(decay, one_row, np.array([1.0]), [1.0], step=h, t0=0.0)
        return abs(states[0, 0, 0] - math.exp(-1))

    order = math.log2(err(0.02) / err(0.01))

    # zero-lag delay solve agrees with RK4
    dde = simulate.DdeSystem((0.0,), lambda t, s, lagged, th: -lagged[0])
    times = [0.25, 0.5, 1.0]
    dstates, _ = simulate.dde_solve_batch(dde, one_row, np.array([1.0]), times, step=0.01, t0=0.0)
    rstates, _ = simulate.rk4_solve_batch(decay, one_row, np.array([1.0]), times, step=1e-3, t0=0.0)
    dde_gap = np.abs(dstates - rstates).max()

    # pure death: mean of X(1) over 10^4 runs vs 100 e^-1
    rng = task_rng(42)
    death = simulate.ReactionNetwork([[-1]], lambda s, th: th[0] * s[:1])
    finals = np.array(
        [simulate.gillespie(death, np.array([1.0]), [100], [1.0], rng)[0, 0] for _ in range(10_000)]
    )
    mean_gap = abs(finals.mean() - 100 * math.exp(-1))
    death_se = finals.std(ddof=1) / 100.0

    # immigration: Poisson dispersion over 10^4 runs
    imm = simulate.ReactionNetwork([[1]], lambda s, th: th[:1])
    rng = task_rng(7)
    finals = np.array(
        [simulate.gillespie(imm, np.array([5.0]), [0], [2.0], rng)[0, 0] for _ in range(10_000)]
    )
    dispersion = finals.var(ddof=1) / finals.mean()

    ok = (
        3.5 <= order <= 4.5
        and dde_gap <= 1e-5
        and mean_gap <= 3 * death_se
        and 0.94 <= dispersion <= 1.06
    )
    report(
        "8 (solver suite)",
        ok,
        f"order={order:.2f}, dde gap={dde_gap:.1e}, death mean gap={mean_gap:.3f} "
        f"(3se={3 * death_se:.3f}), dispersion={dispersion:.3f}",
    )


def test_criterion_9_pca_properties():
    """Structural checks of the sensitivity decomposition."""
    from abcsmc.core import Population

    def equal_weights(x):
        n = len(x)
        return Population(np.ones(n, dtype=int), {1: x}, np.ones(n), np.full(n, np.nan), 1.0, 0, 0)

    rng = task_rng(13)
    sample = rng.standard_normal((1000, 4))
    population = equal_weights(sample)
    rep = analysis.pca_sensitivity(population)
    frac_sum_gap = abs(rep.fractions.sum() - 1.0)
    ortho_gap = np.abs(rep.components @ rep.components.T - np.eye(4)).max()
    iso_gap = np.abs(rep.fractions - 0.25).max()

    scaled = equal_weights(sample * np.array([100.0, 0.01, 5.0, 1.0]) + 3.0)
    eig_gap = np.abs(analysis.pca_sensitivity(scaled).eigenvalues - rep.eigenvalues).max()
    ok = frac_sum_gap <= 1e-10 and ortho_gap <= 1e-8 and eig_gap <= 1e-8 and iso_gap <= 0.05
    report(
        "9 (sensitivity decomposition properties)",
        ok,
        f"fraction sum gap={frac_sum_gap:.1e}, orthonormality={ortho_gap:.1e}, "
        f"rescaling gap={eig_gap:.1e}, isotropy gap={iso_gap:.3f}",
    )


@pytest.mark.extended
def test_criterion_9_extended_repressilator_sensitivity():
    """Full oscillator-network run: variance fractions and the stiff pair."""
    setup = models.default_setup("repressilator_ode")
    dataset = generate_data(setup.recipe, task_rng(8))
    cfg = InferenceConfig(
        models=setup.models, priors=setup.priors, kernels=setup.kernels,
        schedule=ToleranceSchedule(setup.epsilons), n_particles=1000,
        dataset=dataset, distance="sse", seed=88,
    )
    result = samplers.abc_smc(cfg)
    rep = analysis.pca_sensitivity(result.final_population)
    expected = np.array([0.700, 0.246, 0.053, 0.001])
    frac_ok = np.all(np.abs(rep.fractions - expected) <= 0.10)
    names = setup.models[0].param_names
    stiff = {names[i] for i in rep.stiffest_parameters(2)}
    ok = bool(frac_ok and stiff == {"n", "beta"})
    report(
        "9-extended (oscillator sensitivity)",
        ok,
        f"fractions={np.round(rep.fractions, 3)}, stiffest={sorted(stiff)}",
    )


@pytest.mark.extended
def test_criterion_10_extended_island_outbreak_selection():
    """Real 21-day outbreak data: the latent-phase model should carry the
    final population in the majority of seeded runs."""
    setup = models.default_setup("tristan")
    final_winners = []
    for seed in range(5):
        cfg = InferenceConfig(
            models=setup.models, priors=setup.priors, kernels=setup.kernels,
            schedule=ToleranceSchedule(setup.epsilons), n_particles=1000,
            dataset=setup.dataset, distance="sse", seed=700 + seed,
        )
        result = samplers.abc_smc_model_selection(cfg)
        counts = result.model_counts()[-1]
        final_winners.append(int(np.argmax(counts)) + 1)
    wins3 = sum(1 for w in final_winners if w == 3)
    ok = wins3 >= 3
    report(
        "10-extended (island outbreak selection)",
        ok,
        f"winners per run = {final_winners} (model 3 in {wins3}/5)",
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    """An identical seed gives byte-identical population CSVs."""
    setup, dataset = _lv_dataset()
    data_path = tmp_path / "lv.csv"
    cli.write_dataset(dataset, data_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"model = lv_ode\ndataset = {data_path}\nepsilons = 30, 16, 6\n"
        "particles = 300\nseed = 42\nworkers = 1\n"
    )
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli.main(["infer", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        blobs.append(b"".join(sorted(p.read_bytes() for p in out.glob("population_*.csv"))))
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report("11 (determinism)", ok, f"{len(blobs[0])} bytes compared")
