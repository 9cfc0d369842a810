import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc.core import (
    ConfigError,
    DiscreteUniform,
    GaussianWalk,
    IntegerWalk,
    KernelSpec,
    ModelDiedOut,
    Population,
    PriorSpec,
    ToleranceSchedule,
    Uniform,
    UniformWalk,
    task_rng,
    uniform_box,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

def test_prior_sample_in_support(rng):
    prior = uniform_box([(-10, 10), (-10, 10)])
    draws = prior.sample(rng, size=500)
    assert draws.shape == (500, 2)
    assert np.all((draws >= -10) & (draws <= 10))
    assert np.all(prior.density_many(draws) > 0)


def test_discrete_prior_sample_is_integer(rng):
    prior = PriorSpec((DiscreteUniform(37, 100),))
    draws = prior.sample(rng, size=300)
    assert np.all(draws == np.round(draws))
    assert draws.min() >= 37 and draws.max() <= 100


def test_prior_density_uniform_box():
    prior = uniform_box([(-10, 10), (-10, 10)])
    assert prior.density(np.array([0.0, 0.0])) == pytest.approx(1 / 400)
    assert prior.density(np.array([11.0, 0.0])) == 0.0


def test_prior_density_discrete_atoms():
    prior = PriorSpec((DiscreteUniform(37, 100),))
    assert prior.density(np.array([50.0])) == pytest.approx(1 / 64)
    assert prior.density(np.array([50.5])) == 0.0
    assert prior.density(np.array([101.0])) == 0.0


def test_degenerate_prior_rejected_at_construction():
    with pytest.raises(ConfigError):
        Uniform(2.0, 2.0)
    with pytest.raises(ConfigError):
        DiscreteUniform(5, 5)


def test_prior_dimension_mismatch():
    prior = uniform_box([(0, 1)])
    with pytest.raises(ValueError):
        prior.density(np.array([0.5, 0.5]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_prior_sample_always_positive_density(seed):
    prior = PriorSpec((Uniform(-3.0, 5.0), DiscreteUniform(0, 7)))
    theta = prior.sample(np.random.default_rng(seed))
    assert prior.density(theta) > 0


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_uniform_walk_stays_in_range(rng):
    kernel = KernelSpec((UniformWalk(0.1), UniformWalk(0.1)))
    out = kernel.perturb_many(np.ones((400, 2)), rng)
    assert np.all(np.abs(out - 1.0) <= 0.1)


def test_integer_walk_range_and_integrality(rng):
    kernel = KernelSpec((IntegerWalk(3),))
    out = kernel.perturb_many(np.full((400, 1), 50.0), rng)
    assert np.all(out == np.round(out))
    assert out.min() >= 47 and out.max() <= 53


def test_uniform_kernel_density_values():
    kernel = KernelSpec((UniformWalk(0.1), UniformWalk(0.1)))
    a = np.array([0.0, 0.0])
    assert kernel.density(a, np.array([0.05, 0.05])) == pytest.approx(25.0)
    assert kernel.density(a, np.array([0.15, 0.0])) == 0.0


def test_gaussian_kernel_density_at_zero():
    kernel = KernelSpec((GaussianWalk(1.0),))
    assert kernel.density(np.array([2.0]), np.array([2.0])) == pytest.approx(
        1.0 / np.sqrt(2 * np.pi)
    )


def test_integer_walk_density():
    kernel = KernelSpec((IntegerWalk(3),))
    assert kernel.density(np.array([50.0]), np.array([53.0])) == pytest.approx(1 / 7)
    assert kernel.density(np.array([50.0]), np.array([54.0])) == 0.0
    assert kernel.density(np.array([50.0]), np.array([50.5])) == 0.0


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_kernel_symmetry(xs, ys):
    kernel = KernelSpec((UniformWalk(2.0), GaussianWalk(0.7), IntegerWalk(2)))
    a = np.array([xs[0], xs[1], round(xs[2])])
    b = np.array([ys[0], ys[1], round(ys[2])])
    assert kernel.density(a, b) == kernel.density(b, a)


def test_kernel_sigma_validation():
    with pytest.raises(ConfigError):
        UniformWalk(0.0)
    with pytest.raises(ConfigError):
        IntegerWalk(0)


def test_kernel_for_prior_maps_discrete_to_integer_walk():
    prior = PriorSpec((Uniform(0, 3), DiscreteUniform(37, 100)))
    kernel = KernelSpec.for_prior(prior, [0.3, 3])
    assert isinstance(kernel.walks[0], UniformWalk)
    assert isinstance(kernel.walks[1], IntegerWalk)


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

def _population(weights, labels=None, epsilon=1.0):
    n = len(weights)
    labels = np.ones(n, dtype=int) if labels is None else np.asarray(labels)
    thetas = np.arange(n, dtype=float)[:, None]
    blocks = {int(m): thetas[labels == m] for m in np.unique(labels)}
    return Population(labels, blocks, np.array(weights, dtype=float), np.zeros(n),
                      epsilon=epsilon, index=0, sim_count=0)


def test_population_normalize_sums_to_one():
    pop = _population([2.0, 3.0, 5.0])
    pop.normalize()
    assert abs(pop.weights().sum() - 1.0) < 1e-12


def test_population_normalize_per_model():
    pop = _population([2.0, 3.0, 5.0, 7.0], labels=[1, 2, 1, 2])
    pop.normalize()
    assert np.array_equal(pop.weights(model=1), [2 / 7, 5 / 7])
    assert np.array_equal(pop.weights(model=2), [3 / 10, 7 / 10])
    assert np.array_equal(pop.thetas(model=2), [[1.0], [3.0]])
    assert pop.models_present() == [1, 2]
    assert np.array_equal(pop.model_counts(3), [2, 2, 0])


def test_population_model_filter_died_out():
    pop = _population([0.5, 0.5], labels=[1, 2])
    for select in (pop.thetas, pop.weights, pop.distances):
        with pytest.raises(ModelDiedOut):
            select(3)


# ---------------------------------------------------------------------------
# Schedule and config
# ---------------------------------------------------------------------------

def test_schedule_must_decrease():
    ToleranceSchedule((3.0, 2.0, 1.0))
    with pytest.raises(ConfigError):
        ToleranceSchedule((3.0, 3.0))
    with pytest.raises(ConfigError):
        ToleranceSchedule((1.0, 2.0))
    with pytest.raises(ConfigError):
        ToleranceSchedule((1.0, -0.5))
    with pytest.raises(ConfigError):
        ToleranceSchedule(())


def test_task_rng_is_deterministic_and_stream_separated():
    a = task_rng(7, 1, 2).random(3)
    b = task_rng(7, 1, 2).random(3)
    c = task_rng(7, 1, 3).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
