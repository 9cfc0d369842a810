import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc import models
from abcsmc.core import task_rng
from abcsmc.distance import Dataset, cosine_many, gaussian_loglik, l1_many, sse_many
from abcsmc.simulate import simulate_model_batch


def _ds(values, species=None, observed=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, s = values.shape
    species = species or tuple(f"s{i}" for i in range(s))
    observed = observed if observed is not None else tuple(range(s))
    return Dataset(np.arange(1.0, n + 1.0), values, species, observed)


def sse(a, b):
    return sse_many(a.observed_values(), b.observed_values())


def l1(a, b):
    return l1_many(a.observed_values(), b.observed_values())


finite_rows = st.lists(
    st.lists(st.floats(-100, 100), min_size=2, max_size=2), min_size=3, max_size=6
)


def test_sse_identical_is_zero():
    a = _ds([[1.0, 2.0], [3.0, 4.0]])
    assert sse(a, a) == 0.0


def test_sse_single_entry():
    a = _ds([[1.0]])
    b = _ds([[3.0]])
    assert sse(a, b) == 4.0


def test_l1_examples():
    a = _ds([[1.0, 1.0]])
    assert l1(a, a) == 0.0
    b = _ds([[3.0, 1.0]])
    assert l1(a, b) == 2.0


def test_shape_mismatch_raises():
    a = _ds([[1.0, 2.0]])
    b = _ds([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        gaussian_loglik(a, b, 1.0)


def test_masked_entries_ignored():
    values = np.array([[1.0, np.nan], [2.0, np.nan]])
    a = Dataset(np.array([1.0, 2.0]), values, ("x", "y"), (0,))
    b = Dataset(np.array([1.0, 2.0]), values + np.array([[1.0, 0.0]]), ("x", "y"), (0,))
    assert sse(a, b) == 2.0


@given(finite_rows, finite_rows, finite_rows)
@settings(max_examples=100, deadline=None)
def test_l1_triangle_inequality(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = _ds(xs[:n]), _ds(ys[:n]), _ds(zs[:n])
    assert l1(a, c) <= l1(a, b) + l1(b, c) + 1e-9


@given(finite_rows, finite_rows)
@settings(max_examples=100, deadline=None)
def test_distances_symmetric_nonnegative(xs, ys):
    n = min(len(xs), len(ys))
    a, b = _ds(xs[:n]), _ds(ys[:n])
    for dist in (sse, l1):
        assert dist(a, b) == dist(b, a)
        assert dist(a, b) >= 0.0
        assert dist(a, a) == 0.0


def test_cosine_examples():
    obs = _ds([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0]]).observed_values()
    d = cosine_many(obs, np.stack([obs, 3.0 * obs, -obs]))
    assert d[:2] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert d[2] == pytest.approx(4.0)  # 2 per species


def test_cosine_zero_norm_columns():
    # a zero-norm observed column has no cosine; a zero-norm simulated
    # column makes that candidate unrankable
    obs = np.array([[1.0, 2.0], [2.0, 1.0]])
    zero_col = np.array([[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        cosine_many(zero_col, obs[None])
    assert np.array_equal(cosine_many(obs, np.stack([zero_col, obs])) == np.inf, [True, False])


def test_gaussian_loglik_identical_datasets():
    a = _ds(np.ones((4, 2)))
    n = 8
    assert gaussian_loglik(a, a, 1.0) == pytest.approx(-(n / 2) * math.log(2 * math.pi))


@given(finite_rows, finite_rows, st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_loglik_sse_affine_identity(xs, ys, sigma):
    n = min(len(xs), len(ys))
    a, b = _ds(xs[:n]), _ds(ys[:n])
    entries = 2 * n
    lhs = gaussian_loglik(a, b, sigma) + sse(a, b) / (2 * sigma**2)
    rhs = -(entries / 2) * math.log(2 * math.pi * sigma**2)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# Grid-based agreement checks on the predator-prey model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lv_grid():
    setup = models.default_setup("lv_ode")
    dataset = models.generate_data(setup.recipe, task_rng(5))
    model = setup.models[0]
    a = np.linspace(0.5, 1.5, 50)
    b = np.linspace(0.5, 1.5, 50)
    aa, bb = np.meshgrid(a, b)
    grid = np.column_stack([aa.ravel(), bb.ravel()])
    states, ok = simulate_model_batch(model, grid, dataset.times)
    assert ok.all()
    return dataset, grid, states


def test_loglik_argmax_equals_sse_argmin(lv_grid):
    dataset, grid, states = lv_grid
    obs = dataset.observed_values()
    sse = sse_many(obs, states)
    sigma = 0.5
    loglik = -sse / (2 * sigma**2) - obs.size / 2 * math.log(2 * math.pi * sigma**2)
    assert np.argmax(loglik) == np.argmin(sse)


def test_sse_and_l1_sublevel_sets_overlap(lv_grid):
    dataset, grid, states = lv_grid
    obs = dataset.observed_values()
    sse = sse_many(obs, states)
    l1 = np.abs(states - obs).sum(axis=(1, 2))
    q = 0.10
    in_sse = sse <= np.quantile(sse, q)
    in_l1 = l1 <= np.quantile(l1, q)
    overlap = np.sum(in_sse & in_l1) / max(in_sse.sum(), in_l1.sum())
    assert overlap > 0.7


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 1.0]), np.ones((2, 1)), ("x",), (0,))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.full((2, 1), np.nan), ("x",), (0,))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.ones((2, 1)), ("x",), ())
