import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcsmc.analysis import (
    bayes_factor,
    interpret_bayes_factor,
    interquantile_trajectory,
    pca_sensitivity,
    posterior_summary,
    weighted_quantile,
)
from abcsmc.core import Population


def _pop(values, weights, index=0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1:
        values = values.T
    n = len(values)
    return Population(np.ones(n, dtype=int), {1: values}, np.asarray(weights, dtype=float),
                      np.full(n, np.nan), epsilon=1.0, index=index, sim_count=0)


# ---------------------------------------------------------------------------
# Weighted quantiles and summaries
# ---------------------------------------------------------------------------

def test_weighted_median_equal_weights():
    pop = _pop([1.0, 2.0, 3.0], [1 / 3] * 3)
    stats = posterior_summary(pop)
    assert stats[0, 1] == 2.0


def test_weighted_median_dominant_weight():
    pop = _pop([5.0, 0.0, 10.0], [0.999, 0.0005, 0.0005])
    stats = posterior_summary(pop)
    assert stats[0, 1] == 5.0


def test_weighted_quantile_left_continuous():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.ones(4)
    assert weighted_quantile(v, w, 0.25) == 1.0
    assert weighted_quantile(v, w, 0.26) == 2.0
    assert weighted_quantile(v, w, 1.0) == 4.0


def test_weighted_quantile_validation():
    with pytest.raises(ValueError):
        weighted_quantile(np.array([1.0]), np.array([1.0, 2.0]), 0.5)
    with pytest.raises(ValueError):
        weighted_quantile(np.array([1.0]), np.array([-1.0]), 0.5)


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=20), st.floats(0.1, 10))
@settings(max_examples=100, deadline=None)
def test_summary_invariant_to_weight_rescaling_and_permutation(values, scale):
    rng = np.random.default_rng(0)
    w = rng.random(len(values)) + 0.01
    a = _pop(values, w)
    perm = rng.permutation(len(values))
    b = _pop(np.asarray(values)[perm], (w * scale)[perm])
    assert np.array_equal(posterior_summary(a), posterior_summary(b))


def test_interquantile_trajectory_normalizes_first_population():
    pops = [
        _pop(np.linspace(-10, 10, 101), np.ones(101), index=0),
        _pop(np.linspace(-5, 5, 101), np.ones(101), index=1),
        _pop(np.linspace(-1, 1, 101), np.ones(101), index=2),
    ]
    ranges = interquantile_trajectory(pops)
    assert ranges[0, 0] == 1.0
    assert ranges[1, 0] == pytest.approx(0.5, rel=0.05)
    assert ranges[2, 0] == pytest.approx(0.1, rel=0.05)
    assert np.all(np.diff(ranges[:, 0]) < 0)


# ---------------------------------------------------------------------------
# Evidence ratios
# ---------------------------------------------------------------------------

def test_bayes_factor_reference_counts():
    counts = (664, 230, 0, 106)
    assert bayes_factor(counts, 1, 2) == pytest.approx(2.887, abs=1e-3)
    assert bayes_factor(counts, 1, 4) == pytest.approx(6.264, abs=1e-3)
    assert bayes_factor(counts, 2, 4) == pytest.approx(2.17, abs=1e-2)
    assert bayes_factor(counts, 1, 1) == 1.0


def test_bayes_factor_infinite_evidence_sentinel():
    assert bayes_factor((664, 0), 1, 2) == math.inf


def test_bayes_factor_reciprocal_identity():
    counts = (400, 250, 350)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if counts[j - 1] and counts[i - 1]:
                assert bayes_factor(counts, i, j) * bayes_factor(counts, j, i) == pytest.approx(1.0)


def test_interpret_bayes_factor_categories():
    assert interpret_bayes_factor(2.9) == "very weak"
    assert interpret_bayes_factor(6.3) == "positive"
    assert interpret_bayes_factor(1.0) == "very weak"
    assert interpret_bayes_factor(20.0) == "positive"
    assert interpret_bayes_factor(20.1) == "strong"
    assert interpret_bayes_factor(151.0) == "very strong"
    assert interpret_bayes_factor(math.inf) == "very strong"
    assert interpret_bayes_factor(1 / 6.3) == "positive"  # roles swapped
    with pytest.raises(ValueError):
        interpret_bayes_factor(-1.0)


# ---------------------------------------------------------------------------
# Eigen-direction sensitivity
# ---------------------------------------------------------------------------

def _gaussian_pop(n=1000, p=4, seed=0, transform=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    if transform is not None:
        x = transform(x)
    return _pop(x, np.full(n, 1.0 / n))


def test_pca_isotropic_fractions_near_uniform():
    pop = _gaussian_pop(1000, 4, seed=1)
    report = pca_sensitivity(pop)
    assert np.all(np.abs(report.fractions - 0.25) <= 0.05)


def test_pca_fractions_sum_to_one_and_orthonormal():
    pop = _gaussian_pop(500, 5, seed=2)
    report = pca_sensitivity(pop)
    assert abs(report.fractions.sum() - 1.0) < 1e-10
    gram = report.components @ report.components.T
    assert np.abs(gram - np.eye(5)).max() < 1e-8
    assert np.all(report.eigenvalues >= 0)
    assert np.all(np.diff(report.eigenvalues) <= 1e-12)


def test_pca_perfectly_correlated_pair():
    def dup(x):
        return np.column_stack([x[:, 0], x[:, 0]])

    pop = _gaussian_pop(500, 1, seed=3, transform=dup)
    report = pca_sensitivity(pop)
    assert report.fractions[0] == pytest.approx(1.0, abs=1e-8)
    assert report.fractions[1] == pytest.approx(0.0, abs=1e-8)


def test_pca_correlation_mode_invariant_to_affine_rescaling():
    base = _gaussian_pop(800, 3, seed=4)
    scaled = _gaussian_pop(
        800, 3, seed=4, transform=lambda x: x * np.array([100.0, 0.01, 5.0]) + np.array([3.0, -7.0, 0.5])
    )
    a = pca_sensitivity(base)
    b = pca_sensitivity(scaled)
    assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-8


def test_pca_covariance_mode_sees_scale():
    scaled = _gaussian_pop(800, 2, seed=5, transform=lambda x: x * np.array([10.0, 0.1]))
    report = pca_sensitivity(scaled, use_correlation=False)
    assert report.fractions[0] > 0.99


def test_pca_loadings_rows_sum_to_one():
    pop = _gaussian_pop(400, 4, seed=6)
    report = pca_sensitivity(pop)
    assert np.allclose(report.loadings.sum(axis=1), 1.0)


def test_pca_identifies_stiff_direction():
    # third coordinate nearly a copy of the first: the smallest component
    # spans that near-degenerate pair
    def stiff(x):
        y = x.copy()
        y[:, 2] = y[:, 0] + 0.01 * x[:, 2]
        return y

    pop = _gaussian_pop(1500, 3, seed=7, transform=stiff)
    report = pca_sensitivity(pop)
    assert set(report.stiffest_parameters(2)) == {0, 2}


def test_pca_requires_more_particles_than_parameters():
    pop = _gaussian_pop(3, 4, seed=8)
    with pytest.raises(ValueError):
        pca_sensitivity(pop)


def test_pca_weighted_matches_replication():
    # integer weights behave like repeated particles
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 2))
    reps = rng.integers(1, 5, size=60)
    weighted = _pop(x, reps)
    replicated = _pop(np.repeat(x, reps, axis=0), np.ones(reps.sum()))
    a = pca_sensitivity(weighted)
    b = pca_sensitivity(replicated)
    assert np.abs(a.eigenvalues - b.eigenvalues).max() < 1e-10
