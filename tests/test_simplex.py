"""Simplex projection against brute force, plus feasibility helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairpca import DimensionError, uniform_weights, validate_weights
from fairpca.simplex import project_to_simplex, simplex_violation


def test_matches_bruteforce_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        scale = float(rng.choice([0.1, 1.0, 10.0, 1000.0]))
        z = scale * rng.standard_normal(n)
        expected = oracles.simplex_projection_bruteforce(z)
        np.testing.assert_allclose(project_to_simplex(z), expected, atol=1e-10)


def test_matches_bruteforce_with_ties():
    cases = [
        np.array([1.0, 1.0]),
        np.array([0.5, 0.5, 0.5]),
        np.array([-3.0, -3.0, 2.0]),
        np.array([0.0, 0.0, 0.0, 0.0]),
        np.array([2.0, 2.0, -1.0, -1.0]),
    ]
    for z in cases:
        np.testing.assert_allclose(
            project_to_simplex(z),
            oracles.simplex_projection_bruteforce(z),
            atol=1e-12)


def test_fixed_values():
    np.testing.assert_allclose(project_to_simplex(np.array([2.0, 0.0])),
                               np.array([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(project_to_simplex(np.array([0.3, 0.3])),
                               np.array([0.5, 0.5]), atol=1e-15)
    np.testing.assert_allclose(project_to_simplex(np.array([1.0, 1.0, 1.0])),
                               np.full(3, 1.0 / 3.0), atol=1e-15)


def test_feasible_point_is_fixed_point():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        y = rng.dirichlet(np.ones(n))
        np.testing.assert_allclose(project_to_simplex(y), y, atol=1e-12)


def test_output_is_always_feasible():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        z = float(rng.choice([1.0, 1e6, 1e-6])) * rng.standard_normal(n)
        y = project_to_simplex(z)
        neg, drift = simplex_violation(y)
        assert neg == 0.0
        assert drift <= 1e-12


def test_translation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = rng.standard_normal(6)
        shift = float(rng.uniform(-50.0, 50.0))
        np.testing.assert_allclose(project_to_simplex(z + shift),
                                   project_to_simplex(z), atol=1e-10)


def test_single_entry_projects_to_one():
    np.testing.assert_array_equal(project_to_simplex(np.array([-7.3])),
                                  np.array([1.0]))


@settings(max_examples=300)
@given(exponent=st.floats(-300.0, 300.0), sign=st.sampled_from([-1.0, 1.0]))
def test_single_entry_is_one_at_every_scale(exponent, sign):
    # the simplex in R^1 is the point {1}, whatever the magnitude of z
    z = np.array([sign * 10.0 ** exponent])
    y = project_to_simplex(z)
    assert y.dtype == np.float64
    assert y.tolist() == [1.0]


@settings(max_examples=300)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**31 - 1),
       exponent=st.floats(-3.0, 3.0), ties=st.booleans())
def test_equals_sort_and_threshold_transcription_exactly(n, seed, exponent, ties):
    rng = np.random.default_rng(seed)
    z = 10.0 ** exponent * rng.standard_normal(n)
    if ties:  # repeated entries, as on a face of the simplex
        z = np.round(z, 1)
    assert np.array_equal(project_to_simplex(z.copy()), oracles.simplex_projection_by_sort(z))


def test_uniform_weights():
    np.testing.assert_allclose(uniform_weights(4), np.full(4, 0.25))
    with pytest.raises(DimensionError):
        uniform_weights(0)
    with pytest.raises(DimensionError):
        uniform_weights(2.5)


def test_violation_and_validation():
    assert simplex_violation(np.array([0.5, 0.5])) == (0.0, 0.0)
    neg, drift = simplex_violation(np.array([-0.25, 1.0]))
    assert neg == pytest.approx(0.25)
    assert drift == pytest.approx(0.25)
    validate_weights(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        validate_weights(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        validate_weights(np.array([0.6, 0.6]))
