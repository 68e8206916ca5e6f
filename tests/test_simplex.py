"""Simplex projection against brute force, plus feasibility helpers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairpca import DimensionError, NumericalError, uniform_weights, validate_weights
from fairpca.simplex import _project_floats, project_to_simplex, simplex_violation


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


@pytest.mark.parametrize("z, largest", [
    ([-1e17, -2e17], "2.000e+17"),
    ([1e17, 3e16, -4.0], "1.000e+17"),
], ids=["negative", "mixed"])
def test_lost_precision_is_a_numerical_error(z, largest):
    # from |z| = 2^53 on, z - 1 can round to z and no entry passes the
    # threshold test
    message = f"simplex projection lost precision: largest |z| is {largest} >= 2^53"
    with pytest.raises(NumericalError, match=re.escape(message)):
        project_to_simplex(np.array(z))


def test_just_below_two_to_the_53_projects():
    z = np.array([2.0**53 - 1.0, 0.0])
    assert project_to_simplex(z).tolist() == [1.0, 0.0]


@settings(max_examples=300)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**31 - 1),
       exponent=st.floats(-3.0, 3.0), ties=st.booleans())
def test_equals_sort_and_threshold_transcription_exactly(n, seed, exponent, ties):
    rng = np.random.default_rng(seed)
    z = 10.0 ** exponent * rng.standard_normal(n)
    if ties:  # repeated entries, as on a face of the simplex
        z = np.round(z, 1)
    given_bytes = z.tobytes()
    y = project_to_simplex(z)
    assert z.tobytes() == given_bytes
    # bytes, not array_equal, which counts -0.0 equal to 0.0
    assert y.tobytes() == oracles.simplex_projection_by_sort(z).tobytes()


def assert_float_kernel_agrees(z):
    """_project_floats(z) gives project_to_simplex(z) and simplex_violation
    of it byte for byte, or both raise the same NumericalError."""

    def outcome(project):
        try:
            return project()
        except NumericalError as exc:
            return str(exc)

    def numpy_path():
        y = project_to_simplex(z)
        # bytes, not ==, which counts -0.0 equal to 0.0
        return y.tobytes(), simplex_violation(y)

    def float_path():
        y, drift = _project_floats(z.tolist())
        return np.array(y).tobytes(), (0.0, drift)

    assert outcome(float_path) == outcome(numpy_path)


@settings(max_examples=500)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**31 - 1), exponent=st.floats(-300.0, 20.0),
       ties=st.booleans(), negative_zeros=st.booleans())
def test_float_kernel_equals_numpy_projection_exactly(n, seed, exponent, ties, negative_zeros):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    if ties:  # repeated entries, as on a face of the simplex
        z = np.round(z, 1)
    z *= 10.0 ** exponent
    if negative_zeros:
        z[rng.random(n) < 0.5] = -0.0
    assert_float_kernel_agrees(z)


@settings(max_examples=500)
@given(z=st.lists(st.floats(-1.7e308, 1.7e308), min_size=1, max_size=12),
       ties=st.booleans())
def test_finite_z_projects_onto_the_simplex_or_raises(z, ties):
    # the partial sums once overflowed to -inf for entries near -1e308,
    # which gave NaN weights or all-zero ones
    if ties:  # each entry twice, huge ones included
        z = z + z
    z = np.array(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            y = project_to_simplex(z)
        except NumericalError as exc:
            assert "lost precision" in str(exc)
            assert np.abs(z).max() >= 2.0**53
        else:
            validate_weights(y)
        if z.size < 8:
            assert_float_kernel_agrees(z)


@pytest.mark.parametrize("z", [
    [1.0, -0.0], [-0.0, -0.0], [0.5, 0.5, -0.0], [-0.0, 0.0, 1.0, -0.0], [-7.3],
    [2.0**53 - 1.0, 0.0], [2.0**53, -0.0], [-1e17, -2e17], [1e17, 3e16, -4.0],
    [5e-324, -5e-324, 0.0], [0.1] * 7, [-7e307, -7e307, -7e307, 0.5],
    [-1.7e308] * 7,
])
def test_float_kernel_equals_numpy_projection_on_edge_cases(z):
    # signed zeros in and out, the 2^53 limit, subnormals, ties at n = 7
    assert_float_kernel_agrees(np.array(z))


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


@pytest.mark.parametrize("y", [[np.nan, 1.0], [np.nan], [0.5, np.nan, 0.5], [np.inf, 1.0],
                               [np.inf, -np.inf]],
                         ids=["nan", "nan_alone", "nan_between", "inf", "inf_and_neg_inf"])
def test_validation_rejects_non_finite_weights(y):
    # finiteness is tested before the sum, which warns on inf + -inf
    with pytest.raises(ValueError, match="weights must be finite"):
        validate_weights(np.array(y))


@pytest.mark.parametrize("y, message", [
    (np.full((2, 2), 0.25), "y must be a 1-d array, got shape (2, 2)"),
    (np.array([]), "y must be non-empty"),
], ids=["two_dimensional", "empty"])
def test_validation_rejects_bad_shapes(y, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        validate_weights(y)


def test_validation_rejects_an_overflowing_sum_without_a_warning():
    with pytest.raises(ValueError, match="weights must sum to 1"):
        validate_weights(np.array([1e308, 1e308]))
