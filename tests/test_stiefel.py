"""Tangent projection, polar retraction, and orthonormality checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fairpca import (
    ARPGDAParams,
    DimensionError,
    GroupedDataset,
    NumericalError,
    RSGParams,
    load_point,
    point_csv_text,
    random_stiefel,
    solve_arpgda,
    solve_rsg,
    validate_stiefel,
)
from fairpca import stiefel as stiefel_module
from fairpca.stiefel import orthonormality_error, polar_retract, project_to_tangent


def test_projection_lands_in_tangent_space():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 12)
        r = rng.integers(1, d + 1)
        U = random_stiefel(d, r, seed=seed)
        G = rng.standard_normal((d, r))
        D = project_to_tangent(U, G)
        assert oracles.tangency_residual(U, D) <= 1e-12


def test_projection_is_idempotent():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        U = random_stiefel(7, 3, seed=seed)
        G = rng.standard_normal((7, 3))
        D = project_to_tangent(U, G)
        np.testing.assert_allclose(project_to_tangent(U, D), D, atol=1e-12)


def test_projection_fixed_value():
    U = np.array([[1.0], [0.0]])
    G = np.array([[3.0], [4.0]])
    np.testing.assert_allclose(
        project_to_tangent(U, G), np.array([[0.0], [4.0]]), atol=1e-15)


def test_projection_matches_symmetrization_formula():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        U = random_stiefel(9, 4, seed=seed)
        G = rng.standard_normal((9, 4))
        np.testing.assert_allclose(
            project_to_tangent(U, G),
            oracles.tangent_projection_by_formula(U, G),
            atol=1e-13)


def test_retraction_stays_on_manifold():
    for seed in range(25):
        U = random_stiefel(10, 4, seed=seed)
        D = oracles.random_tangent(U, seed=seed + 100)
        R = polar_retract(U, 0.5 * D)
        assert orthonormality_error(R) <= 1e-12


def test_retraction_of_zero_is_identity():
    U = random_stiefel(6, 2, seed=3)
    np.testing.assert_allclose(polar_retract(U, np.zeros_like(U)), U,
                               atol=1e-14)


def test_retraction_fixed_value():
    U = np.array([[1.0], [0.0]])
    D = np.array([[0.0], [1.0]])
    expected = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    np.testing.assert_allclose(polar_retract(U, D), expected, atol=1e-15)


def test_retraction_matches_svd_polar_factor():
    for seed in range(20):
        U = random_stiefel(8, 3, seed=seed)
        D = 0.7 * oracles.random_tangent(U, seed=seed + 50)
        np.testing.assert_allclose(
            polar_retract(U, D),
            oracles.polar_retraction_via_svd(U, D),
            atol=1e-12)


@settings(max_examples=150)
@given(d=st.integers(1, 30), draw=st.data())
def test_retraction_equals_eigh_formula_exactly(d, draw):
    # the gufunc is the kernel np.linalg.eigh runs, so no rounding may differ
    r = draw.draw(st.integers(1, min(d, 10)))
    seed = draw.draw(st.integers(0, 2**31 - 1))
    scale = 10.0 ** draw.draw(st.floats(-8.0, 2.0))
    U = random_stiefel(d, r, seed=seed)
    D = scale * oracles.random_tangent(U, seed=seed)
    assert np.array_equal(polar_retract(U, D), oracles.polar_retract_by_eigh(U, D))


@pytest.mark.parametrize("solve", [
    lambda data: solve_arpgda(data, 2, ARPGDAParams(epsilon=1e-6, mu=5.0, max_iters=10)),
    lambda data: solve_rsg(data, 2, RSGParams(c=0.1, max_iters=10)),
], ids=["arpgda", "rsg"])
def test_retraction_non_convergence_is_a_numerical_error(monkeypatch, solve):
    # LAPACK non-convergence leaves NaN in the gufunc's outputs
    monkeypatch.setattr(stiefel_module, "_eigh_lo", lambda M, signature: (
        np.full(M.shape[:-1], np.nan), np.full_like(M, np.nan)))
    data = GroupedDataset(np.random.default_rng(0).standard_normal((5, 6)), (3, 3))
    with pytest.raises(NumericalError, match="non-finite group objectives at iteration 1"):
        solve(data)


def test_retraction_displacement_bounds():
    # ||R(D) - U|| <= ||D|| and ||R(D) - U - D|| <= ||D||^2 / 2
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 10)
        r = rng.integers(1, d + 1)
        U = random_stiefel(d, r, seed=seed)
        scale = float(rng.uniform(0.01, 2.0))
        D = scale * oracles.random_tangent(U, seed=seed + 1000)
        R = polar_retract(U, D)
        nd = np.linalg.norm(D)
        assert np.linalg.norm(R - U) <= nd + 1e-12
        assert np.linalg.norm(R - U - D) <= 0.5 * nd ** 2 + 1e-12


def test_random_stiefel_is_orthonormal_and_deterministic():
    for seed in range(10):
        U = random_stiefel(11, 5, seed=seed)
        assert U.shape == (11, 5)
        assert orthonormality_error(U) <= 1e-12
        np.testing.assert_array_equal(U, random_stiefel(11, 5, seed=seed))
    assert not np.array_equal(random_stiefel(11, 5, seed=0),
                              random_stiefel(11, 5, seed=1))


def test_orthonormality_error_fixed_value():
    assert orthonormality_error(np.array([[2.0], [0.0]])) == pytest.approx(3.0)


@settings(max_examples=150)
@given(d=st.integers(1, 12), draw=st.data())
def test_orthonormality_error_matches_dense_norm(d, draw):
    r = draw.draw(st.integers(1, d))
    seed = draw.draw(st.integers(0, 2**31 - 1))
    scale = draw.draw(st.sampled_from([1e-10, 1e-4, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    # near the manifold and far from it
    U = random_stiefel(d, r, seed=seed) + scale * rng.standard_normal((d, r))
    expected = np.linalg.norm(U.T @ U - np.eye(r))
    assert orthonormality_error(U) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=200)
@given(d=st.integers(1, 30), draw=st.data())
def test_kernels_equal_their_transcriptions_exactly(d, draw):
    # the cached identity and the 0-d constant 2 change no rounding, and the
    # tangent projection keeps its operation order; bytes tell -0.0 from 0.0
    r = draw.draw(st.integers(1, d))
    seed = draw.draw(st.integers(0, 2**31 - 1))
    scale = 10.0 ** draw.draw(st.floats(-12.0, 6.0))
    rng = np.random.default_rng(seed)
    U = random_stiefel(d, r, seed=seed)
    G = scale * rng.standard_normal((d, r))
    assert (project_to_tangent(U, G).tobytes()
            == oracles.tangent_projection_by_formula(U, G).tobytes())
    # near the manifold and far from it
    V = U + scale * rng.standard_normal((d, r))
    assert orthonormality_error(V) == oracles.orthonormality_error_by_diagonal(V)
    assert orthonormality_error(U) == oracles.orthonormality_error_by_diagonal(U)


def test_validate_stiefel_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        validate_stiefel(np.zeros((2, 5)))  # more columns than rows
    with pytest.raises(DimensionError):
        validate_stiefel(np.zeros(4))
    with pytest.raises(ValueError):
        validate_stiefel(np.array([[2.0], [0.0]]))
    validate_stiefel(random_stiefel(5, 2, seed=0))


def test_save_and_load_roundtrip(tmp_path):
    U = random_stiefel(8, 3, seed=5)
    path = tmp_path / "point.csv"
    path.write_text(point_csv_text(U))
    np.testing.assert_array_equal(load_point(path), U)


def test_load_skips_a_byte_order_mark(tmp_path):
    # spreadsheets export "CSV UTF-8" with a byte-order mark first
    text = point_csv_text(random_stiefel(5, 2, seed=3))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_point(marked).tobytes() == load_point(plain).tobytes()
    marked.write_bytes(b"\xef\xbb\xbf0.6,0.8\n0.8,-0.6\n")
    np.testing.assert_array_equal(load_point(marked), [[0.6, 0.8], [0.8, -0.6]])


def test_load_single_column_keeps_two_dims(tmp_path):
    U = random_stiefel(6, 1, seed=4)
    path = tmp_path / "point.csv"
    path.write_text(point_csv_text(U))
    assert load_point(path).shape == (6, 1)
