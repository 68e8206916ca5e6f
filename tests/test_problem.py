"""Objectives, gradients, smoothness constants, and stationarity diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairpca import (
    DiagnosticUnavailableError,
    DimensionError,
    GroupedDataset,
    NumericalError,
    dist_to_subgradient,
    evaluate,
    gen_synthetic_blocks,
    random_stiefel,
    smoothness_constants,
    stationarity_measure,
    uniform_weights,
)
from fairpca.arpgda import check_iterate
from fairpca.problem import CovarianceEvaluation, SampleEvaluation, _ky_fan_sum, _step_gram
from fairpca.stiefel import project_to_tangent


def objective(data, U, y):
    """f(U, y) = sum_i y_i (-f_i(U)), through evaluate."""
    return float(-(y @ evaluate(data, U).values))


def riemannian_gradient(data, U, y):
    """The tangent component at U of the ambient gradient of f(., y)."""
    ev = evaluate(data, U)
    return project_to_tangent(ev.U, ev.gradient(y))


@st.composite
def lipschitz_cases(draw):
    """(d, group sizes, r, i, j, seed) with groups of 1-4 samples."""
    d = draw(st.integers(1, 8))
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    r = draw(st.integers(1, d))
    i = draw(st.integers(0, len(sizes) - 1))
    j = draw(st.integers(0, len(sizes) - 1))
    return d, sizes, r, i, j, draw(st.integers(0, 2**31 - 1))


@st.composite
def constants_cases(draw):
    """(d, group sizes, r, seed) on both sides of the rule n d <= N."""
    d = draw(st.integers(1, 6))
    sizes = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=5)))
    r = draw(st.integers(1, d))
    return d, sizes, r, draw(st.integers(0, 2**31 - 1))


@st.composite
def gram_cases(draw):
    """(d, group sizes, seed, alpha): groups of 1-12 samples on both sides
    of n d <= N, or only singletons on both sides of the cost test
    n^2 <= N d, with the concentration alpha of Dirichlet weights, which
    are sparse at small alpha."""
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        sizes = (1,) * draw(st.integers(1, 10))
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=7)))
    alpha = draw(st.sampled_from([0.05, 0.3, 1.0, 5.0]))
    return d, sizes, draw(st.integers(0, 2**31 - 1)), alpha


def random_dataset(seed, d=None, sizes=None):
    rng = np.random.default_rng(seed)
    if d is None:
        d = int(rng.integers(3, 9))
    if sizes is None:
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(2, 5)))
    X = rng.standard_normal((d, sum(sizes)))
    return GroupedDataset(X=X, group_sizes=sizes)


class TestGroupedDataset:
    def test_basic_accessors(self):
        X = np.arange(12.0).reshape(3, 4)
        data = GroupedDataset(X=X, group_sizes=(1, 3), labels=("a", "b"))
        assert (data.d, data.num_samples, data.num_groups) == (3, 4, 2)
        assert data.labels == ("a", "b")
        assert data.group_sizes == (1, 3)
        np.testing.assert_array_equal(data.starts, [0, 1])
        np.testing.assert_allclose(data.sample_norms(),
                                   np.linalg.norm(X, axis=0))

    def test_sample_norms_past_the_square_overflow(self):
        # a sum of squares past the largest double is rescaled, without a
        # warning; a norm in range keeps np.linalg.norm's bits, and one whose
        # square underflows (np.linalg.norm gives 0.0) is rescaled too
        X = np.array([[3e200, 0.1, 1e-300], [4e200, 0.2, 0.0]])
        norms = GroupedDataset(X, (1, 2)).sample_norms()
        np.testing.assert_allclose(norms[0], 5e200, rtol=1e-15)
        assert norms[1:].tobytes() == np.array([np.linalg.norm(X[:, 1]), 1e-300]).tobytes()

    @pytest.mark.parametrize("i", [-1, 2])
    def test_group_index_out_of_range_rejected(self, i):
        data = GroupedDataset(X=np.ones((3, 4)), group_sizes=(1, 3))
        ev = evaluate(data, np.eye(3, 1))
        with pytest.raises(DimensionError, match=rf"group index {i} out of range \[0, 2\)"):
            ev.group_gradient(i)

    def test_labels_default_to_group_numbers(self):
        data = GroupedDataset(X=np.ones((2, 4)), group_sizes=(1, 2, 1))
        assert data.labels == ("g0", "g1", "g2")
        with pytest.raises(DimensionError, match="got 1 labels for 3 groups"):
            GroupedDataset(X=np.ones((2, 4)), group_sizes=(1, 2, 1), labels=("a",))

    def test_repeated_labels_rejected(self):
        # dataset_csv_text and load_csv_grouped would merge the two "a" groups
        with pytest.raises(ValueError, match=r"labels must be distinct, got repeated \['a'\]"):
            GroupedDataset(X=np.ones((2, 6)), group_sizes=(2, 2, 2), labels=("a", "b", "a"))

    def test_array_is_copied_and_frozen(self):
        X = np.ones((2, 3))
        data = GroupedDataset(X=X, group_sizes=(3,))
        X[0, 0] = 99.0
        assert data.X[0, 0] == 1.0
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_validation_errors(self):
        with pytest.raises(DimensionError):
            GroupedDataset(X=np.ones(3), group_sizes=(3,))
        with pytest.raises(DimensionError, match="X must be non-empty"):
            GroupedDataset(X=np.zeros((2, 0)), group_sizes=())
        with pytest.raises(DimensionError):
            GroupedDataset(X=np.ones((2, 3)), group_sizes=(2,))
        with pytest.raises(DimensionError):
            GroupedDataset(X=np.ones((2, 3)), group_sizes=(0, 3))
        with pytest.raises(DimensionError):
            GroupedDataset(X=np.ones((2, 3)), group_sizes=())
        with pytest.raises(DimensionError):
            GroupedDataset(X=np.ones((2, 3)), group_sizes=(3,), labels=("a", "b"))
        with pytest.raises(ValueError):
            GroupedDataset(X=np.array([[np.nan, 0.0]]), group_sizes=(2,))

    def test_equality_is_identity(self):
        a = GroupedDataset(X=np.ones((2, 3)), group_sizes=(1, 2))
        b = GroupedDataset(X=np.ones((2, 3)), group_sizes=(1, 2))
        assert a == a
        assert a != b

    def test_hashable_with_cached_properties(self):
        a = GroupedDataset(X=np.ones((2, 3)), group_sizes=(1, 2))
        b = GroupedDataset(X=np.ones((2, 3)), group_sizes=(1, 2))
        cache = {a: "a", b: "b"}
        assert (cache[a], cache[b]) == ("a", "b")
        assert a.covariances is a.covariances
        np.testing.assert_array_equal(a.covariances[1], 2.0 * np.ones((2, 2)))


class TestObjectives:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            data = random_dataset(seed)
            U = random_stiefel(data.d, min(2, data.d), seed=seed)
            expected = oracles.objective_by_loops(data.X, data.group_sizes, U)
            np.testing.assert_allclose(evaluate(data, U).values, expected,
                                       rtol=1e-12, atol=1e-12)

    def test_min_and_minimax_and_y_gradient(self):
        data = random_dataset(3)
        U = random_stiefel(data.d, 2, seed=3)
        f_vals = evaluate(data, U).values
        rng = np.random.default_rng(3)
        y = rng.dirichlet(np.ones(data.num_groups))
        expected = oracles.objective_by_loops(data.X, data.group_sizes, U)
        assert objective(data, U, y) == pytest.approx(-(y @ expected))
        # f(U, .) is linear, so its gradient -f_vals is its value at the
        # simplex vertices, and its maximum over the simplex is -Phi(U)
        at_vertices = [objective(data, U, e) for e in np.eye(data.num_groups)]
        np.testing.assert_allclose(at_vertices, -f_vals)
        assert max(at_vertices) == pytest.approx(-f_vals.min())

    def test_rejects_mismatched_shapes(self):
        data = GroupedDataset(X=np.ones((3, 2)), group_sizes=(1, 1))
        with pytest.raises(DimensionError, match=r"U must have shape \(3, r\), got \(4, 2\)"):
            evaluate(data, np.eye(4, 2))
        with pytest.raises(DimensionError, match=r"y must have shape \(2,\), got \(3,\)"):
            stationarity_measure(data, np.eye(3, 1), np.full(3, 1.0 / 3.0))

    def test_unit_sample_fixed_values(self):
        # one sample e_1, basis e_1: full variance retained
        X = np.zeros((3, 1))
        X[0, 0] = 1.0
        data = GroupedDataset(X=X, group_sizes=(1,))
        U = np.eye(3)[:, :1]
        assert evaluate(data, U).values.min() == pytest.approx(1.0)
        consts = smoothness_constants(data, 1)
        assert consts.L1 == pytest.approx(2.0)
        # one group: the simplex is the single point {1}, so y = y' always
        # and the weight-Lipschitz constant is 0
        assert consts.L2 == 0.0
        np.testing.assert_allclose(
            riemannian_gradient(data, U, np.array([1.0])),
            np.zeros((3, 1)), atol=1e-15)


@st.composite
def evaluation_cases(draw):
    """(d, group sizes, r, seed) with 1-5 groups of 1-6 samples."""
    d = draw(st.integers(1, 8))
    sizes = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
    return d, sizes, draw(st.integers(1, d)), draw(st.integers(0, 2**31 - 1))


class TestEvaluationForms:
    # The forms sum the same products in different orders, so they agree to
    # rounding: within 1e-12 of ||X||_F^2, the scale of every f_i and, up to
    # a factor 2, of every gradient entry (||U||_2 = 1 and simplex y).
    @settings(max_examples=200)
    @given(evaluation_cases())
    def test_forms_agree(self, case):
        d, sizes, r, seed = case
        rng = np.random.default_rng(seed)
        data = GroupedDataset(X=rng.standard_normal((d, sum(sizes))), group_sizes=sizes)
        U = random_stiefel(d, r, seed=seed)
        y = rng.dirichlet(np.ones(len(sizes)))
        sample, cov = SampleEvaluation(data, U), CovarianceEvaluation(data, U)
        atol = 1e-12 * float(np.sum(data.X**2))
        np.testing.assert_allclose(cov.values, sample.values, rtol=0, atol=atol)
        np.testing.assert_allclose(cov.gradient(y), sample.gradient(y), rtol=0, atol=atol)
        for i in range(len(sizes)):
            np.testing.assert_allclose(cov.group_gradient(i), sample.group_gradient(i),
                                       rtol=0, atol=atol)

    @settings(max_examples=200)
    @given(groups=st.sampled_from(["singletons", "sample", "covariance"]),
           order=st.sampled_from(["C", "F"]), draw=st.data())
    def test_equals_matmul_transcription_exactly(self, groups, order, draw):
        # dot makes the BLAS call that @ makes, the 0-d constants round as
        # the oracle's Python floats do, and singleton groups skip only a sum
        # and a repeat that copy their input; bytes tell -0.0 from 0.0
        d = draw.draw(st.integers(2, 12))
        if groups == "singletons":
            sizes = (1,) * draw.draw(st.integers(1, 3 * d))
        elif groups == "sample":  # n d > N, with a group of two or more
            sizes = tuple(draw.draw(st.lists(st.integers(1, d), max_size=4)))
            sizes = (draw.draw(st.integers(2, d)), *sizes, draw.draw(st.integers(1, d - 1)))
        else:  # n d <= N, ties included
            size = st.one_of(st.just(d), st.integers(d, 3 * d))
            sizes = tuple(draw.draw(st.lists(size, min_size=1, max_size=4)))
        r = draw.draw(st.one_of(st.just(1), st.just(d), st.integers(1, d)))
        seed = draw.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, sum(sizes)))
        data = GroupedDataset(X=np.asfortranarray(X) if order == "F" else X, group_sizes=sizes)
        assert data.evaluation_form == ("covariance" if groups == "covariance" else "sample")
        U = random_stiefel(d, r, seed=seed)
        y = rng.dirichlet(np.ones(len(sizes)))
        ev = evaluate(data, U)
        values, gradient, group_gradient = oracles.evaluation_by_matmul(
            X, sizes, U, data.evaluation_form)
        assert ev.values.tobytes() == values.tobytes()
        assert ev.gradient(y).tobytes() == gradient(y).tobytes()
        for i in range(len(sizes)):
            assert ev._group_gradient(i).tobytes() == group_gradient(i).tobytes()

    @settings(max_examples=200)
    @given(evaluation_cases())
    def test_covariance_values_match_the_batched_reduce(self, case):
        # one gemv against a multiply and a two-axis sum: the same products
        # summed in another order, so within rounding of sum_i ||X_i||_F^2
        d, sizes, r, seed = case
        X = np.random.default_rng(seed).standard_normal((d, sum(sizes)))
        U = random_stiefel(d, r, seed=seed)
        values = CovarianceEvaluation(GroupedDataset(X, sizes), U).values
        np.testing.assert_allclose(
            values, oracles.covariance_values_by_batched_reduce(X, sizes, U),
            rtol=0, atol=1e-13 * float(np.sum(X**2)))

    def test_cost_rule_picks_the_form(self):
        # covariance exactly when n d <= N
        for d, sizes, form in ((200, (1,) * 200, "sample"),    # singletons, d > 1
                               (50, (50,), "covariance"),      # one group, d = N: a tie
                               (23, (750,) * 4, "covariance"),  # blocks
                               (5, (5, 5), "covariance"),      # a multi-group tie
                               (1, (1,) * 7, "covariance"),    # singletons at d = 1 tie
                               (5, (5, 6), "covariance"),      # n d = N - 1
                               (5, (5, 4), "sample")):         # n d = N + 1
            X = np.random.default_rng(0).standard_normal((d, sum(sizes)))
            data = GroupedDataset(X, sizes)
            assert data.evaluation_form == form, (d, sizes)
            cls = CovarianceEvaluation if form == "covariance" else SampleEvaluation
            assert type(evaluate(data, random_stiefel(d, 1, seed=0))) is cls

    def test_covariances_stack_each_group(self):
        data = random_dataset(4)
        C = data.covariances
        assert C.shape == (data.num_groups, data.d, data.d)
        assert not C.flags.writeable
        for i, Xi in enumerate(np.split(data.X, data.starts[1:], axis=1)):
            np.testing.assert_allclose(C[i], Xi @ Xi.T,
                                       rtol=1e-14, atol=1e-14)


    @pytest.mark.parametrize("d, n", [(1, 1), (2, 3), (6, 1), (6, 4)])
    def test_products_stay_finite_at_the_covariance_bound(self, d, n):
        # d + 1 equal samples a group make each C_i M times the all-ones
        # matrix, the worst case at the U whose first column is the normed
        # ones vector.  Just under the bound the values, their sum, the
        # gradients and the tangent projection stay finite without a warning;
        # just over it the stack raises
        bound = np.finfo(float).max / (8.0 * n * d * d)
        m = d + 1
        over = GroupedDataset(np.full((d, n * m), math.sqrt(1.001 * bound / m)), (m,) * n)
        with pytest.raises(NumericalError, match="the covariance stack overflows"):
            over.covariances
        data = GroupedDataset(np.full((d, n * m), math.sqrt(0.999 * bound / m)), (m,) * n)
        assert data.evaluation_form == "covariance"
        rng = np.random.default_rng(d)
        Q = np.linalg.qr(np.column_stack([np.ones(d), rng.standard_normal((d, d - 1))]))[0]
        for r in range(1, d + 1):
            ev = CovarianceEvaluation(data, Q[:, :r])
            check_iterate(ev, 0)
            assert math.isfinite(np.add.reduce(ev.values))
            grad = ev.gradient(uniform_weights(n))
            assert np.isfinite(project_to_tangent(ev.U, grad)).all()
            assert all(np.isfinite(ev.group_gradient(i)).all() for i in range(n))


class TestGradients:
    def test_euclidean_gradient_matches_finite_differences(self):
        h = 1e-6
        for seed in range(10):
            data = random_dataset(seed, d=5)
            rng = np.random.default_rng(seed + 90)
            U = rng.standard_normal((5, 2))
            y = rng.dirichlet(np.ones(data.num_groups))
            grad = evaluate(data, U).gradient(y)
            fd = np.zeros_like(U)
            for j in range(U.shape[0]):
                for k in range(U.shape[1]):
                    E = np.zeros_like(U)
                    E[j, k] = h
                    fd[j, k] = (objective(data, U + E, y)
                                - objective(data, U - E, y)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_euclidean_gradient_matches_loop_oracle(self):
        for seed in range(10):
            data = random_dataset(seed)
            rng = np.random.default_rng(seed)
            U = random_stiefel(data.d, 2, seed=seed)
            y = rng.dirichlet(np.ones(data.num_groups))
            np.testing.assert_allclose(
                evaluate(data, U).gradient(y),
                oracles.euclidean_gradient_by_loops(data.X, data.group_sizes, U, y),
                rtol=1e-12, atol=1e-12)

    def test_riemannian_gradient_is_tangent(self):
        for seed in range(10):
            data = random_dataset(seed)
            rng = np.random.default_rng(seed)
            U = random_stiefel(data.d, min(3, data.d), seed=seed)
            y = rng.dirichlet(np.ones(data.num_groups))
            grad = riemannian_gradient(data, U, y)
            assert oracles.tangency_residual(U, grad) <= 1e-10

    def test_riemannian_gradient_matches_curve_derivative(self):
        for seed in range(10):
            data = random_dataset(seed, d=6)
            rng = np.random.default_rng(seed + 500)
            U = random_stiefel(6, 2, seed=seed)
            y = rng.dirichlet(np.ones(data.num_groups))
            D = oracles.random_tangent(U, seed=seed + 1)
            inner = float(np.sum(riemannian_gradient(data, U, y) * D))
            fd = oracles.fd_directional_derivative(
                lambda V: objective(data, V, y), U, D, h=1e-5)
            assert abs(inner - fd) <= 1e-4 * max(1.0, abs(inner))

    def test_group_gradient_is_tangent_and_indexed(self):
        # both forms: d = 8 with groups of 3, 4 and 3 samples in sample form,
        # a d = 3, 2 x 4 block set in covariance form
        for data, cls in ((random_dataset(7), SampleEvaluation),
                          (gen_synthetic_blocks(3, (4, 4), 7), CovarianceEvaluation)):
            U = random_stiefel(data.d, 2, seed=7)
            ev = evaluate(data, U)
            assert type(ev) is cls
            for i in range(data.num_groups):
                g = project_to_tangent(U, ev.group_gradient(i))
                assert oracles.tangency_residual(U, g) <= 1e-10
            for i in (-1, data.num_groups):
                with pytest.raises(DimensionError, match=f"group index {i} out of range"):
                    ev.group_gradient(i)


class TestKyFan:
    def test_fixed_value(self):
        assert _ky_fan_sum(np.diag([5.0, 3.0, 1.0]), 2) == pytest.approx(8.0)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(1, 21))
            A = rng.standard_normal((m, m))
            M = A @ A.T
            r = int(rng.integers(1, m + 1))
            assert _ky_fan_sum(M, r) == pytest.approx(
                oracles.ky_fan_via_svd(M, r), abs=1e-10 * max(1, np.linalg.norm(M)))


class TestSmoothnessConstants:
    def test_orthonormal_singleton_groups(self):
        # three orthonormal samples, one per group: L1 = 2.  C_i = e_i e_i^T,
        # so the Ky Fan bound is 2 sqrt(kyfan_2(diag(1, 1, 1, 0, 0, 0))) =
        # 2 sqrt(2), while K_ij = <C_i, C_j> = delta_ij gives K = I, whose
        # largest row sum 1 makes the Gershgorin bound 2; L2 is the smaller.
        X = np.eye(6)[:, :3]
        data = GroupedDataset(X=X, group_sizes=(1, 1, 1))
        consts = smoothness_constants(data, 2)
        assert consts.L1 == pytest.approx(2.0)
        assert consts.L2 == pytest.approx(2.0)

    def test_descent_inequality_holds(self):
        # f(R_U(D), y) <= f(U, y) + <grad, D> + L1/2 ||D||^2
        for seed in range(30):
            data = random_dataset(seed)
            rng = np.random.default_rng(seed + 40)
            r = int(rng.integers(1, min(3, data.d) + 1))
            consts = smoothness_constants(data, r)
            U = random_stiefel(data.d, r, seed=seed)
            y = rng.dirichlet(np.ones(data.num_groups))
            D = float(rng.uniform(0.01, 3.0)) * oracles.random_tangent(U, seed=seed + 2)
            lhs = objective(data, oracles.polar_retraction_via_svd(U, D), y)
            rhs = (objective(data, U, y)
                   + float(np.sum(riemannian_gradient(data, U, y) * D))
                   + 0.5 * consts.L1 * float(np.sum(D * D)))
            assert lhs <= rhs + 1e-9

    def test_gradient_weight_lipschitz_holds(self):
        # ||grad(U, y) - grad(U, y')|| <= L2 ||y - y'||
        for seed in range(30):
            data = random_dataset(seed)
            rng = np.random.default_rng(seed + 80)
            r = int(rng.integers(1, min(3, data.d) + 1))
            consts = smoothness_constants(data, r)
            U = random_stiefel(data.d, r, seed=seed)
            y1 = rng.dirichlet(np.ones(data.num_groups))
            y2 = rng.dirichlet(np.ones(data.num_groups))
            diff = np.linalg.norm(riemannian_gradient(data, U, y1)
                                  - riemannian_gradient(data, U, y2))
            assert diff <= consts.L2 * np.linalg.norm(y1 - y2) + 1e-9

    @pytest.mark.parametrize("sizes, shared, l2_is_kyfan", [
        ((1,) * 12, 0.0, False),                # Gaussian singletons
        ((1,) * 12, 5.0, True),                 # singletons along one direction
        ((40, 35, 50), 0.0, True),              # large blocks
        ((1, 3, 1, 1, 7, 2, 1, 1), 0.0, False),  # a mix takes both code paths
        ((9,), 0.0, False),                     # one group: L2 = 0
    ])
    def test_matches_loop_and_dense_gram_oracles(self, sizes, shared, l2_is_kyfan):
        # the cases cover both sides of the min at r = d
        rng = np.random.default_rng(len(sizes))
        d, N = 6, sum(sizes)
        X = (rng.standard_normal((d, N)) * rng.uniform(0.5, 3.0, N)
             + shared * np.outer(rng.standard_normal(d), rng.uniform(0.2, 2.0, N)))
        data = GroupedDataset(X=X, group_sizes=sizes)
        for r in range(1, d + 1):
            consts = smoothness_constants(data, r)
            L1, kyfan = oracles.smoothness_constants_by_loops(X, sizes, r)
            assert consts.L1 == pytest.approx(L1, rel=1e-12)
            np.testing.assert_allclose(consts.tops, oracles.group_tops_by_svd(X, sizes),
                                       rtol=1e-12)
            assert consts.L2 == pytest.approx(
                oracles.weight_lipschitz_bound(X, sizes, r), rel=1e-12)
            assert consts.L2 <= kyfan * (1 + 1e-12)
            if r == d:
                assert (consts.L2 == pytest.approx(kyfan, rel=1e-12)) == l2_is_kyfan

    @settings(max_examples=150)
    @given(case=lipschitz_cases())
    @example(case=(5, (7,), 2, 0, 0, 0))
    def test_gradient_weight_lipschitz_at_simplex_vertices(self, case):
        # ||grad(U, e_i) - grad(U, e_j)|| <= L2 ||e_i - e_j||, single groups
        # included (there i = j and L2 = 0)
        d, sizes, r, i, j, seed = case
        rng = np.random.default_rng(seed)
        data = GroupedDataset(X=rng.standard_normal((d, sum(sizes))), group_sizes=sizes)
        consts = smoothness_constants(data, r)
        U = random_stiefel(d, r, seed=seed)
        yi, yj = np.eye(len(sizes))[i], np.eye(len(sizes))[j]
        diff = np.linalg.norm(riemannian_gradient(data, U, yi)
                              - riemannian_gradient(data, U, yj))
        assert diff <= consts.L2 * np.linalg.norm(yi - yj) + 1e-9

    @settings(max_examples=150)
    @given(case=constants_cases())
    @example(case=(4, (30,), 2, 0))        # one group, covariance form
    @example(case=(3, (10, 12, 9), 2, 1))  # block groups, covariance form
    @example(case=(5, (1, 1, 3), 2, 2))    # sample form
    @example(case=(2, (1,), 1, 3))         # one group, sample form
    def test_both_forms_match_loop_and_dense_gram_oracles(self, case):
        d, sizes, r, seed = case
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, sum(sizes))) * rng.uniform(0.5, 3.0, sum(sizes))
        data = GroupedDataset(X=X, group_sizes=sizes)
        consts = smoothness_constants(data, r)
        L1, _ = oracles.smoothness_constants_by_loops(X, sizes, r)
        assert consts.L1 == pytest.approx(L1, rel=1e-12)
        np.testing.assert_allclose(consts.tops, oracles.group_tops_by_svd(X, sizes), rtol=1e-12)
        assert consts.L1 == 2.0 * consts.tops.max()
        assert not consts.tops.flags.writeable
        assert consts.L2 == pytest.approx(
            oracles.weight_lipschitz_bound(X, sizes, r), rel=1e-12)

    @settings(max_examples=300)
    @given(case=constants_cases(), alpha=st.sampled_from([0.05, 0.3, 1.0, 5.0]),
           scale=st.floats(0.01, 3.0))
    @example(case=(3, (10, 12, 9), 2, 1), alpha=0.05, scale=1.0)  # covariance form
    @example(case=(5, (1, 1, 3), 2, 2), alpha=0.3, scale=2.0)     # sample form
    @example(case=(4, (30,), 2, 0), alpha=1.0, scale=3.0)         # one group
    def test_descent_inequality_holds_at_the_weights(self, case, alpha, scale):
        # f(R_U(D), y) <= f(U, y) + <grad, D> + L/2 ||D||^2 with each of the
        # step's constants, L = 2 sum_i y_i t_i and the Frobenius
        # L = 2 sqrt(y^T K y) of the dense group Gram, and with the exact
        # 2 lambda_max(A(y)) below both, for Dirichlet weights y, sparse at
        # small alpha; the examples take both evaluation forms
        d, sizes, r, seed = case
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, sum(sizes))) * rng.uniform(0.5, 3.0, sum(sizes))
        data = GroupedDataset(X=X, group_sizes=sizes)
        consts = smoothness_constants(data, r)
        U = random_stiefel(d, r, seed=seed)
        y = rng.dirichlet(np.full(len(sizes), alpha))
        D = scale * oracles.random_tangent(U, seed=seed + 1)
        lhs = objective(data, oracles.polar_retraction_via_svd(U, D), y)
        base = objective(data, U, y) + float(np.sum(riemannian_gradient(data, U, y) * D))
        exact = 2.0 * oracles.weighted_top_eigenvalue(X, sizes, y)
        local = 2.0 * float(y @ consts.tops)
        frobenius = 2.0 * math.sqrt(float(y @ oracles.group_gram_dense(X, sizes) @ y))
        assert exact <= local * (1 + 1e-12) and local <= consts.L1 * (1 + 1e-12)
        assert exact <= frobenius * (1 + 1e-12)
        assert lhs <= base + 0.5 * exact * float(np.sum(D * D)) + 1e-9
        assert lhs <= base + 0.5 * local * float(np.sum(D * D)) + 1e-9
        assert lhs <= base + 0.5 * frobenius * float(np.sum(D * D)) + 1e-9

    @settings(max_examples=200)
    @given(case=gram_cases())
    @example(case=(6, (1,) * 6, 0, 1.0))          # singletons, n^2 = N d: K is built
    @example(case=(4, (1,) * 5, 1, 0.3))          # singletons, n^2 = 25 > N d = 20
    @example(case=(3, (10, 12, 9), 2, 1.0))       # covariance form
    @example(case=(8, (2, 3, 2, 1), 3, 0.05))     # sample form, larger groups
    @example(case=(5, (7,), 4, 1.0))              # one group
    def test_step_gram_bounds_the_top_eigenvalue(self, case):
        # sqrt(y^T K y) = ||A(y)||_F >= lambda_max(A(y)) for the dense
        # Gram of any groups, and _step_gram returns that Gram exactly for
        # more than one singleton group with n^2 <= N d, else None
        d, sizes, seed, alpha = case
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((d, sum(sizes))) * rng.uniform(0.5, 3.0, sum(sizes))
        data = GroupedDataset(X=X, group_sizes=sizes)
        n, N = len(sizes), sum(sizes)
        dense = oracles.group_gram_dense(X, sizes)
        y = rng.dirichlet(np.full(n, alpha))
        top = oracles.weighted_top_eigenvalue(X, sizes, y)
        assert math.sqrt(float(y @ dense @ y)) >= top * (1 - 1e-12)
        K = _step_gram(data)
        if n == 1 or N > n or n * n > N * d:
            assert K is None
        else:
            assert not K.flags.writeable
            np.testing.assert_allclose(K, dense, rtol=1e-12, atol=1e-12 * dense.max())
            assert math.sqrt(float(y @ K @ y)) >= top * (1 - 1e-12)

    @settings(max_examples=100)
    @given(d=st.integers(1, 8), n=st.integers(2, 8), seed=st.integers(0, 2**31 - 1),
           alpha=st.sampled_from([0.05, 0.3, 1.0, 5.0]))
    @example(d=6, n=6, seed=3, alpha=1.0)
    def test_frobenius_term_never_exceeds_the_sum_for_singletons(self, d, n, seed, alpha):
        # K_ij = <x_i, x_j>^2 <= t_i t_j by Cauchy-Schwarz, so for simplex y
        # y^T K y <= (y^T t)^2: where _step_gram builds K, its term is the
        # smaller one
        X = np.random.default_rng(seed).standard_normal((d, n))
        sizes = (1,) * n
        tops = oracles.group_tops_by_svd(X, sizes)
        y = np.random.default_rng(seed + 1).dirichlet(np.full(n, alpha))
        frobenius = math.sqrt(float(y @ oracles.group_gram_dense(X, sizes) @ y))
        assert frobenius <= float(y @ tops) * (1 + 1e-12)

    def test_rejects_bad_rank(self):
        data = random_dataset(0, d=4)
        with pytest.raises(DimensionError):
            smoothness_constants(data, 0)
        with pytest.raises(DimensionError):
            smoothness_constants(data, 5)


class TestStationarity:
    def test_zero_at_classical_pca_optimum(self):
        X = np.diag([2.0, 1.0])
        data = GroupedDataset(X=X, group_sizes=(2,))
        U = np.eye(2)[:, :1]
        assert stationarity_measure(data, U, np.array([1.0])) <= 1e-12

    def test_nonnegative_and_bounded_by_parts(self):
        for seed in range(10):
            data = random_dataset(seed)
            rng = np.random.default_rng(seed)
            U = random_stiefel(data.d, 2, seed=seed)
            y = rng.dirichlet(np.ones(data.num_groups))
            f_vals = evaluate(data, U).values
            grad_norm = np.linalg.norm(riemannian_gradient(data, U, y))
            gap = float(y @ f_vals - f_vals.min())
            e = stationarity_measure(data, U, y)
            assert e == pytest.approx(max(grad_norm, max(gap, 0.0)))

    def test_rejects_infeasible_inputs(self):
        data = random_dataset(1)
        U = random_stiefel(data.d, 2, seed=1)
        y = np.full(data.num_groups, 1.0 / data.num_groups)
        with pytest.raises(ValueError):
            stationarity_measure(data, 1.5 * U, y)
        with pytest.raises(ValueError):
            stationarity_measure(data, U, 2.0 * y)
        y_nan = y.copy()
        y_nan[0] = np.nan
        with pytest.raises(ValueError, match="weights must be finite"):
            stationarity_measure(data, U, y_nan)


class TestSubgradientDistance:
    def test_single_active_group_fixed_value(self):
        X = np.array([[1.0, 0.2], [0.5, 1.0]])
        data = GroupedDataset(X=X, group_sizes=(1, 1))
        U = np.eye(2)[:, :1]
        # only group 2 is active; its gradient at e_1 is (0, 0.4)
        assert dist_to_subgradient(data, U) == pytest.approx(0.4, abs=1e-12)

    def test_opposed_gradients_cancel(self):
        X = np.eye(2)
        data = GroupedDataset(X=X, group_sizes=(1, 1))
        U = np.full((2, 1), 1.0 / np.sqrt(2.0))
        d = dist_to_subgradient(data, U)
        ev = evaluate(data, U)
        g1, g2 = (project_to_tangent(U, ev.group_gradient(i)) for i in (0, 1))
        assert d <= oracles.two_group_mix_distance(g1, g2) + 1e-10
        assert d <= 1e-6

    def test_matches_grid_oracle_with_two_active_groups(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = float(rng.uniform(0.5, 2.0))
            x1 = np.array([a, float(rng.uniform(-1, 1)), 0.0])
            x2 = np.array([a, 0.0, float(rng.uniform(-1, 1))])
            data = GroupedDataset(X=np.column_stack([x1, x2]),
                                  group_sizes=(1, 1))
            U = np.eye(3)[:, :1]
            d = dist_to_subgradient(data, U)
            ev = evaluate(data, U)
            g1, g2 = (project_to_tangent(U, ev.group_gradient(i)) for i in (0, 1))
            grid = oracles.two_group_mix_distance(g1, g2)
            assert d <= grid + 1e-10
            assert grid - d <= 1e-2

    def test_zero_when_every_active_gradient_vanishes(self):
        # e_1 is an eigenvector of both groups' covariance, so both tangent
        # gradients are exactly zero and so is their Gram matrix
        D = np.diag([3.0, 2.0, 1.0])
        data = GroupedDataset(X=np.hstack([D, D]), group_sizes=(3, 3))
        assert dist_to_subgradient(data, np.eye(3)[:, :1]) == 0.0

    def test_unavailable_when_worst_group_is_flat(self):
        data = GroupedDataset(X=np.zeros((3, 2)), group_sizes=(1, 1))
        U = np.eye(3)[:, :1]
        with pytest.raises(DiagnosticUnavailableError):
            dist_to_subgradient(data, U)

    @pytest.mark.parametrize("threshold", [-0.5, -1e-12, np.nan])
    def test_rejects_negative_threshold(self, threshold):
        data = GroupedDataset(X=np.array([[1.0, 0.2], [0.5, 1.0]]), group_sizes=(1, 1))
        with pytest.raises(ValueError, match="rel_threshold must be non-negative"):
            dist_to_subgradient(data, np.eye(2)[:, :1], rel_threshold=threshold)
