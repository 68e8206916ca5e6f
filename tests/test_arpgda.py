"""The alternating descent-ascent solver: parameters, schedules, steps and
full runs, each step taken through solve_arpgda."""

import json
import re
import warnings
from dataclasses import asdict, replace
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairpca import (
    ARPGDAParams,
    DegenerateProblemError,
    DimensionError,
    GroupedDataset,
    NumericalError,
    REPORT_SCHEMA,
    SmoothnessConstants,
    gen_synthetic_blocks,
    gen_synthetic_gaussian,
    random_stiefel,
    recommended_params,
    smoothness_constants,
    solve_arpgda,
    stationarity_measure,
    uniform_weights,
)
from fairpca import arpgda as arpgda_module
from fairpca.problem import _step_gram


# The keys of a trace row, which are those of a report's trace rows.
TRACE_KEYS = {"k", "phi", "E", "grad_norm", "gap", "lambda", "beta", "zeta", "ms"}


def filled_like(A, fill):
    """An array of A's shape holding fill, or alternating +inf and -inf
    entries for fill = "mixed"."""
    if fill == "mixed":
        return np.where(np.arange(A.size).reshape(A.shape) % 2 == 0, np.inf, -np.inf)
    return np.full_like(A, fill)


def small_dataset(seed=0, d=6, sizes=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    return GroupedDataset(X=rng.standard_normal((d, sum(sizes))),
                          group_sizes=sizes)


def break_projection(monkeypatch, broken):
    """Make both paths of the dual step project with broken, a function of
    the step's entries as a float array: project_to_simplex from
    arpgda._FLOAT_DUAL_GROUPS groups on, the float kernel below."""
    monkeypatch.setattr(arpgda_module, "project_to_simplex", broken)
    monkeypatch.setattr(arpgda_module, "_project_floats",
                        lambda z: (broken(np.array(z)).tolist(), 0.0))


def run_bytes(res):
    """A run's results as bytes and values, the trace without its wall times."""
    rows = [{key: value for key, value in row.items() if key != "ms"} for row in res.trace]
    return (res.U.tobytes(), res.y.tobytes(), res.phi, res.stationarity, res.iterations,
            res.converged, res.max_orth_error, res.info, res.violations, rows)


class TestParams:
    def test_validation(self):
        ARPGDAParams(epsilon=0.1, mu=1.0)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.0, mu=1.0)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.1, mu=-1.0)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.1, mu=1.0, rho=1.0)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.1, mu=1.0, theta=2.0)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.1, mu=1.0, max_iters=-1)
        with pytest.raises(ValueError):
            ARPGDAParams(epsilon=0.1, mu=1.0, trace_stride=0)
        assert ARPGDAParams(epsilon=0.1, mu=1.0, max_iters=0).max_iters == 0

    @pytest.mark.parametrize("field", ["epsilon", "mu", "rho"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must .* finite, got {value!r}"):
            ARPGDAParams(**{"epsilon": 0.1, "mu": 1.0, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be at least 0, got -1"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("max_iters", 10.0, "max_iters must be an integer, got 10.0"),
        ("trace_stride", 2.5, "trace_stride must be an integer, got 2.5"),
        ("trace_stride", True, "trace_stride must be an integer, got True"),
    ])
    def test_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ARPGDAParams(epsilon=0.1, mu=1.0, **{field: value})

    def test_numpy_integer_counts_accepted(self):
        p = ARPGDAParams(epsilon=0.1, mu=1.0, max_iters=np.int64(10),
                         seed=np.uint32(3), trace_stride=np.int32(2))
        assert (p.max_iters, p.seed, p.trace_stride) == (10, 3, 2)

    @pytest.mark.parametrize("epsilon", [5e-324, 4 * 5e-324])
    def test_epsilon_whose_lambda_underflows_is_rejected(self, epsilon):
        message = ("epsilon must be large enough that lambda = epsilon / 8 is positive, "
                   f"got {epsilon!r}")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            ARPGDAParams(epsilon=epsilon, mu=0.0)
        # the smallest epsilon whose lambda rounds up to the least subnormal
        assert ARPGDAParams(epsilon=5 * 5e-324, mu=0.0).epsilon == 5 * 5e-324

    def test_recommended_singleton_regime(self):
        X = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 1.0]])
        data = GroupedDataset(X=X, group_sizes=(1, 1, 1))
        p = recommended_params(data, 2)
        assert p.epsilon == pytest.approx(1e-3 * 5.0)  # max ||x||^2 = 5
        assert (p.rho, p.theta) == (1.1, 1.5)
        assert p.mu == pytest.approx(30.0 * 9 * np.sqrt(2.0))

    def test_recommended_block_regime(self):
        data = small_dataset(sizes=(2, 3))
        p = recommended_params(data, 3)
        assert p.epsilon == pytest.approx(1e-3)
        assert (p.rho, p.theta) == (1.01, 1.99)
        assert p.mu == pytest.approx(200.0 * 4 * np.sqrt(3.0))

    def test_recommended_epsilon_overflow_is_a_numerical_error(self):
        # singleton norms past about 1.3e154 square past the largest double
        data = GroupedDataset(gen_synthetic_gaussian(4, 4, 0).X * 1e160, (1,) * 4)
        message = ("cannot pick epsilon: the data's largest sample norm, 2.491e+160, "
                   "overflows when squared")
        with pytest.raises(NumericalError, match=re.escape(message) + "$"):
            recommended_params(data, 1)

    @pytest.mark.parametrize("scale", [5e-161, 1.6e-161, 1e-165])
    def test_recommended_epsilon_underflow_is_a_numerical_error(self, scale):
        # past about 1.6e-160 the singleton lambda = epsilon / 8 is 0; at
        # these norms (1.25e-160 and 3.99e-161) ARPGDAParams once rejected
        # epsilon, and then all samples were said to have zero norm; at
        # 2.491e-165 the norms' squares once underflowed to 0
        data = GroupedDataset(gen_synthetic_gaussian(4, 4, 0).X * scale, (1,) * 4)
        top = float(data.sample_norms().max())
        message = (f"cannot pick epsilon: the data's largest sample norm, {top:.3e}, "
                   "is so small that lambda = epsilon / 8 underflows to 0")
        with pytest.raises(NumericalError, match=re.escape(message) + "$"):
            recommended_params(data, 1)

    def test_degenerate_data_rejected(self):
        data = GroupedDataset(X=np.zeros((3, 2)), group_sizes=(1, 1))
        with pytest.raises(DegenerateProblemError):
            recommended_params(data, 1)
        with pytest.raises(DegenerateProblemError):
            solve_arpgda(data, 1, ARPGDAParams(epsilon=0.1, mu=1.0))


def constants_patch(monkeypatch, L1, L2):
    """Make solve_arpgda use the given smoothness constants, with the data's
    own group tops: a patched L1 caps every step's L1(y_k)."""
    monkeypatch.setattr(arpgda_module, "smoothness_constants", lambda data, r: SmoothnessConstants(
        L1=L1, L2=L2, tops=smoothness_constants(data, r).tops))


class TestSchedules:
    def test_fixed_values(self, monkeypatch):
        # valid bounds for this data, so the two steps record no violation.
        # The group tops are 0.1 and 0.2, so the patched L1 = 2.0 does not
        # bind, and at uniform weights the Frobenius term
        # 2 sqrt(y^T K y) = 0.2254 binds below the sum term 0.3.  The zetas
        # are those of two oracle steps, oracles.arpgda_step_by_hand with
        # oracles.step_smoothness_by_svd, from the seeded start.
        constants_patch(monkeypatch, L1=2.0, L2=3.0)
        data = GroupedDataset(X=np.array([[0.3, -0.2], [0.1, 0.4]]), group_sizes=(1, 1))
        params = ARPGDAParams(epsilon=0.008, mu=7.0, rho=1.1, theta=1.5, max_iters=2)
        start, first, second = solve_arpgda(data, 1, params).trace
        assert (start["lambda"], start["beta"], start["zeta"]) == (None, None, None)
        assert first["lambda"] == second["lambda"] == pytest.approx(0.001, rel=1e-15)
        assert first["beta"] == pytest.approx(7.0, rel=1e-15)
        assert second["beta"] == pytest.approx(3.265615470378826, rel=1e-13)
        assert first["zeta"] == pytest.approx(1.3611413896723035, rel=1e-13)
        assert second["zeta"] == pytest.approx(0.7885604996664641, rel=1e-13)

    def test_monotonicity(self):
        # beta decreases; zeta follows the weights, so it need not, and is
        # the step-size rule at each step's weights
        data = small_dataset(seed=3, d=5, sizes=(40, 40))
        params = ARPGDAParams(epsilon=1e-9, mu=50.0, rho=1.3, theta=1.2, max_iters=30)
        res = solve_arpgda(data, 2, params)
        betas = [row["beta"] for row in res.trace[1:]]
        zetas = [row["zeta"] for row in res.trace[1:]]
        assert len(betas) == 30
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
        np.testing.assert_allclose(zetas, hand_steps(data, 2, params, 30)[2], rtol=1e-12)

    def test_zero_variance_data_rejected(self, monkeypatch):
        constants_patch(monkeypatch, L1=0.0, L2=0.0)
        with pytest.raises(DegenerateProblemError, match="all groups have zero variance"):
            solve_arpgda(small_dataset(), 1, ARPGDAParams(epsilon=0.1, mu=1.0))


def hand_steps(data, r, params, k):
    """k ARPGDA steps by hand from the start solve_arpgda draws: a seeded
    Stiefel point and uniform weights.  Each step takes its smoothness
    constant at its own weights from per-group SVDs.  Returns U, y and the
    k step sizes."""
    constants = smoothness_constants(data, r)
    U, y = random_stiefel(data.d, r, params.seed), uniform_weights(data.num_groups)
    zetas = []
    for step in range(1, k + 1):
        L1_k = oracles.step_smoothness_by_svd(data.X, data.group_sizes, y, constants.L1)
        lam, beta_k, zeta_k = oracles.arpgda_schedule_by_hand(
            params.epsilon, params.mu, params.rho, params.theta, L1_k, constants.L2, step)
        U, y = oracles.arpgda_step_by_hand(data.X, data.group_sizes, U, y,
                                           lam=lam, beta_k=beta_k, zeta_k=zeta_k)
        zetas.append(zeta_k)
    return U, y, zetas


def solve_steps(data, r, params, k):
    """solve_arpgda capped at k steps; the settings must not converge sooner."""
    res = solve_arpgda(data, r, replace(params, max_iters=k))
    assert res.iterations == k
    return res


class TestStep:
    """The step, taken through solve_arpgda with max_iters = k."""

    def test_matches_hand_transcription(self):
        data = GroupedDataset(
            X=np.array([[0.9, -0.3], [0.1, 1.2], [-0.7, 0.4]]),
            group_sizes=(1, 1))
        params = ARPGDAParams(epsilon=0.05, mu=3.0, rho=1.2, theta=1.4, seed=11)
        res = solve_steps(data, 1, params, 1)
        U_hand, y_hand, _ = hand_steps(data, 1, params, 1)
        np.testing.assert_allclose(res.U, U_hand, atol=1e-12)
        np.testing.assert_allclose(res.y, y_hand, atol=1e-12)

    def test_block_groups_match_hand_transcription(self):
        # n d = 6 < N = 8: the steps evaluate in covariance form
        data = small_dataset(seed=2, d=3, sizes=(4, 4))
        assert data.evaluation_form == "covariance"
        params = ARPGDAParams(epsilon=0.05, mu=3.0, rho=1.2, theta=1.4, seed=11)
        for k in (1, 2):
            res = solve_steps(data, 2, params, k)
            U_hand, y_hand, _ = hand_steps(data, 2, params, k)
            np.testing.assert_allclose(res.U, U_hand, atol=1e-12)
            np.testing.assert_allclose(res.y, y_hand, atol=1e-12)

    def test_two_steps_match_hand_transcription(self):
        data = small_dataset(seed=1, d=5, sizes=(2, 2, 1))
        params = ARPGDAParams(epsilon=0.05, mu=2.0, seed=4)
        for k in (1, 2):
            res = solve_steps(data, 2, params, k)
            U_hand, y_hand, _ = hand_steps(data, 2, params, k)
            np.testing.assert_allclose(res.U, U_hand, atol=1e-11)
            np.testing.assert_allclose(res.y, y_hand, atol=1e-11)

    @pytest.mark.parametrize("d, sizes, form", [
        (5, (40, 40), "covariance"),
        (5, (1,) * 8, "sample"),
        (8, (1,) * 8, "sample"),
    ], ids=["sizes0-covariance", "sizes1-sample", "singletons-d8"])
    def test_solver_matches_hand_steps(self, d, sizes, form):
        # settings under which the solve records no violation; at d = 8 the
        # eight singletons take the Frobenius term on the numpy dual step
        data = small_dataset(seed=3, d=d, sizes=sizes)
        assert data.evaluation_form == form
        assert (_step_gram(data) is not None) == (d == 8)
        params = ARPGDAParams(epsilon=1e-9, mu=5.0, seed=1)
        res = solve_steps(data, 2, params, 12)
        U_hand, y_hand, _ = hand_steps(data, 2, params, 12)
        np.testing.assert_allclose(res.U, U_hand, atol=1e-10)
        np.testing.assert_allclose(res.y, y_hand, atol=1e-10)

    def test_rejects_bad_arguments(self):
        data = small_dataset()  # d = 6
        params = ARPGDAParams(epsilon=0.05, mu=2.0, max_iters=1)
        for r, message in ((0, "r must be at least 1, got 0"),
                           (-1, "r must be at least 1, got -1"),
                           (2.7, "r must be an integer, got 2.7"),
                           ("2", "r must be an integer, got '2'"),
                           (True, "r must be an integer, got True")):
            with pytest.raises(ValueError, match=message):
                solve_arpgda(data, r, params)
            with pytest.raises(ValueError, match=message):
                recommended_params(data, r)
        with pytest.raises(DimensionError, match=r"r must lie in \[1, 6\], got 7"):
            solve_arpgda(data, 7, params)

    def test_rejects_non_finite_gradient(self, monkeypatch):
        monkeypatch.setattr(arpgda_module, "project_to_tangent",
                            lambda U, G: np.full_like(G, np.nan))
        with pytest.raises(NumericalError, match="non-finite gradient entering iteration 1"):
            solve_arpgda(small_dataset(), 2, ARPGDAParams(epsilon=0.05, mu=2.0))

    @pytest.mark.parametrize("fill", [np.inf, -np.inf, "mixed", 1e200],
                             ids=["inf", "neg_inf", "mixed_inf", "overflow"])
    def test_rejects_infinite_gradient(self, monkeypatch, fill):
        # the guard reads ||grad||: an infinite entry, and finite entries
        # whose squares overflow, make it infinite
        monkeypatch.setattr(arpgda_module, "project_to_tangent",
                            lambda U, G: filled_like(G, fill))
        with pytest.raises(NumericalError, match="non-finite gradient entering iteration 1"):
            solve_arpgda(small_dataset(), 2, ARPGDAParams(epsilon=0.05, mu=2.0))


class TestSolve:
    def test_deterministic_given_seed(self):
        data = small_dataset(seed=5, d=8, sizes=(3, 3, 2))
        params = ARPGDAParams(epsilon=1e-4, mu=40.0, max_iters=300, seed=9)
        a = solve_arpgda(data, 2, params)
        b = solve_arpgda(data, 2, params)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.phi == b.phi
        assert a.iterations == b.iterations
        assert [t["k"] for t in a.trace] == [t["k"] for t in b.trace]
        assert [t["phi"] for t in a.trace] == [t["phi"] for t in b.trace]
        assert [t["E"] for t in a.trace] == [t["E"] for t in b.trace]

    def test_single_group_reduces_to_pca(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 12))
        data = GroupedDataset(X=X, group_sizes=(12,))
        params = ARPGDAParams(epsilon=1e-4, mu=1e8, rho=1.01, theta=1.5,
                              max_iters=20_000, seed=3)
        res = solve_arpgda(data, 2, params)
        assert res.converged
        np.testing.assert_array_equal(res.y, np.array([1.0]))
        top2 = oracles.top_eigenvalue_sum(X, 2)
        assert res.phi == pytest.approx(top2, rel=1e-6)
        assert not res.violations

    def test_weights_concentrate_on_disadvantaged_group(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((5, 10))
        data = GroupedDataset(X=np.hstack([base, 3.0 * base]),
                              group_sizes=(10, 10))
        params = replace(recommended_params(data, 2), max_iters=2000)
        res = solve_arpgda(data, 2, params)
        # group 1 always has the smaller variance, so it carries the weight
        assert res.y[0] > 0.9
        assert not res.violations

    def test_feasibility_and_bookkeeping(self):
        data = small_dataset(seed=7)
        params = ARPGDAParams(epsilon=1e-3, mu=30.0, max_iters=500, seed=1,
                              trace_stride=50)
        res = solve_arpgda(data, 2, params)
        assert res.algorithm == "arpgda"
        assert res.max_orth_error <= 1e-8
        assert res.info["max_simplex_error"] <= 1e-12
        assert res.iterations == res.trace[-1]["k"]
        ks = [t["k"] for t in res.trace]
        assert ks == sorted(ks)
        for t in res.trace[:-1]:
            assert t["k"] % 50 == 0
        if res.converged:
            assert res.stationarity <= params.epsilon
        assert res.info["L1"] > 0
        assert res.info["evaluation"] == "sample"
        assert all(set(t) == TRACE_KEYS for t in res.trace)
        assert all(t["ms"] >= 0.0 for t in res.trace)
        assert sum(t["ms"] for t in res.trace) <= res.time_ms

    def test_report_validates_against_schema(self):
        data = small_dataset(seed=3)
        params = ARPGDAParams(epsilon=1e-3, mu=10.0, max_iters=50, seed=2,
                              trace_stride=10)
        res = solve_arpgda(data, 2, params)
        report = res.to_report({"name": data.name})
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["params"] == asdict(params)
        json.dumps(report)  # must be serializable as-is

    def test_violations_are_detected_and_warned(self, monkeypatch):
        # a tiny L1 gives zeta = theta / L1 = 250: sufficient decrease must fail
        constants_patch(monkeypatch, L1=1.5 / 250.0, L2=0.0)
        data = small_dataset(seed=8)
        params = ARPGDAParams(epsilon=1e-6, mu=5.0, max_iters=10, seed=0)
        with pytest.warns(RuntimeWarning):
            res = solve_arpgda(data, 2, params)
        assert res.violations
        kinds = {v["kind"] for v in res.violations}
        assert "sufficient_decrease" in kinds
        row = res.violations[0]
        assert set(row) == {"k", "kind", "lhs", "rhs"}
        assert row["lhs"] > row["rhs"]

    def test_ascent_gap_violation_names_its_trace_row(self, monkeypatch):
        # With mu = 0 the projection's argument is -values / lambda, so this
        # puts all the weight on the best-off group and the gap stays large.
        break_projection(monkeypatch, lambda z: np.eye(z.size)[np.argmin(z)])
        for sizes in ((30,) * 3, (30,) * 8):  # the float path, then numpy's
            data = gen_synthetic_blocks(4, sizes, 0)
            params = ARPGDAParams(epsilon=1e-6, mu=0.0, max_iters=5)
            with pytest.warns(RuntimeWarning):
                res = solve_arpgda(data, 2, params)
            gaps = {row["k"]: row["gap"] for row in res.trace}
            rows = [v for v in res.violations if v["kind"] == "ascent_gap"]
            assert [v["k"] for v in rows] == [1, 2, 3, 4, 5]
            assert all(v["lhs"] == gaps[v["k"]] for v in rows)

    def test_numerical_error_on_broken_projection(self, monkeypatch):
        break_projection(monkeypatch, lambda z: np.full_like(z, np.nan))
        for sizes in ((2, 3, 2), (2,) * 8):  # the float path, then numpy's
            data = small_dataset(seed=9, sizes=sizes)
            params = ARPGDAParams(epsilon=1e-6, mu=5.0, max_iters=10, seed=0)
            with pytest.raises(NumericalError):
                solve_arpgda(data, 2, params)

    @pytest.mark.parametrize("num_groups, path", [(7, "_project_floats"),
                                                  (8, "project_to_simplex")])
    def test_dual_step_path_follows_the_group_count(self, monkeypatch, num_groups, path):
        calls = []
        for name in ("_project_floats", "project_to_simplex"):
            kernel = getattr(arpgda_module, name)
            monkeypatch.setattr(arpgda_module, name,
                                lambda z, name=name, kernel=kernel: calls.append(name) or kernel(z))
        data = small_dataset(sizes=(2,) * num_groups)
        solve_arpgda(data, 2, ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=3))
        assert calls == [path] * 3

    @pytest.mark.parametrize("data", [
        gen_synthetic_blocks(5, (20, 30), 0),
        gen_synthetic_blocks(4, (15, 10, 20, 25, 30, 12, 40), 1),
        small_dataset(seed=2, sizes=(2, 3, 2)),
        # K is built (n^2 = N d = 36), so both paths take the Frobenius
        # term: 8.20 at uniform weights, where the sum term would be 13.73
        gen_synthetic_gaussian(6, 6, 3),
    ], ids=["covariance_2", "covariance_7", "sample_3", "singletons_6"])
    def test_float_path_equals_numpy_path(self, monkeypatch, data):
        # the same run, byte for byte, with the float path switched off
        assert data.num_groups < arpgda_module._FLOAT_DUAL_GROUPS
        params = replace(recommended_params(data, 2, seed=4), max_iters=400)
        floats = solve_arpgda(data, 2, params)
        monkeypatch.setattr(arpgda_module, "_FLOAT_DUAL_GROUPS", 1)
        assert run_bytes(floats) == run_bytes(solve_arpgda(data, 2, params))

    @pytest.mark.parametrize("data, bound", [
        (gen_synthetic_gaussian(8, 8, 0), "frobenius"),
        (gen_synthetic_gaussian(4, 8, 0), "sum"),  # n^2 = 64 > N d = 32
        (gen_synthetic_blocks(4, (5, 5), 0), "sum"),
        (gen_synthetic_gaussian(3, 1, 0), "sum"),
    ], ids=["singletons", "wide_singletons", "blocks", "one_group"])
    def test_info_names_the_step_bound(self, data, bound):
        res = solve_arpgda(data, 2 if data.d > 1 else 1,
                           ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=2))
        assert res.info["step_bound"] == bound
        assert (_step_gram(data) is not None) == (bound == "frobenius")

    def test_overflowing_dual_step_raises_numerical_error(self):
        # at this scale the dual step's entries pass 2^53 within a few
        # iterations, past the digits the simplex projection needs
        data = gen_synthetic_blocks(6, (20, 20), 0)
        data = GroupedDataset(1e8 * data.X, data.group_sizes)
        with pytest.raises(NumericalError, match=r"simplex projection lost precision"):
            solve_arpgda(data, 2, recommended_params(data, 2))

    @pytest.mark.parametrize("groups", [4, 8], ids=["floats", "numpy"])
    def test_ascent_near_the_largest_double_raises_not_converges(self, groups):
        # finite ascent entries near -1e308 once summed to -inf in the
        # projection: 4 groups returned y = 0 with converged = True, and 8
        # a NaN gradient
        X = 0.2 * np.random.default_rng(1).standard_normal((5, 40))
        data = GroupedDataset(X, (40 // groups,) * groups)
        params = ARPGDAParams(epsilon=8.9e-308, mu=0.0, max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"simplex projection lost precision: "
                                                     r"largest \|z\| is \S+e\+307 >= 2\^53$"):
                solve_arpgda(data, 2, params)

    @pytest.mark.parametrize("sizes", [(30,) * 8, (30,) * 3], ids=["numpy", "floats"])
    def test_overflowing_ascent_raises_numerical_error_without_a_warning(self, sizes):
        # lambda near the least double makes (values + lambda y) / lambda
        # overflow at the first ascent, on the numpy path (8 groups) as on
        # the float path (3 groups)
        data = gen_synthetic_blocks(4, sizes, 0)
        assert (data.num_groups < arpgda_module._FLOAT_DUAL_GROUPS) == (len(sizes) == 3)
        params = ARPGDAParams(epsilon=1e-310, mu=0.0, max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(
                    "simplex projection lost precision: largest |z| is inf >= 2^53") + "$"):
                solve_arpgda(data, 2, params)

    @pytest.mark.parametrize("data, form", [
        (gen_synthetic_gaussian(4, 4, 0), "sample"),
        (gen_synthetic_blocks(6, (20, 20), 0), "covariance"),
    ], ids=["sample", "covariance"])
    @pytest.mark.parametrize("scale", [1e80, 1e100])
    def test_overflowing_smoothness_constants_raise_numerical_error(self, data, form, scale):
        # the start's group values are finite, but sum_i C_i^2 holds fourth
        # powers of X; no overflow warning comes first
        data = GroupedDataset(scale * data.X, data.group_sizes)
        assert data.evaluation_form == form
        top = f"largest sample norm is {float(data.sample_norms().max()):.3e}"
        with pytest.raises(NumericalError, match=re.escape(top) + "$"):
            solve_arpgda(data, 2, recommended_params(data, 2))

    @pytest.mark.parametrize("retract, cause", [
        (lambda U, D: np.full_like(U, np.nan), "non-finite group objectives at iteration 1"),
        (lambda U, D: 2.0 * U, "iterate left the manifold at iteration 1"),
        (lambda U, D: filled_like(U, np.inf), "non-finite group objectives at iteration 1"),
        (lambda U, D: filled_like(U, -np.inf), "non-finite group objectives at iteration 1"),
        (lambda U, D: filled_like(U, "mixed"), "non-finite group objectives at iteration 1"),
    ], ids=["nan", "scaled", "inf", "neg_inf", "mixed_inf"])
    def test_bad_retraction_raises_numerical_error(self, monkeypatch, retract, cause):
        monkeypatch.setattr(arpgda_module, "polar_retract", retract)
        data = small_dataset(seed=9)
        params = ARPGDAParams(epsilon=1e-6, mu=5.0, max_iters=10, seed=0)
        # an infinite entry makes the evaluation's products warn before the
        # guard raises
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=cause):
            solve_arpgda(data, 2, params)

    def test_trace_ms_counts_from_previous_row(self, monkeypatch, clock):
        # on the fake clock set-up takes one second and each retraction one
        monkeypatch.setattr(arpgda_module, "time", clock)
        for name in ("smoothness_constants", "polar_retract"):
            monkeypatch.setattr(arpgda_module, name, clock.ticking(getattr(arpgda_module, name)))
        params = ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=60, seed=1, trace_stride=25)
        res = solve_arpgda(small_dataset(seed=4), 2, params)
        assert [t["k"] for t in res.trace] == [0, 25, 50, 60]
        assert [t["ms"] for t in res.trace] == [1e3, 25e3, 25e3, 10e3]
        assert res.time_ms == 61e3

    @pytest.mark.parametrize("d, sizes, form", [
        (5, (40, 40), "covariance"),
        (5, (1,) * 8, "sample"),
        (5, (1, 2, 1), "sample"),
        (8, (1,) * 8, "sample"),
    ], ids=["sizes0-covariance", "sizes1-sample", "sizes2-sample", "singletons-d8"])
    def test_trace_schedules_are_the_schedules(self, d, sizes, form):
        # every step's row holds the paper's step-size rule at its k: lambda
        # and beta exactly, and zeta as the hand run's, whose smoothness
        # constant is taken at its own weights (the trace holds no y); the
        # start's row has none.  (1, 2, 1) takes the float dual step, and
        # eight singletons at d = 8 the Frobenius term on the numpy one.
        data = small_dataset(seed=3, d=d, sizes=sizes)
        assert data.evaluation_form == form
        assert (_step_gram(data) is not None) == (d == 8)
        params = ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=40, seed=1)
        res = solve_arpgda(data, 2, params)
        assert [rec["k"] for rec in res.trace] == list(range(41))
        assert (res.trace[0]["lambda"], res.trace[0]["beta"], res.trace[0]["zeta"]) == (
            None, None, None)
        for rec in res.trace[1:]:
            assert (rec["lambda"], rec["beta"]) == oracles.arpgda_schedule_by_hand(
                params.epsilon, params.mu, params.rho, params.theta,
                res.info["L1"], res.info["L2"], rec["k"])[:2]
        np.testing.assert_allclose([rec["zeta"] for rec in res.trace[1:]],
                                   hand_steps(data, 2, params, 40)[2], rtol=1e-12)

    @pytest.mark.parametrize("data", [
        small_dataset(seed=3, d=5, sizes=(40, 40)),
        small_dataset(seed=3, d=5, sizes=(1,) * 8),
        small_dataset(seed=3, d=5, sizes=(1, 2, 1)),
        gen_synthetic_blocks(6, (30,) * 9, 1),
        # K is built (n^2 = N d = 64): the Frobenius term on the numpy path
        small_dataset(seed=3, d=8, sizes=(1,) * 8),
    ], ids=["covariance", "singletons", "float-dual-step", "nine-blocks", "singletons-d8"])
    def test_step_constant_never_exceeds_L1(self, data):
        # L1(y_k) <= L1 at every step, so every zeta is at least the
        # global rule's; with unequal group tops the local one is larger
        params = ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=200, seed=2)
        res = solve_arpgda(data, 2, params)
        assert len(res.trace) == 201
        for rec in res.trace[1:]:
            zeta_global = oracles.arpgda_schedule_by_hand(
                params.epsilon, params.mu, params.rho, params.theta,
                res.info["L1"], res.info["L2"], rec["k"])[2]
            assert rec["zeta"] > zeta_global

    @pytest.mark.parametrize("shape, form", [((4, 30), "covariance"), ((6, 3), "sample")])
    def test_one_group_steps_with_the_global_rule(self, shape, form):
        # y = (1), so L1(y) = L1 and every zeta is the global rule's, bit
        # for bit
        data = GroupedDataset(X=np.random.default_rng(5).standard_normal(shape),
                              group_sizes=(shape[1],))
        assert data.evaluation_form == form
        params = ARPGDAParams(epsilon=1e-12, mu=5.0, max_iters=50, seed=3)
        res = solve_arpgda(data, 2, params)
        assert res.iterations == 50
        for rec in res.trace[1:]:
            assert rec["zeta"] == oracles.arpgda_schedule_by_hand(
                params.epsilon, params.mu, params.rho, params.theta,
                res.info["L1"], res.info["L2"], rec["k"])[2]

    def test_paired_groups_keep_the_sum_rule(self):
        # d = 30 with 40 groups of 2 at r = 2 converges in 1 896 iterations
        # with the sum rule; the Frobenius term, where it was taken for
        # groups of two, slowed it to 25 624
        data = gen_synthetic_blocks(30, (2,) * 40, 0)
        assert _step_gram(data) is None
        params = replace(recommended_params(data, 2), trace_stride=100_000)
        res = solve_arpgda(data, 2, params)
        assert res.converged and not res.violations
        assert res.iterations < 4_000

    def test_wide_singletons_converge_at_recommended_params(self):
        # d = 1 000 with 100 singleton groups at r = 2 hit the 1e5 cap with
        # the sum rule alone (E = 1.26 against epsilon = 1.08); with the
        # Frobenius term it converges in 17 003 iterations
        data = gen_synthetic_gaussian(1000, 100, 0)
        params = replace(recommended_params(data, 2), trace_stride=100_000)
        res = solve_arpgda(data, 2, params)
        assert res.converged and not res.violations
        assert res.iterations < params.max_iters // 2

    def test_cap_reached_reports_not_converged(self):
        data = small_dataset(seed=10)
        params = ARPGDAParams(epsilon=1e-12, mu=10.0, max_iters=25, seed=0)
        res = solve_arpgda(data, 2, params)
        assert not res.converged
        assert res.iterations == 25
        assert res.trace[-1]["k"] == 25

    @pytest.mark.parametrize("sizes, form", [((40, 40), "covariance"), ((1,) * 8, "sample")])
    @pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
    def test_stationarity_is_the_public_measure(self, sizes, form, capped):
        data = small_dataset(seed=3, d=5, sizes=sizes)
        assert data.evaluation_form == form
        params = replace(recommended_params(data, 2), max_iters=20_000)
        if capped:
            params = replace(params, epsilon=1e-12, max_iters=25)
        res = solve_arpgda(data, 2, params)
        assert res.converged is not capped
        assert res.stationarity == stationarity_measure(data, res.U, res.y)
        assert res.trace[-1]["E"] == res.stationarity

    def test_iterations_grow_within_the_papers_rate(self):
        # The paper bounds the iterations to an epsilon-stationary point by
        # O(epsilon^-3).  On check 9's blocks instance at r = 2, with every
        # other parameter as recommended, epsilon from 1e-2 to 1e-4 took
        # 135, 151, 264, 510 and 871 iterations: a log-log slope of 0.43.
        data = gen_synthetic_blocks(23, (750,) * 4, 0)
        params = recommended_params(data, 2)
        epsilons = np.logspace(-2, -4, 5)
        runs = [solve_arpgda(data, 2, replace(params, epsilon=float(e))) for e in epsilons]
        assert all(res.converged and not res.violations for res in runs)
        slope = np.polyfit(np.log(1.0 / epsilons), np.log([res.iterations for res in runs]), 1)[0]
        assert slope <= 3.0


def ascend_outcome(y, values, lam, lam_beta):
    """arpgda._ascend's step as bytes and drift, or its NumericalError text,
    with overflow warnings off, as in the solve."""
    try:
        with np.errstate(over="ignore"):
            y_next, drift = arpgda_module._ascend(y, values, lam, lam_beta)
    except NumericalError as exc:
        return str(exc)
    return y_next.tobytes(), drift


@settings(max_examples=500)
# ascents near -7e307 and -1e308, whose partial sums once overflowed
@example(n=4, seed=0, vertex=False, exponent=0.0, ties=False, lam=1.1125e-308, beta=0.0)
@example(n=7, seed=2097151, vertex=False, exponent=0.0, ties=False, lam=1e-310, beta=0.0)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**31 - 1), vertex=st.booleans(),
       exponent=st.floats(-300.0, 20.0), ties=st.booleans(), lam=st.floats(1e-310, 1.0),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
def test_ascend_float_arm_equals_numpy_arm(n, seed, vertex, exponent, ties, lam, beta):
    # the dual step's two arms give the same bytes and drift, or the same
    # NumericalError where the ascent overflows or passes 2^53; the group
    # values are non-negative, as the solve's are
    rng = np.random.default_rng(seed)
    y = np.eye(n)[rng.integers(n)] if vertex else rng.dirichlet(np.ones(n))
    values = rng.random(n)
    if ties:  # repeated values, as for groups that fare alike
        values = np.round(values, 1)
    values *= 10.0 ** exponent
    floats = ascend_outcome(y, values, lam, lam + beta)
    with mock.patch.object(arpgda_module, "_FLOAT_DUAL_GROUPS", 1):
        assert ascend_outcome(y, values, lam, lam + beta) == floats
