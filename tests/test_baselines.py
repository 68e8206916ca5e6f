"""The Riemannian subgradient ascent baseline."""

import jsonschema
import numpy as np
import pytest

import oracles
from fairpca import (
    DimensionError,
    GroupedDataset,
    NumericalError,
    evaluate,
    iterations_to_reach,
    ky_fan_norm,
    random_stiefel,
    REPORT_SCHEMA,
    RSGParams,
    rsg_sweep,
    solve_rsg,
)
from fairpca import baselines as baselines_module
from fairpca.stiefel import project_to_tangent


# The keys of a trace row, which are those of a report's trace rows.
TRACE_KEYS = {"k", "phi", "E", "grad_norm", "gap", "lambda", "beta", "zeta", "ms"}


def filled_like(A, fill):
    """An array of A's shape holding fill, or alternating +inf and -inf
    entries for fill = "mixed"."""
    if fill == "mixed":
        return np.where(np.arange(A.size).reshape(A.shape) % 2 == 0, np.inf, -np.inf)
    return np.full_like(A, fill)


def two_group_dataset(seed=0, d=6, sizes=(8, 8)):
    rng = np.random.default_rng(seed)
    return GroupedDataset(X=rng.standard_normal((d, sum(sizes))),
                          group_sizes=sizes)


def hand_iterates(data, r, c, seed, steps):
    """The first steps of RSG by hand, from the start solve_rsg draws."""
    U = random_stiefel(data.d, r, seed)
    iterates = []
    for k in range(1, steps + 1):
        U = oracles.rsg_step_by_hand(data.X, data.group_sizes, U, c, k)
        iterates.append(U)
    return iterates


def solve_steps(data, r, c, seed, k):
    """solve_rsg with no reference, capped at k steps."""
    res = solve_rsg(data, r, RSGParams(c=c, max_iters=k, seed=seed))
    assert res.iterations == k
    return res


class TestStep:
    """The step, taken through solve_rsg with max_iters = k."""

    def test_matches_hand_transcription(self):
        data = GroupedDataset(
            X=np.array([[1.1, -0.2], [0.3, 0.8], [-0.5, 0.6]]),
            group_sizes=(1, 1))
        iterates = hand_iterates(data, 1, 0.3, 13, 7)
        for k in (1, 2, 7):
            np.testing.assert_allclose(solve_steps(data, 1, 0.3, 13, k).U,
                                       iterates[k - 1], atol=1e-12)

    def test_block_groups_match_hand_transcription(self):
        # n d = 6 < N = 8: the steps evaluate in covariance form
        rng = np.random.default_rng(14)
        data = GroupedDataset(X=rng.standard_normal((3, 8)), group_sizes=(4, 4))
        assert data.evaluation_form == "covariance"
        iterates = hand_iterates(data, 2, 0.3, 13, 7)
        for k in (1, 2, 7):
            np.testing.assert_allclose(solve_steps(data, 2, 0.3, 13, k).U,
                                       iterates[k - 1], atol=1e-12)

    def test_ties_break_toward_lowest_index(self):
        # group 0 holds b e_1 and group 1 holds a e_2, so at the start
        # (a, b) both values are exactly (a b)^2 while the gradients differ
        U0 = random_stiefel(2, 1, 5)
        a, b = U0[:, 0]
        X = np.array([[b, 0.0], [0.0, a]])
        data = GroupedDataset(X=X, group_sizes=(1, 1))
        values = evaluate(data, U0).values
        assert values[0] == values[1]
        along_0 = oracles.rsg_step_by_hand(X, (1, 1), U0, 0.3, 1)
        along_1 = oracles.rsg_step_by_hand(X[:, ::-1], (1, 1), U0, 0.3, 1)
        assert np.linalg.norm(along_0 - along_1) > 1e-3
        np.testing.assert_allclose(solve_steps(data, 1, 0.3, 5, 1).U, along_0, atol=1e-14)

    def test_stays_on_manifold_even_with_large_steps(self):
        res = solve_steps(two_group_dataset(seed=1), 3, 10.0, 1, 39)
        assert res.max_orth_error <= 1e-12

    def test_rejects_bad_arguments(self):
        data = two_group_dataset()
        with pytest.raises(ValueError, match="c must be positive and finite, got 0.0"):
            RSGParams(c=0.0)
        for r, message in ((0, "r must be at least 1, got 0"),
                           (2.7, "r must be an integer, got 2.7"),
                           ("2", "r must be an integer, got '2'"),
                           (True, "r must be an integer, got True")):
            with pytest.raises(ValueError, match=message):
                solve_rsg(data, r, RSGParams(c=1.0, max_iters=1))
        with pytest.raises(DimensionError, match=r"r must lie in \[1, 6\], got 7"):
            solve_rsg(data, 7, RSGParams(c=1.0, max_iters=1))


class TestParams:
    def test_validation(self):
        RSGParams(c=0.1)
        with pytest.raises(ValueError):
            RSGParams(c=0.0)
        with pytest.raises(ValueError):
            RSGParams(c=1.0, max_iters=-1)
        with pytest.raises(ValueError):
            RSGParams(c=1.0, trace_stride=0)

    @pytest.mark.parametrize("field, value", [
        ("c", float("inf")), ("c", float("nan")),
        ("reference_phi", float("inf")), ("reference_phi", float("-inf")),
        ("reference_phi", float("nan")),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got {value!r}"):
            RSGParams(**{"c": 1.0, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be at least 0, got -1"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("max_iters", 10.0, "max_iters must be an integer, got 10.0"),
        ("trace_stride", 2.5, "trace_stride must be an integer, got 2.5"),
    ])
    def test_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RSGParams(c=1.0, **{field: value})

    def test_numpy_integer_counts_accepted(self):
        p = RSGParams(c=1.0, max_iters=np.int64(0), seed=np.uint32(3),
                      trace_stride=np.int32(2))
        assert (p.max_iters, p.seed, p.trace_stride) == (0, 3, 2)


class TestSolve:
    def test_deterministic_given_seed(self):
        data = two_group_dataset(seed=2)
        params = RSGParams(c=0.1, max_iters=150, seed=4, trace_stride=25)
        a = solve_rsg(data, 2, params)
        b = solve_rsg(data, 2, params)
        np.testing.assert_array_equal(a.U, b.U)
        assert a.phi == b.phi
        assert [t["k"] for t in a.trace] == [t["k"] for t in b.trace]
        assert [t["phi"] for t in a.trace] == [t["phi"] for t in b.trace]

    def test_reference_already_met_stops_before_stepping(self):
        data = two_group_dataset(seed=3)
        start_phi = float(evaluate(data, random_stiefel(6, 2, seed=7)).values.min())
        res = solve_rsg(data, 2, RSGParams(c=0.5, seed=7,
                                           reference_phi=start_phi))
        assert res.converged
        assert res.iterations == 0
        assert res.phi == pytest.approx(start_phi)
        assert [t["k"] for t in res.trace] == [0]

    def test_cap_and_trace_layout(self):
        data = two_group_dataset(seed=4)
        res = solve_rsg(data, 2, RSGParams(c=0.1, max_iters=130, seed=0,
                                           trace_stride=50))
        assert not res.converged
        assert res.iterations == 130
        assert [t["k"] for t in res.trace] == [0, 50, 100, 130]
        assert all(set(t) == TRACE_KEYS for t in res.trace)
        for key in ("E", "grad_norm", "gap", "lambda", "beta"):
            assert all(t[key] is None for t in res.trace)
        assert res.trace[0]["zeta"] is None
        assert res.trace[1]["zeta"] == pytest.approx(0.1 / np.sqrt(50))
        assert res.algorithm == "rsg"
        assert res.info["evaluation"] == "covariance"
        assert res.y is None
        assert res.max_orth_error <= 1e-10
        assert all(t["ms"] >= 0.0 for t in res.trace)
        assert sum(t["ms"] for t in res.trace) <= res.time_ms

    def test_ascent_makes_progress(self):
        data = two_group_dataset(seed=5)
        res = solve_rsg(data, 2, RSGParams(c=0.1, max_iters=2000, seed=1))
        assert res.phi > res.trace[0]["phi"]

    def test_phi_bounded_by_best_single_group_variance(self):
        data = two_group_dataset(seed=6)
        res = solve_rsg(data, 2, RSGParams(c=0.2, max_iters=500, seed=2))
        cap = min(ky_fan_norm(data.group(i) @ data.group(i).T, 2)
                  for i in range(data.num_groups))
        assert res.phi <= cap + 1e-9

    def test_trace_ms_counts_from_previous_row(self, monkeypatch, clock):
        # on the fake clock the start takes one second and each retraction one
        monkeypatch.setattr(baselines_module, "time", clock)
        for name in ("random_stiefel", "polar_retract"):
            monkeypatch.setattr(baselines_module, name,
                                clock.ticking(getattr(baselines_module, name)))
        res = solve_rsg(two_group_dataset(seed=7), 2,
                        RSGParams(c=0.1, max_iters=60, seed=3, trace_stride=25))
        assert [t["k"] for t in res.trace] == [0, 25, 50, 60]
        assert [t["ms"] for t in res.trace] == [1e3, 25e3, 25e3, 10e3]
        assert res.time_ms == 61e3

    @pytest.mark.parametrize("retract, cause", [
        (lambda U, D: np.full_like(U, np.nan), "non-finite group objectives at iteration 1"),
        (lambda U, D: 2.0 * U, "iterate left the manifold at iteration 1"),
        (lambda U, D: filled_like(U, np.inf), "non-finite group objectives at iteration 1"),
        (lambda U, D: filled_like(U, -np.inf), "non-finite group objectives at iteration 1"),
        (lambda U, D: filled_like(U, "mixed"), "non-finite group objectives at iteration 1"),
    ], ids=["nan", "scaled", "inf", "neg_inf", "mixed_inf"])
    def test_bad_retraction_raises_numerical_error(self, monkeypatch, retract, cause):
        monkeypatch.setattr(baselines_module, "polar_retract", retract)
        data = two_group_dataset(seed=7)
        # an infinite entry makes the evaluation's matmul warn before the
        # guard raises
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=cause):
            solve_rsg(data, 2, RSGParams(c=0.1, max_iters=10, seed=3))

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, "mixed", 1e200],
                             ids=["nan", "inf", "neg_inf", "mixed_inf", "overflow"])
    def test_non_finite_subgradient_raises_numerical_error(self, monkeypatch, fill):
        # the guard reads g . g: a NaN or infinite entry, and finite entries
        # whose squares overflow, make it non-finite
        steps = []

        def project(U, G):
            steps.append(1)
            return filled_like(G, fill) if len(steps) == 3 else project_to_tangent(U, G)

        monkeypatch.setattr(baselines_module, "project_to_tangent", project)
        data = two_group_dataset(seed=7)
        with pytest.raises(NumericalError, match="non-finite subgradient at iteration 3"):
            solve_rsg(data, 2, RSGParams(c=0.1, max_iters=10, seed=3))

    def test_evaluates_each_iterate_once(self, monkeypatch):
        # count evaluation objects, however the solver reaches their class
        data = two_group_dataset(seed=9)
        cls = type(evaluate(data, random_stiefel(data.d, 2, 0)))
        init = cls.__init__
        calls = []

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        res = solve_rsg(data, 2, RSGParams(c=0.1, max_iters=25, seed=0))
        assert res.iterations == 25
        assert len(calls) == res.iterations + 1

    def test_report_validates_against_schema(self):
        data = two_group_dataset(seed=8)
        res = solve_rsg(data, 2, RSGParams(c=0.1, max_iters=40, seed=0,
                                           trace_stride=10))
        report = res.to_report(params={"c": 0.1}, dataset_meta={})
        jsonschema.validate(report, REPORT_SCHEMA)


class TestSweep:
    def test_one_run_per_scale_in_grid_order(self):
        data = two_group_dataset(seed=10)
        grid = (1.0, 0.01, 0.1)
        runs = rsg_sweep(data, 2, grid, seed=3, max_iters=80,
                         reference_phi=None)
        assert [run.info["c"] for run in runs] == list(grid)
        for c, run in zip(grid, runs):
            direct = solve_rsg(data, 2, RSGParams(c=c, max_iters=80, seed=3,
                                                  trace_stride=80))
            assert np.array_equal(run.U, direct.U)
            assert np.array_equal(run.phi, direct.phi)
            assert np.array_equal(run.iterations, direct.iterations)
            assert [t["k"] for t in run.trace] == [0, 80]

    def test_reference_reaches_every_run(self):
        data = two_group_dataset(seed=11)
        start_phi = float(evaluate(data, random_stiefel(6, 2, seed=5)).values.min())
        runs = rsg_sweep(data, 2, (0.1, 1.0), seed=5, max_iters=50,
                         reference_phi=start_phi)
        assert all(run.converged and run.iterations == 0 for run in runs)
        assert all(run.info["reference_phi"] == start_phi for run in runs)

    def test_zero_cap_keeps_stride_valid(self):
        data = two_group_dataset(seed=12)
        (run,) = rsg_sweep(data, 2, (0.1,), seed=0, max_iters=0,
                           reference_phi=None)
        assert run.iterations == 0
        assert [t["k"] for t in run.trace] == [0]


def record(k, phi):
    return {"k": k, "phi": phi, "E": None, "grad_norm": None, "gap": None,
            "lambda": None, "beta": None, "zeta": None, "ms": 0.0}


class TestIterationsToReach:
    TRACE = [record(0, 1.0), record(10, 2.0), record(20, 3.0), record(30, 3.5)]

    def test_first_qualifying_record(self):
        assert iterations_to_reach(self.TRACE, 2.5) == 20
        assert iterations_to_reach(self.TRACE, 3.5) == 30
        assert iterations_to_reach(self.TRACE, 1.5) == 10
        assert iterations_to_reach(self.TRACE, 0.5) == 0

    def test_none_when_no_record_qualifies(self):
        assert iterations_to_reach(self.TRACE, 4.0) is None
        assert iterations_to_reach([], 1.0) is None

    def test_slack_boundary_counts(self):
        target = 4.0
        trace = [record(0, 1.0), record(7, (1.0 - 1e-4) * target)]
        assert iterations_to_reach(trace, target) == 7
        trace = [record(0, 1.0), record(7, np.nextafter((1.0 - 1e-4) * target, 0.0))]
        assert iterations_to_reach(trace, target) is None
