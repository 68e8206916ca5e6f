"""The Riemannian subgradient ascent baseline."""

import jsonschema
import numpy as np
import pytest

import oracles
from fairpca import (
    GroupedDataset,
    NumericalError,
    evaluate,
    iterations_to_reach,
    ky_fan_norm,
    random_stiefel,
    REPORT_SCHEMA,
    RSGParams,
    rsg_step,
    rsg_sweep,
    solve_rsg,
)
from fairpca import baselines as baselines_module


# The keys of a trace row, which are those of a report's trace rows.
TRACE_KEYS = {"k", "phi", "E", "grad_norm", "gap", "lambda", "beta", "zeta", "ms"}


def two_group_dataset(seed=0, d=6, sizes=(8, 8)):
    rng = np.random.default_rng(seed)
    return GroupedDataset(X=rng.standard_normal((d, sum(sizes))),
                          group_sizes=sizes)


class TestStep:
    def test_matches_hand_transcription(self):
        data = GroupedDataset(
            X=np.array([[1.1, -0.2], [0.3, 0.8], [-0.5, 0.6]]),
            group_sizes=(1, 1))
        U = random_stiefel(3, 1, seed=13)
        for k in (1, 2, 7):
            np.testing.assert_allclose(
                rsg_step(U, data, c=0.3, k=k),
                oracles.rsg_step_by_hand(data.X, data.group_sizes, U, 0.3, k),
                atol=1e-12)

    def test_block_groups_match_hand_transcription(self):
        # n d = 6 < N = 8: the step evaluates in covariance form
        rng = np.random.default_rng(14)
        data = GroupedDataset(X=rng.standard_normal((3, 8)), group_sizes=(4, 4))
        assert data.evaluation_form == "covariance"
        U = random_stiefel(3, 2, seed=13)
        for k in (1, 2, 7):
            np.testing.assert_allclose(
                rsg_step(U, data, c=0.3, k=k),
                oracles.rsg_step_by_hand(data.X, data.group_sizes, U, 0.3, k),
                atol=1e-12)

    def test_ties_break_toward_lowest_index(self):
        x = np.array([[0.7], [0.4]])
        data = GroupedDataset(X=np.hstack([x, x]), group_sizes=(1, 1))
        single = GroupedDataset(X=x, group_sizes=(1,))
        U = random_stiefel(2, 1, seed=5)
        np.testing.assert_allclose(rsg_step(U, data, c=0.2, k=3),
                                   rsg_step(U, single, c=0.2, k=3),
                                   atol=1e-14)

    def test_stays_on_manifold_even_with_large_steps(self):
        data = two_group_dataset(seed=1)
        U = random_stiefel(6, 3, seed=1)
        from fairpca import orthonormality_error
        for k in range(1, 40):
            U = rsg_step(U, data, c=10.0, k=k)
            assert orthonormality_error(U) <= 1e-12

    def test_rejects_bad_arguments(self):
        data = two_group_dataset()
        U = random_stiefel(6, 2, seed=0)
        with pytest.raises(ValueError):
            rsg_step(U, data, c=0.0, k=1)
        for k, message in ((0, "k must be at least 1, got 0"),
                           (1.5, "k must be an integer, got 1.5"),
                           (True, "k must be an integer, got True")):
            with pytest.raises(ValueError, match=message):
                rsg_step(U, data, c=1.0, k=k)


class TestParams:
    def test_validation(self):
        RSGParams(c=0.1)
        with pytest.raises(ValueError):
            RSGParams(c=0.0)
        with pytest.raises(ValueError):
            RSGParams(c=1.0, max_iters=-1)
        with pytest.raises(ValueError):
            RSGParams(c=1.0, trace_stride=0)

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
    ], ids=["nan", "scaled"])
    def test_bad_retraction_raises_numerical_error(self, monkeypatch, retract, cause):
        monkeypatch.setattr(baselines_module, "polar_retract", retract)
        data = two_group_dataset(seed=7)
        with pytest.raises(NumericalError, match=cause):
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
