"""The Riemannian subgradient ascent baseline."""

import math
import re
from dataclasses import asdict, replace

import jsonschema
import numpy as np
import pytest

import oracles
from fairpca import (
    ARPGDAParams,
    DimensionError,
    GroupedDataset,
    NumericalError,
    compare_cell,
    evaluate,
    gen_synthetic_blocks,
    gen_synthetic_gaussian,
    iterations_to_reach,
    random_stiefel,
    recommended_params,
    REPORT_SCHEMA,
    RSGParams,
    solve_arpgda,
    solve_rsg,
    stationarity_measure,
    uniform_weights,
)
from fairpca import arpgda as arpgda_module
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


def same_run(a, b):
    """Bit-identical results, apart from the wall times."""
    rest = lambda run: (run.phi, run.iterations, run.converged, run.info,
                        [{**row, "ms": None} for row in run.trace])
    return np.array_equal(a.U, b.U) and np.array_equal(a.y, b.y) and rest(a) == rest(b)


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
        assert same_run(solve_rsg(data, 2, params), solve_rsg(data, 2, params))

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
        cap = min(oracles.top_eigenvalue_sum(Xi, 2)
                  for Xi in np.split(data.X, data.starts[1:], axis=1))
        assert res.phi <= cap + 1e-9

    def test_trace_ms_counts_from_previous_row(self, monkeypatch, clock):
        # on the fake clock the start takes one second and each retraction
        # one; the solvers' shared run record draws the start and reads the
        # clock
        monkeypatch.setattr(arpgda_module, "time", clock)
        monkeypatch.setattr(arpgda_module, "random_stiefel",
                            clock.ticking(arpgda_module.random_stiefel))
        monkeypatch.setattr(baselines_module, "polar_retract",
                            clock.ticking(baselines_module.polar_retract))
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
        # an infinite entry makes the evaluation's products warn before the
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
        report = res.to_report({})
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["params"] == asdict(res.params)
        assert report["params"]["c"] == 0.1


# Either solver at r = 2 with the given cap, seed and trace stride, at
# settings under which ARPGDA records no violation and neither stops before
# a cap of 30 steps.
RUN = {
    "arpgda": lambda data, **kw: solve_arpgda(data, 2, ARPGDAParams(epsilon=1e-9, mu=5.0, **kw)),
    "rsg": lambda data, **kw: solve_rsg(data, 2, RSGParams(c=0.1, **kw)),
}


class TestRunRecord:
    """The run record both solvers keep through one shared run skeleton."""

    @pytest.mark.parametrize("form", ["sample", "covariance"])
    @pytest.mark.parametrize("algorithm", ["arpgda", "rsg"])
    def test_one_record(self, monkeypatch, clock, algorithm, form):
        data = two_group_dataset(seed=3, d=5, sizes=(1,) * 8 if form == "sample" else (40, 40))
        assert data.evaluation_form == form
        start_phi = float(evaluate(data, random_stiefel(5, 2, 1)).values.min())
        # on the fake clock the start takes one second and each retraction
        # one; the run record's module draws the start and reads the clock
        # for both solvers
        monkeypatch.setattr(arpgda_module, "time", clock)
        monkeypatch.setattr(arpgda_module, "random_stiefel",
                            clock.ticking(arpgda_module.random_stiefel))
        for module in (arpgda_module, baselines_module):
            monkeypatch.setattr(module, "polar_retract", clock.ticking(module.polar_retract))
        res = RUN[algorithm](data, max_iters=30, seed=1, trace_stride=7)
        assert (res.trace[0]["k"], res.trace[0]["phi"]) == (0, start_phi)
        assert [row["k"] for row in res.trace] == [0, 7, 14, 21, 28, 30]
        assert res.trace[-1]["k"] == res.iterations
        required = REPORT_SCHEMA["properties"]["trace"]["items"]["required"]
        assert all(list(row) == required for row in res.trace)
        assert [row["ms"] for row in res.trace] == [1e3, 7e3, 7e3, 7e3, 7e3, 2e3]
        assert res.time_ms == 31e3
        assert res.to_report({"name": data.name})["params"] == asdict(res.params)

    @pytest.mark.parametrize("algorithm", ["arpgda", "rsg"])
    def test_stride_past_the_cap_keeps_the_start_and_the_cap(self, algorithm):
        res = RUN[algorithm](two_group_dataset(seed=3), max_iters=12, seed=1, trace_stride=50)
        assert res.iterations == 12
        assert [row["k"] for row in res.trace] == [0, 12]

    @pytest.mark.parametrize("algorithm", ["arpgda", "rsg"])
    def test_overflowing_start_raises_at_iteration_0(self, algorithm):
        # in sample form the squares of the projections overflow to inf; the
        # start's guard raises before ARPGDA computes its smoothness constants.
        # In covariance form the stack itself overflows when it is built for
        # the start.  Neither warns first: the suite makes warnings errors.
        for base, form, message in (
                (gen_synthetic_gaussian(4, 4, 0), "sample",
                 "non-finite group objectives at iteration 0"),
                (gen_synthetic_blocks(6, (20, 20), 0), "covariance",
                 "the covariance stack overflows: the data's largest sample norm is 1.044e+160")):
            data = GroupedDataset(base.X * 1e160, base.group_sizes)
            assert data.evaluation_form == form
            with pytest.raises(NumericalError, match=re.escape(message)):
                RUN[algorithm](data)

    @pytest.mark.parametrize("algorithm", ["arpgda", "rsg"])
    def test_covariance_stack_near_the_largest_double_raises(self, algorithm):
        # a finite stack, every entry 1.5e308, past the bound within which
        # the per-iterate products stay finite; no overflow warning first
        data = GroupedDataset(np.full((6, 12), math.sqrt(1.5e308 / 12)), (12,))
        assert np.isfinite(data.X @ data.X.T).all()
        message = "the covariance stack overflows: the data's largest sample norm is 8.660e+153"
        with pytest.raises(NumericalError, match=re.escape(message) + "$"):
            RUN[algorithm](data)

    def test_stationary_start_takes_no_step(self):
        # one group and r = d: every start is stationary, E about 4e-15
        data = gen_synthetic_blocks(3, (10,), 0)
        cell = compare_cell(data, 3, 0, arpgda_params=recommended_params(data, 3),
                            rsg_max_iters=100)
        for run in (cell.arpgda, *cell.rsg_runs):
            assert (run.iterations, run.converged, len(run.trace)) == (0, True, 1)
        assert cell.arpgda.stationarity <= cell.arpgda.params.epsilon
        assert (cell.arpgda_iters_to_rsg_phi, cell.arpgda_dominates) == (0, False)

    def test_arpgda_cap_zero_returns_the_start(self):
        data = two_group_dataset(seed=3)
        res = solve_arpgda(data, 2, ARPGDAParams(epsilon=1e-9, mu=5.0, max_iters=0, seed=7))
        U, y = random_stiefel(6, 2, 7), uniform_weights(2)
        assert (res.iterations, res.converged) == (0, False)
        np.testing.assert_array_equal(res.U, U)
        np.testing.assert_array_equal(res.y, y)
        assert res.stationarity == stationarity_measure(data, U, y)
        assert [row["k"] for row in res.trace] == [0]


class TestCompareCell:
    @pytest.mark.parametrize("form", ["sample", "covariance"])
    def test_runs_equal_a_hand_loop(self, form):
        data = two_group_dataset(seed=10, sizes=(3, 3) if form == "sample" else (8, 8))
        assert data.evaluation_form == form
        grid = (1.0, 0.01, 0.1)
        params = replace(recommended_params(data, 2), max_iters=300, trace_stride=7)
        cell = compare_cell(data, 2, 3, arpgda_params=params, c_grid=grid, rsg_max_iters=300)
        arpgda = solve_arpgda(data, 2, replace(params, seed=3))
        hand = [solve_rsg(data, 2, RSGParams(c=c, max_iters=300, seed=3, trace_stride=300,
                                             reference_phi=arpgda.phi)) for c in grid]
        assert same_run(cell.arpgda, arpgda)
        assert len(cell.rsg_runs) == len(grid) and all(map(same_run, cell.rsg_runs, hand))
        best = int(np.argmax([run.phi for run in hand]))
        reached = iterations_to_reach(arpgda.trace, hand[best].phi)
        assert cell.rsg is cell.rsg_runs[best] and cell.arpgda_iters_to_rsg_phi == reached
        assert cell.arpgda_dominates == (reached is not None and reached < hand[best].iterations)

    def test_repeated_scale_makes_the_first_run_best(self):
        cell = compare_cell(two_group_dataset(seed=11), 2, 0, arpgda_params=None,
                            c_grid=(0.1, 0.1), rsg_max_iters=30)
        assert same_run(*cell.rsg_runs) and cell.rsg is cell.rsg_runs[0]

    @pytest.mark.parametrize("reached, dominates", [(19, True), (20, False), (None, False)])
    def test_dominance_needs_strictly_fewer_iterations(self, monkeypatch, reached, dominates):
        monkeypatch.setattr(baselines_module, "iterations_to_reach", lambda trace, phi: reached)
        data = two_group_dataset(seed=12)
        params = replace(recommended_params(data, 2), max_iters=300)
        cell = compare_cell(data, 2, 0, arpgda_params=params, c_grid=(1e-3,), rsg_max_iters=20)
        assert (cell.rsg.iterations, cell.rsg.converged) == (20, False)
        assert (cell.arpgda_iters_to_rsg_phi, cell.arpgda_dominates) == (reached, dominates)

    @pytest.mark.parametrize("cap, rows", [(40, [0, 40]), (0, [0])], ids=["cap_40", "cap_0"])
    def test_without_arpgda_no_reference_and_no_dominance(self, cap, rows):
        cell = compare_cell(two_group_dataset(seed=13), 2, 5, arpgda_params=None,
                            rsg_max_iters=cap)
        assert [run.params.c for run in cell.rsg_runs] == list(baselines_module.DEFAULT_C_GRID)
        for run in cell.rsg_runs:
            assert (run.params.reference_phi, run.iterations) == (None, cap)
            assert [row["k"] for row in run.trace] == rows
        assert cell.arpgda is None and cell.arpgda_iters_to_rsg_phi is None
        assert not cell.arpgda_dominates


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
