"""Desk-scale acceptance suite: nine end-to-end checks at pinned tolerances.

Each check prints one always-visible line of the form

    ACCEPTANCE <k> <PASS|FAIL> - <measured detail>

so the verdicts are readable straight from the pytest output.  One heavy
fixture, forty compare_cell runs at d = n = 200, is module-scoped and shared
by checks 2, 3, 4, and 8, so any one of them runs every solve; the module
takes about three minutes with one BLAS thread (191 s on 2 shared cores, of
which the shared fixture took 138 s and check 9 took 51 s).

Checks 5, 6, and 7 certify the mathematics against independent oracles.
Checks 1, 2, and 9 exercise the solver's convergence contract on three
instance families, and 3 and 9 compare against the subgradient baseline.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from fairpca import (
    ARPGDAParams,
    GroupedDataset,
    RSGParams,
    compare_cell,
    evaluate,
    gen_synthetic_blocks,
    gen_synthetic_gaussian,
    random_stiefel,
    recommended_params,
    smoothness_constants,
    solve_arpgda,
    solve_rsg,
    uniform_weights,
)
from fairpca.problem import _ky_fan_sum
from fairpca.simplex import project_to_simplex
from fairpca.stiefel import polar_retract, project_to_tangent

pytestmark = pytest.mark.acceptance

R_GRID = (1, 2, 5, 10)
N_SEEDS = 10
RSG_CAP = 10_000
# five designated (r, seed) cells for the per-iteration inequality check
DESIGNATED_RUNS = ((1, 0), (2, 0), (2, 1), (5, 2), (10, 3))


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}")


def spectrum_instance(d, seed):
    """One group whose covariance has a known random lognormal spectrum."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.sort(rng.lognormal(0.0, 1.0, size=d))[::-1]
    return GroupedDataset(Q @ np.diag(np.sqrt(w)), (d,)), w


def comparison_cells(make_data, r_values, rsg_cap):
    """A comparison cell per (r, seed), ten seeds per r, on make_data(seed):
    ARPGDA at default parameters, keeping every 100th trace row, then the
    baseline's default stepsize sweep capped at rsg_cap."""
    cells = {}
    for r in r_values:
        for seed in range(N_SEEDS):
            data = make_data(seed)
            params = replace(recommended_params(data, r, seed=seed), trace_stride=100)
            cells[r, seed] = compare_cell(data, r, seed, arpgda_params=params,
                                          rsg_max_iters=rsg_cap)
    return cells


@pytest.fixture(scope="module")
def gaussian_cells():
    """The cells on the d = n = 200 instance, the baseline capped at RSG_CAP."""
    return comparison_cells(lambda seed: gen_synthetic_gaussian(200, 200, seed), R_GRID, RSG_CAP)


def test_criterion_1_single_group_pca_sanity(capsys):
    """Single-group runs recover the top-r eigenvalue sum of a dense
    eigensolver to 1e-3 relative, under five seconds per run."""
    total, ok_runs = 0, 0
    worst_rel, worst_sec = 0.0, 0.0
    for r in (1, 3, 5):
        for seed in range(10):
            data, w = spectrum_instance(50, 100 + seed)
            target = float(np.sum(w[:r]))
            params = replace(recommended_params(data, r, seed=seed),
                             max_iters=20_000, trace_stride=20_000)
            res = solve_arpgda(data, r, params)
            secs = res.time_ms / 1e3
            rel = abs(res.phi - target) / target
            total += 1
            ok_runs += rel <= 1e-3
            worst_rel = max(worst_rel, rel)
            worst_sec = max(worst_sec, secs)
    ok = ok_runs == total and worst_sec < 5.0
    report(capsys, 1, ok,
           f"{ok_runs}/{total} runs within 1e-3 relative of the top-r "
           f"eigenvalue sum (worst {worst_rel:.2e}); slowest run "
           f"{worst_sec:.2f}s (limit 5s)")
    assert ok_runs == total
    assert worst_sec < 5.0


def test_criterion_2_stationarity_contract(gaussian_cells, capsys):
    """Every converged run ends at E <= epsilon; at least 8/10 seeds converge
    within the 1e5 cap for each r; every run finishes under 60 s."""
    counts = {r: 0 for r in R_GRID}
    converged_ok = True
    worst_ms = 0.0
    for (r, seed), cell in gaussian_cells.items():
        res = cell.arpgda
        epsilon = res.params.epsilon
        worst_ms = max(worst_ms, res.time_ms)
        if res.converged:
            counts[r] += 1
            if not res.stationarity <= epsilon:
                converged_ok = False
    count_text = ", ".join(f"r={r}: {counts[r]}/{N_SEEDS}" for r in R_GRID)
    ok = (converged_ok and worst_ms < 60_000.0
          and all(counts[r] >= 8 for r in R_GRID))
    report(capsys, 2, ok,
           f"converged {count_text} (need >= 8/10 each); every converged run "
           f"has E <= epsilon: {converged_ok}; slowest run "
           f"{worst_ms / 1e3:.1f}s (limit 60s)")
    assert converged_ok
    assert worst_ms < 60_000.0
    for r in R_GRID:
        assert counts[r] >= 8, f"only {counts[r]}/10 seeds converged at r={r}"


def test_criterion_3_baseline_dominance(gaussian_cells, capsys):
    """Mean final objective beats the best-stepsize baseline per r, and the
    baseline's final value is reached in strictly fewer iterations in at
    least 75 percent of cells."""
    mean_rows = []
    means_ok = True
    for r in R_GRID:
        cells = [gaussian_cells[r, s] for s in range(N_SEEDS)]
        mean_a = float(np.mean([cell.arpgda.phi for cell in cells]))
        mean_b = float(np.mean([cell.rsg.phi for cell in cells]))
        means_ok = means_ok and mean_a >= mean_b
        mean_rows.append(f"r={r}: {mean_a:.3f} vs {mean_b:.3f}")
    dominant = sum(cell.arpgda_dominates for cell in gaussian_cells.values())
    needed = int(np.ceil(0.75 * len(gaussian_cells)))
    ok = means_ok and dominant >= needed
    report(capsys, 3, ok,
           f"mean phi (ours vs baseline) {'; '.join(mean_rows)}; faster to "
           f"the baseline's value in {dominant}/{len(gaussian_cells)} cells "
           f"(need >= {needed})")
    assert means_ok
    assert dominant >= needed


def test_criterion_4_per_iteration_inequalities(gaussian_cells, capsys):
    """Sufficient decrease and the ascent-gap bound hold at every iteration
    of five designated full runs (slack 1e-8): zero recorded violations."""
    total_iters = 0
    violations = []
    for key in DESIGNATED_RUNS:
        res = gaussian_cells[key].arpgda
        total_iters += res.iterations
        violations.extend(res.violations)
    ok = not violations
    report(capsys, 4, ok,
           f"{len(violations)} violations over {total_iters} checked "
           f"iterations in 5 full runs (slack 1e-8)")
    assert not violations


def test_criterion_5_smoothness_certification(capsys):
    """Descent-lemma and weight-Lipschitz inequalities hold with the computed
    constants on 100 sampled triples per dataset, slack 1e-9."""
    datasets = [
        gen_synthetic_gaussian(200, 200, 0),
        gen_synthetic_blocks(23, (750, 750, 750, 750), 0),
        gen_synthetic_gaussian(12, 12, 3),
    ]
    failures = 0
    checked = 0
    for d_idx, data in enumerate(datasets):
        rng = np.random.default_rng(900 + d_idx)
        for trial in range(100):
            r = int(rng.integers(1, 7))
            consts = smoothness_constants(data, r)
            U = random_stiefel(data.d, r, seed=int(rng.integers(2**31)))
            y1 = rng.dirichlet(np.ones(data.num_groups))
            y2 = rng.dirichlet(np.ones(data.num_groups))
            D = float(rng.uniform(0.01, 3.0)) * oracles.random_tangent(
                U, seed=int(rng.integers(2**31)))
            # f(U, y) = -y . values and grad_U f = P_T(gradient(y))
            ev = evaluate(data, U)
            grad_1 = project_to_tangent(ev.U, ev.gradient(y1))
            lhs_a = float(-(y1 @ evaluate(data, polar_retract(U, D)).values))
            rhs_a = (float(-(y1 @ ev.values))
                     + float(np.sum(grad_1 * D))
                     + 0.5 * consts.L1 * float(np.sum(D * D)))
            grad_diff = np.linalg.norm(grad_1 - project_to_tangent(ev.U, ev.gradient(y2)))
            checked += 2
            failures += lhs_a > rhs_a + 1e-9
            failures += grad_diff > consts.L2 * np.linalg.norm(y1 - y2) + 1e-9
    ok = failures == 0
    report(capsys, 5, ok,
           f"{failures} violations over {checked} inequality evaluations "
           f"(100 triples x 3 datasets, slack 1e-9)")
    assert failures == 0


def test_criterion_6_oracle_equivalences(capsys):
    """Simplex projection, Ky Fan norm, and the first steps of each solver
    agree with independent transcriptions."""
    rng = np.random.default_rng(77)
    worst_simplex = 0.0
    for i in range(1000):
        n = 1 + i % 8
        scale = 10.0 ** rng.integers(-2, 4)
        v = scale * rng.standard_normal(n)
        diff = np.abs(project_to_simplex(v)
                      - oracles.simplex_projection_bruteforce(v)).max()
        worst_simplex = max(worst_simplex, float(diff))

    worst_kyfan = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 21))
        B = rng.standard_normal((m, m + 2))
        A = B @ B.T
        r = int(rng.integers(1, m + 1))
        diff = abs(_ky_fan_sum(A, r) - oracles.ky_fan_via_svd(A, r))
        worst_kyfan = max(worst_kyfan, float(diff))

    data = GroupedDataset(
        X=np.array([[0.9, -0.3], [0.1, 1.2], [-0.7, 0.4]]),
        group_sizes=(1, 1))
    params = ARPGDAParams(epsilon=0.05, mu=3.0, rho=1.2, theta=1.4, max_iters=1, seed=11)
    res = solve_arpgda(data, 1, params)
    constants = smoothness_constants(data, 1)
    y_0 = uniform_weights(data.num_groups)
    # the step's smoothness constant at its weights, from per-group SVDs
    L1_1 = oracles.step_smoothness_by_svd(data.X, data.group_sizes, y_0, constants.L1)
    lam, beta_1, zeta_1 = oracles.arpgda_schedule_by_hand(
        params.epsilon, params.mu, params.rho, params.theta, L1_1, constants.L2, 1)
    U_hand, y_hand = oracles.arpgda_step_by_hand(
        data.X, data.group_sizes, random_stiefel(data.d, 1, params.seed),
        y_0, lam=lam, beta_k=beta_1, zeta_k=zeta_1)
    arpgda_diff = max(float(np.abs(res.U - U_hand).max()),
                      float(np.abs(res.y - y_hand).max()))

    res_rsg = solve_rsg(data, 1, RSGParams(c=0.3, max_iters=4, seed=5))
    U_rsg_hand = random_stiefel(data.d, 1, seed=5)
    for k in range(1, 5):
        U_rsg_hand = oracles.rsg_step_by_hand(data.X, data.group_sizes,
                                              U_rsg_hand, c=0.3, k=k)
    rsg_diff = float(np.abs(res_rsg.U - U_rsg_hand).max())

    ok = (worst_simplex <= 1e-10 and worst_kyfan <= 1e-10
          and arpgda_diff <= 1e-12 and rsg_diff <= 1e-12)
    report(capsys, 6, ok,
           f"simplex vs brute force worst {worst_simplex:.1e} (1000 runs, "
           f"tol 1e-10); Ky Fan vs dense eig worst {worst_kyfan:.1e} "
           f"(100 runs, tol 1e-10); step transcriptions differ by "
           f"{arpgda_diff:.1e} / {rsg_diff:.1e} (tol 1e-12)")
    assert worst_simplex <= 1e-10
    assert worst_kyfan <= 1e-10
    assert arpgda_diff <= 1e-12
    assert rsg_diff <= 1e-12


def test_criterion_7_gradient_finite_differences(capsys):
    """Riemannian gradients match central differences along retracted curves
    to 1e-4 relative on 50 random instances."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        d = int(rng.integers(3, 12))
        sizes = []
        while sum(sizes) < 4:
            sizes.append(int(rng.integers(1, 4)))
        data = GroupedDataset(X=rng.standard_normal((d, sum(sizes))),
                              group_sizes=tuple(sizes))
        r = int(rng.integers(1, min(d, 4) + 1))
        U = random_stiefel(d, r, seed=seed)
        y = rng.dirichlet(np.ones(data.num_groups))
        D = oracles.random_tangent(U, seed=seed + 1)
        ev = evaluate(data, U)
        inner = float(np.sum(project_to_tangent(ev.U, ev.gradient(y)) * D))
        fd = oracles.fd_directional_derivative(
            lambda V: float(-(y @ evaluate(data, V).values)), U, D, h=1e-6)
        rel = abs(inner - fd) / max(1.0, abs(inner))
        worst = max(worst, rel)
    ok = worst <= 1e-4
    report(capsys, 7, ok,
           f"worst relative disagreement {worst:.2e} over 50 instances "
           f"(tol 1e-4)")
    assert worst <= 1e-4


def test_criterion_8_feasibility_throughout(gaussian_cells, capsys):
    """Orthonormality stays within 1e-8 across every iteration of every run,
    and the weight iterates never leave the simplex."""
    worst_orth = max(run.max_orth_error for cell in gaussian_cells.values()
                     for run in (cell.arpgda, *cell.rsg_runs))
    simplex_err = max(cell.arpgda.info["max_simplex_error"]
                      for cell in gaussian_cells.values())
    ok = worst_orth <= 1e-8 and simplex_err <= 1e-12
    report(capsys, 8, ok,
           f"max orthonormality error {worst_orth:.1e} over all runs "
           f"(tol 1e-8); max simplex violation {simplex_err:.1e} "
           f"(tol 1e-12)")
    assert worst_orth <= 1e-8
    assert simplex_err <= 1e-12


def test_criterion_9_block_group_regime(capsys):
    """On the 23-feature four-group instance (750 samples each), at least
    8/10 seeds converge per r, and the final objective is at least
    (1 - 1e-4) of the best baseline value in 75 percent of cells."""
    cells = comparison_cells(lambda seed: gen_synthetic_blocks(23, (750,) * 4, seed),
                             (2, 5), 20_000)
    counts = {r: sum(cells[r, s].arpgda.converged for s in range(N_SEEDS)) for r in (2, 5)}
    phi_wins = sum(c.arpgda.phi >= (1.0 - 1e-4) * c.rsg.phi for c in cells.values())
    needed = int(np.ceil(0.75 * len(cells)))
    count_text = ", ".join(f"r={r}: {counts[r]}/{N_SEEDS}" for r in counts)
    ok = all(v >= 8 for v in counts.values()) and phi_wins >= needed
    report(capsys, 9, ok,
           f"converged {count_text} (need >= 8/10 each); objective at least "
           f"(1 - 1e-4) of the best baseline in {phi_wins}/{len(cells)} cells "
           f"(need >= {needed})")
    for r, v in counts.items():
        assert v >= 8, f"only {v}/10 seeds converged at r={r}"
    assert phi_wins >= needed
