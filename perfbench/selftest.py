"""Show that every output check accepts an exact solution and rejects a
corrupted one.

    python3 perfbench/selftest.py

Exact solutions come from numpy alone: with one group, or with two groups
holding the same samples, the top-r eigenvectors of X X^T are stationary
with E = 0.  Exits 1 if any check accepts a corruption or rejects the exact
solution.
"""

from __future__ import annotations

import sys

import numpy as np

import checks


def exact_instance(groups: int, d: int = 12, r: int = 3) -> dict:
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.sort(rng.lognormal(0.0, 1.0, size=d))[::-1]
    A = Q @ np.diag(np.sqrt(w))
    return {
        "X": np.concatenate([A] * groups, axis=1),
        "sizes": (d,) * groups,
        "U": Q[:, :r].copy(),
        "y": np.full(groups, 1.0 / groups),
        "phi": float(np.sum(w[:r])),
        "converged": True,
        "epsilon": 1e-3,
        "single_group": groups == 1,
    }


def solution_errors(case: dict) -> list[str]:
    return checks.check_solution(
        case["X"], case["sizes"], case["U"], case["y"], case["phi"],
        converged=case["converged"], epsilon=case["epsilon"],
        single_group=case["single_group"],
    )


def rotated_away(U: np.ndarray) -> np.ndarray:
    """An orthonormal basis that shares no direction with the top-r space."""
    return np.roll(np.eye(U.shape[0]), U.shape[1], axis=1)[:, : U.shape[1]]


def with_negative_weight(y: np.ndarray) -> np.ndarray:
    """Move weight from group 0 to group 1 until y_0 = -0.1; the sum stays 1."""
    y = y.copy()
    y[1] += y[0] + 0.1
    y[0] = -0.1
    return y


CORRUPTIONS = {
    "orthonormality (U scaled by 1 + 1e-6)": lambda c: {**c, "U": c["U"] * (1 + 1e-6)},
    "simplex (a negative weight, sum kept at 1)": lambda c: {**c, "y": with_negative_weight(c["y"])},
    "simplex (sum off by 1e-9)": lambda c: {**c, "y": c["y"] * (1 + 1e-9)},
    "reported phi (off by 1e-6 relative)": lambda c: {**c, "phi": c["phi"] * (1 + 1e-6)},
    "stationarity (basis away from the top-r space)": lambda c: {
        **c,
        "U": rotated_away(c["U"]),
        "phi": float(checks.group_values(c["X"], c["sizes"], rotated_away(c["U"])).min()),
    },
}


def main() -> int:
    bad = 0
    for groups in (1, 2):
        errors = solution_errors(exact_instance(groups))
        print(f"{'ok' if not errors else 'FAIL'}: exact solution with {groups} group(s) accepted {errors}")
        bad += bool(errors)
    two = exact_instance(2)
    for what, corrupt in CORRUPTIONS.items():
        errors = solution_errors(corrupt(two))
        print(f"{'ok' if errors else 'FAIL'}: {what} rejected: {errors[:1]}")
        bad += not errors

    one = exact_instance(1)
    off_spectrum = checks.check_spectrum(one["X"], one["U"].shape[1], one["phi"] * (1 - 2e-3))
    print(f"{'ok' if off_spectrum else 'FAIL'}: spectrum, phi 2e-3 below the eigenvalue sum rejected: {off_spectrum}")
    bad += off_spectrum is None

    near = checks.check_dominance(1.0, 1.0 + 0.5e-4)
    below = checks.check_dominance(1.0, 1.0 + 2e-4)
    print(f"{'ok' if near is None else 'FAIL'}: dominance, ARPGDA 0.5e-4 below RSG accepted")
    print(f"{'ok' if below else 'FAIL'}: dominance, ARPGDA 2e-4 below RSG rejected: {below}")
    bad += near is not None or below is None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
