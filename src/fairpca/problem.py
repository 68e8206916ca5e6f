"""The min-max fair PCA problem over grouped data.

Given samples split into n groups with per-group matrices X_i (columns are
samples), fair PCA seeks an orthonormal basis U maximizing the worst group
variance Phi(U) = min_i f_i(U), where f_i(U) = <X_i X_i^T, U U^T> is the
variance group i retains under projection.  Solvers work on the equivalent
minimax objective

    f(U, y) = sum_i y_i (-f_i(U)),    U on St(d, r),  y on the simplex,

which is linear in y; its y-gradient is the vector (-f_1(U), ..., -f_n(U)).
With ev = evaluate(data, U), f(U, y) is -(y @ ev.values) and its Riemannian
gradient in U is project_to_tangent(ev.U, ev.gradient(y)).

Solvers evaluate each iterate once through evaluate(data, U), in sample form
(X^T U, for singleton groups) or covariance form (C_i U, for block groups
with n d < N), as GroupedDataset.evaluation_form decides.  Their 2-d and
1-d products go through ndarray.dot, which makes the same BLAS call as the
@ operator, so the results are bit-identical, without the matmul ufunc's
dispatch (see the stiefel module).  The covariance stack product C U stays
a batched @: np.dot has other semantics for 3-d operands, and one flattened
(n d, d) x (d, r) product, though cheaper, changed bits in 198 of 300 trials
(d = 23, n = 4, six ranks from 1 to 23, 50 starts each).  The gradients'
constant factors are read-only 0-d arrays and the value sum is a ufunc
reduction, for the reason the stiefel module gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DiagnosticUnavailableError,
    DimensionError,
    NumericalError,
    check_count,
    check_rank,
)
from .simplex import _as_vector, project_to_simplex, uniform_weights
from .stiefel import _TWO, _as_point_shape, project_to_tangent, validate_stiefel

# The step tolerance and inner-step cap of dist_to_subgradient's quadratic
# program.
_QP_TOL = 1e-8
_QP_MAX_ITERS = 10_000

# -2.0 as a read-only 0-d array, the cheaper constant operand (see the
# stiefel module)
_MINUS_TWO = np.array(-2.0)
_MINUS_TWO.flags.writeable = False


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    """Samples arranged column-wise with one contiguous block per group.

    X has shape (d, N); group i owns group_sizes[i] consecutive columns.
    labels names the groups, "g0", ..., "g{n-1}" when none are given, so it
    is always a tuple of n distinct strings.  The array is copied and frozen
    at construction, so datasets can be shared between concurrent solver runs
    without locking.  Equality and hashing go by identity: a dataset can key
    a dict, and == never compares arrays.
    """

    X: np.ndarray
    group_sizes: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float, order="C", copy=True)
        if X.ndim != 2:
            raise DimensionError(f"X must be a 2-d array, got shape {X.shape}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionError(f"X must be non-empty, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        sizes = tuple(check_count(f"group_sizes[{i}]", s, 1)
                      for i, s in enumerate(self.group_sizes))
        if len(sizes) == 0:
            raise DimensionError("group_sizes must be non-empty")
        if sum(sizes) != X.shape[1]:
            raise DimensionError(
                f"group sizes sum to {sum(sizes)} but X has {X.shape[1]} columns"
            )
        labels = (f"g{i}" for i in range(len(sizes))) if self.labels is None else self.labels
        labels = tuple(map(str, labels))
        if len(labels) != len(sizes):
            raise DimensionError(f"got {len(labels)} labels for {len(sizes)} groups")
        if len(set(labels)) != len(labels):
            repeated = sorted({label for label in labels if labels.count(label) > 1})
            raise ValueError(f"group labels must be distinct, got repeated {repeated}")
        object.__setattr__(self, "labels", labels)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group_sizes", sizes)

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def num_samples(self) -> int:
        return self.X.shape[1]

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @cached_property
    def sizes_array(self) -> np.ndarray:
        a = np.asarray(self.group_sizes, dtype=np.intp)
        a.setflags(write=False)
        return a

    @cached_property
    def starts(self) -> np.ndarray:
        a = np.concatenate(([0], np.cumsum(self.sizes_array)[:-1]))
        a.setflags(write=False)
        return a

    def _slice(self, i: int) -> slice:
        # the columns of X that group i owns, unchecked, for callers that
        # loop over valid indices
        start = int(self.starts[i])
        return slice(start, start + self.group_sizes[i])

    @cached_property
    def _singletons(self) -> bool:
        # every group is one sample (n = N): the regime recommended_params
        # tunes for, and where the evaluation's per-group sums are copies
        return self.num_groups == self.num_samples

    @cached_property
    def evaluation_form(self) -> str:
        """Which form evaluates the group variances and gradients, by cost.

        "covariance" exactly when n d < N, else "sample".  The covariance
        form costs O(n d^2 r) per evaluation against O(N d r), and its stack
        of n d x d covariances then holds fewer numbers than X itself.
        Singleton groups (n = N) stay in sample form.  The inequality is
        strict: at n d = N the flop counts tie, and on the single-group
        d = N = 50 instance, where numpy dispatch rather than arithmetic sets
        the cost, the covariance form ran slower.
        """
        return "covariance" if self.num_groups * self.d < self.num_samples else "sample"

    @cached_property
    def covariances(self) -> np.ndarray:
        """Per-group covariances C_i = X_i X_i^T, shape (n, d, d), built on
        first use."""
        groups = (self.X[:, self._slice(i)] for i in range(self.num_groups))
        C = np.stack([Xi @ Xi.T for Xi in groups])
        C.setflags(write=False)
        return C

    def sample_norms(self) -> np.ndarray:
        return np.linalg.norm(self.X, axis=0)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Constants certifying the smoothness of f(., y) and the y-Lipschitz
    continuity of its Riemannian gradient."""

    L1: float
    L2: float


def _check_weights_size(data: GroupedDataset, y: np.ndarray) -> np.ndarray:
    y = _as_vector(y, "y")
    if y.size != data.num_groups:
        raise DimensionError(f"y must have shape ({data.num_groups},), got {y.shape}")
    return y


def _check_group_index(data: GroupedDataset, i: int) -> None:
    # any integer passes check_count; the range gets its own message
    if not 0 <= check_count("group index", i, -math.inf) < data.num_groups:
        raise DimensionError(f"group index {i} out of range [0, {data.num_groups})")


class Evaluation:
    """Group variances values = (f_1(U), ..., f_n(U)) and gradients at one
    iterate U.  evaluate(data, U) picks the form; each form adds its cache,
    gradient(y) and the unchecked _group_gradient(i).  gradient reads y as
    given, a float array of shape (n,)."""

    __slots__ = ("data", "U", "values")

    def group_gradient(self, i: int) -> np.ndarray:
        """Ambient gradient of f_i at U, for 0 <= i < n."""
        _check_group_index(self.data, i)
        return self._group_gradient(i)


class SampleEvaluation(Evaluation):
    """Group variances and gradients at one iterate U, in sample form.

    Caches the projections P = X^T U, shape (N, r); the values and each
    gradient then cost O(N d r).  It suits singleton groups and any data with
    n d >= N (see GroupedDataset.evaluation_form).
    """

    __slots__ = ("P",)

    def __init__(self, data: GroupedDataset, U: np.ndarray) -> None:
        self.data = data
        self.U = U
        self.P = P = data.X.T.dot(U)
        sq = np.einsum("ij,ij->i", P, P)
        # a one-sample group's sum is its one entry, so singletons skip it
        self.values = sq if data._singletons else np.add.reduceat(sq, data.starts)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """Ambient gradient of f(., y): -2 sum_i y_i X_i X_i^T U."""
        data = self.data
        w = y if data._singletons else np.repeat(y, data.sizes_array)
        return _MINUS_TWO * data.X.dot(w[:, None] * self.P)

    def _group_gradient(self, i: int) -> np.ndarray:
        # 2 X_i X_i^T U, unchecked, for solve_rsg's argmin
        sl = self.data._slice(i)
        return _TWO * self.data.X[:, sl].dot(self.P[sl])


class CovarianceEvaluation(Evaluation):
    """Group variances and gradients at one iterate U, in covariance form.

    Caches the stack C U, shape (n, d, r), from the per-group covariances
    C_i = X_i X_i^T; the values and each gradient then cost O(n d^2 r)
    instead of O(N d r).  It suits block groups with n d < N.
    """

    __slots__ = ("CU",)

    def __init__(self, data: GroupedDataset, U: np.ndarray) -> None:
        self.data = data
        self.U = U
        self.CU = CU = data.covariances @ U
        # f_i(U) = <C_i U, U>; a sum of products beats einsum at these shapes
        self.values = np.add.reduce(CU * U, axis=(1, 2))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """Ambient gradient of f(., y): -2 sum_i y_i C_i U."""
        CU = self.CU
        return _MINUS_TWO * y.dot(CU.reshape(CU.shape[0], -1)).reshape(CU.shape[1:])

    def _group_gradient(self, i: int) -> np.ndarray:
        # 2 C_i U, unchecked, for solve_rsg's argmin
        return _TWO * self.CU[i]


def evaluate(data: GroupedDataset, U: np.ndarray) -> Evaluation:
    """Evaluate the group variances at U, in the form data.evaluation_form
    names.  The result carries values (f_1(U), ..., f_n(U)), gradient(y) and
    group_gradient(i), so one evaluation feeds every quantity a solver needs
    at an iterate."""
    U = _as_point_shape(U)
    if U.shape[0] != data.d:
        raise DimensionError(f"U must have shape ({data.d}, r), got {U.shape}")
    if data.evaluation_form == "covariance":
        return CovarianceEvaluation(data, U)
    return SampleEvaluation(data, U)


def _ky_fan_sum(M: np.ndarray, r: int) -> float:
    """Sum of the r largest eigenvalues of the symmetric part of M.

    Internal: M is not checked; the caller passes a square float array it
    built, with finite entries, and 1 <= r <= its size.
    """
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    return float(np.sum(w[-r:]))


def smoothness_constants(data: GroupedDataset, r: int) -> SmoothnessConstants:
    """Compute L1 = 2 max_i ||X_i X_i^T||_2 and

        L2 = 2 sqrt(min(kyfan_r(sum_i C_i^2), max_i <C_i, X X^T>)),

    with C_i = X_i X_i^T, and L2 = 0 for a single group.

    L1 bounds the smoothness of f(., y) through the polar retraction for any
    simplex y; L2 bounds ||grad_U f(U, y) - grad_U f(U, y')|| / ||y - y'||
    for simplex y, y'.

    Proof sketch for the second term.  With delta = y - y', the gradient
    difference is P_T(-2 sum_i delta_i C_i U), where P_T, the tangent
    projection at U, is an orthogonal projection and ||U||_2 = 1, so its norm
    is at most 2 ||sum_i delta_i C_i||_F = 2 sqrt(delta^T K delta) with the
    group Gram K_ij = <C_i, C_j> = ||X_i^T X_j||_F^2.  K is entrywise
    non-negative, so Gershgorin gives lambda_max(K) <= max_i sum_j K_ij =
    max_i <C_i, X X^T>, which never forms K.  The Ky Fan term bounds the same
    norm through (sum_i delta_i C_i)^2 <= ||delta||^2 sum_i C_i^2 in the
    semidefinite order and U^T U = I; the smaller of the two is kept.  With
    one group the simplex is the single point {1}, so y = y' and L2 = 0 is
    valid.

    The quantities follow data.evaluation_form.  In covariance form (block
    groups, n d < N) they come from the cached stack of C_i in O(n d^3):
    ||C_i||_2 from a stacked eigvalsh, sum_i C_i^2, and <C_i, sum_j C_j>.
    In sample form (singleton groups, or n d >= N) they come from X in
    O(N d^2): singleton groups in one pass, any larger group through its
    Gram X_i^T X_i and an SVD.

    Raises NumericalError, naming the largest sample norm, when the bound
    overflows, which happens for data of norm near 1e38 or more.
    """
    check_rank("r", r, data.d)
    # M holds fourth powers of X: for data of norm near 1e38 or more its
    # Frobenius norm overflows, and near 1e77 the products themselves do.
    # Either raises NumericalError, without a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        if data.evaluation_form == "covariance":
            C = data.covariances
            n, d, _ = C.shape
            top = float(np.linalg.eigvalsh(C)[:, -1].max())
            if n == 1:
                return SmoothnessConstants(L1=2.0 * top, L2=0.0)
            # sum_i C_i C_i as one (d, n d) @ (n d, d) product
            M = C.transpose(1, 0, 2).reshape(d, n * d) @ C.reshape(n * d, d)
            row_sums = C.reshape(n, d * d) @ C.sum(axis=0).ravel()
        else:
            X = data.X
            if data.num_groups == 1:
                sigma = float(np.linalg.norm(X, 2))
                return SmoothnessConstants(L1=2.0 * sigma * sigma, L2=0.0)
            sizes = data.sizes_array
            # Singleton groups in one pass: ||x x^T||_2 = ||x||^2 and
            # (x x^T)^2 = ||x||^2 x x^T.
            Xs = X[:, np.repeat(sizes == 1, sizes)]
            sq = np.einsum("ij,ij->j", Xs, Xs)
            top = float(sq.max(initial=0.0))
            M = (Xs * sq) @ Xs.T
            for i in np.flatnonzero(sizes > 1):
                Xi = X[:, data._slice(i)]
                sigma = float(np.linalg.norm(Xi, 2))
                top = max(top, sigma * sigma)
                # (X_i X_i^T)^2 accumulated as X_i (X_i^T X_i) X_i^T
                M += Xi @ ((Xi.T @ Xi) @ Xi.T)
            # sum_j K_ij = sum_{a in group i} x_a^T (X X^T) x_a
            row_sums = np.add.reduceat(np.einsum("ij,ij->j", X, (X @ X.T) @ X), data.starts)
        if not (np.isfinite(row_sums).all() and math.isfinite(float(np.linalg.norm(M)))):
            raise NumericalError(
                "the smoothness constants overflow: the data's largest sample norm is "
                f"{float(data.sample_norms().max()):.3e}"
            )
    bound = min(_ky_fan_sum(M, r), float(row_sums.max()))
    return SmoothnessConstants(L1=2.0 * top, L2=2.0 * float(np.sqrt(max(bound, 0.0))))


def dist_to_subgradient(
    data: GroupedDataset,
    U: np.ndarray,
    *,
    rel_threshold: float = 0.1,
) -> float:
    """Distance from zero to the span of near-active group gradients:

        min_y ||sum_{i in A} y_i grad f_i(U)||  over simplex weights y,

    with the active set A = {i : f_i(U) - min_j f_j(U) <= rel_threshold * min_j f_j(U)}.
    A small value certifies approximate stationarity of Phi = min_i f_i.

    The quadratic program is solved by projected gradient descent with the
    classical 1/L stepsize, L = 2 lambda_max(Gram), iterating until the
    update moves less than 1e-8 or for 10 000 inner steps.
    """
    if not rel_threshold >= 0.0:
        raise ValueError(f"rel_threshold must be non-negative, got {rel_threshold!r}")
    ev = evaluate(data, validate_stiefel(U))
    f_vals = ev.values
    f_min = float(f_vals.min())
    if f_min <= 0.0:
        raise DiagnosticUnavailableError(
            f"active set needs min_i f_i > 0, got {f_min:.3e}"
        )
    active = np.nonzero(f_vals - f_min <= rel_threshold * f_min)[0]
    grads = np.stack(
        [project_to_tangent(ev.U, ev.group_gradient(i)).ravel() for i in active]
    )
    if len(active) == 1:
        return float(np.linalg.norm(grads[0]))
    H = grads @ grads.T
    lam_max = float(np.linalg.eigvalsh(H)[-1])
    if lam_max <= 0.0:
        return 0.0
    step = 1.0 / (2.0 * lam_max)
    y = uniform_weights(len(active))
    for _ in range(_QP_MAX_ITERS):
        y_next = project_to_simplex(y - step * 2.0 * (H @ y))
        moved = float(np.linalg.norm(y_next - y))
        y = y_next
        if moved <= _QP_TOL:
            break
    # Norm of the actual combination rather than sqrt(y H y): the Gram form
    # squares the conditioning and floors the result near sqrt(eps) when the
    # gradients cancel.
    return float(np.linalg.norm(grads.T @ y))
