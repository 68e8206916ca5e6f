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
(X^T U, for n d > N) or covariance form (C_i U, for n d <= N), as
GroupedDataset.evaluation_form decides.  Their 2-d and 1-d products go
through ndarray.dot, which makes the same BLAS call as the @ operator, so
the results are bit-identical, without the matmul ufunc's dispatch (see the
stiefel module).  The covariance stack product C U is a batched @: np.dot
has other semantics for 3-d operands, and one flattened (n d, d) x (d, r)
product, though cheaper at d = 23, was 2-3x slower at d = 200 with n = 10
and r >= 3.  The covariance values are one gemv of that stack, viewed as
(n, d r), with the raveled U.

Rounding contract: every result equals, byte for byte, a transcription
that makes the same products with @ (tests/oracles.py); in covariance form
that transcription forms the values with the same gemv.  The gemv sums the
products of <C_i U, U> in another order than a multiply and a two-axis
reduce, so against that form the values differ at rounding level, within
1e-13 of sum_i ||X_i||_F^2 (a property test).  The gradients' constant
factors are read-only 0-d arrays, for the reason the stiefel module gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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

        "covariance" exactly when n d <= N, else "sample".  The covariance
        form costs O(n d^2 r) per evaluation against O(N d r), and its stack
        of n d x d covariances then holds no more numbers than X itself.
        Singleton groups (n = N) stay in sample form unless d = 1.

        At a tie, n d = N, the flop counts are equal and the covariance form
        makes fewer numpy calls: 2 for the values against 3, 2 for
        gradient(y) against 4, and a scaled view for one group's gradient
        against a slice, a product and a scale.  On perfbench's single-group
        d = N = 50 instance, where numpy dispatch rather than arithmetic
        sets the cost, forcing the covariance form (before the values became
        one gemv) took a whole ARPGDA solve from 46.8 to 37.5 us an
        iteration at r = 1, 50.8 to 43.9 at r = 3 and 51.0 to 40.9 at r = 5,
        and RSG (c = 0.1, 2 000 steps) from 24.3 to 20.7, 31.6 to 24.3 and
        33.0 to 25.8 us (one CPU, medians of 15 interleaved pairs).
        Singletons with d = 1 tie too: each C_i is the 1 x 1 square of its
        sample.
        """
        return "covariance" if self.num_groups * self.d <= self.num_samples else "sample"

    @cached_property
    def covariances(self) -> np.ndarray:
        """Per-group covariances C_i = X_i X_i^T, shape (n, d, d), built on
        first use.

        Raises NumericalError, naming the largest sample norm, when the
        largest entry in size, M, is not at most B / (8 n d^2), with B the
        largest double: an entry overflows for data of norm near 1e154 or
        more, and past the bound the per-iterate products can.  The stack
        is built and tested under np.errstate, so no warning comes first.

        Proof sketch that the products of CovarianceEvaluation and the
        tangent projection of its gradient stay finite at the bound, for U
        with orthonormal columns u_l, so ||u_l||_1 <= sqrt(d), and simplex
        y.  Every partial sum of (C_i U)_jl = sum_k c_jk u_kl is at most
        sqrt(d) M in size, so 2 C_i U and the gradient -2 sum_i y_i C_i U
        are at most 2 sqrt(d) M.  The partial sums of the gemv value
        f_i = sum_jl (C_i U)_jl u_jl are at most M sum_l ||u_l||_1^2 <= r d M
        <= d^2 M, and those of the sum over the n groups, which
        check_iterate takes, n d^2 M.  For a G of entries at most
        2 sqrt(d) M, the tangent projection forms U^T G, at most 2 d M, its
        sum with its transpose, 4 d M, U times half that, 2 d^(3/2) M (the
        rows of U have norm at most 1), and the difference with G, at most
        4 d^(3/2) M.  So each is at most B / 2 at the bound; the factor 2
        covers the rounding of the sums, a relative (1 + 2^-53)^(2 d) or so,
        and U's orthonormality error up to TOL_ORTH.
        """
        groups = (self.X[:, self._slice(i)] for i in range(self.num_groups))
        n, d = self.num_groups, self.d
        with np.errstate(over="ignore", invalid="ignore"):
            C = np.stack([Xi @ Xi.T for Xi in groups])
            top = np.abs(C).max()
        # a NaN or infinite entry fails the test too
        if not top <= np.finfo(float).max / (8.0 * n * d * d):
            raise NumericalError(
                "the covariance stack overflows: the data's largest sample norm is "
                f"{float(self.sample_norms().max()):.3e}"
            )
        C.setflags(write=False)
        return C

    def sample_norms(self) -> np.ndarray:
        """The Euclidean norm of each sample, shape (N,), without a warning.

        A sample whose largest entry in size lies in [2^-480, 2^480] keeps
        np.linalg.norm's bits; any other is measured divided by that entry
        (see _scaled), so its norm keeps full precision, and is inf only
        where the norm itself passes the largest double.
        """
        _, norms, scale = _scaled(np.linalg.norm, self.X, 0)
        with np.errstate(over="ignore"):
            return (norms * scale)[0]


# A slice whose largest entry in size, top, lies in [2^-480, 2^480] is
# measured as it is.  Proof sketch: its squares are at most 2^960, so a sum
# of up to 2^60 of them stays below 2^1020, finite, and the largest, top^2,
# is at least 2^-960, a normal double, so squares that fall below the normal
# doubles change a norm's sum by less than 2^-62 of itself.  A mean sums
# entries of at most 2^480, and a std squares deviations from the mean of
# at most 2^481 in size, so neither overflows either; a std falls below the
# normal doubles only where it is under 2^-31 of top.
_LOW, _HIGH = 2.0**-480, 2.0**480


def _scaled(stat: Callable[..., np.ndarray], X: np.ndarray,
            axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one rule that keeps a statistic of X's slices in the range of
    doubles: returns (X', stat(X', axis=axis, keepdims=True), scale).

    X' is X with each slice along axis (a sample for axis 0, a feature for
    axis 1) whose largest entry in size, top, is nonzero and outside
    [_LOW, _HIGH] divided by top; scale holds top for those slices and 1.0
    for the others, so a statistic that scales with its slice, a norm or a
    mean, is stat(X') * scale.  X' is X itself, uncopied, when every slice
    is in range.
    """
    top = np.maximum(X.max(axis=axis, keepdims=True), -X.min(axis=axis, keepdims=True))
    out = (top > 0.0) & ((top < _LOW) | (top > _HIGH))
    scale = np.where(out, top, 1.0)
    if out.any():
        X = X / scale
    return X, stat(X, axis=axis, keepdims=True), scale


@dataclass(frozen=True, eq=False)
class SmoothnessConstants:
    """Constants certifying the smoothness of f(., y) and the y-Lipschitz
    continuity of its Riemannian gradient.

    tops holds each group's top eigenvalue t_i = ||C_i||_2 = ||X_i||_2^2,
    shape (n,), read-only; L1 = 2 max_i t_i, and solve_arpgda steps with
    at most 2 sum_i y_i t_i at its current weights.  Equality goes by
    identity, as tops is an array.
    """

    L1: float
    L2: float
    tops: np.ndarray


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
    gradient then cost O(N d r).  It suits data with n d > N, singleton
    groups with d > 1 among them (see GroupedDataset.evaluation_form).
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
    instead of O(N d r).  The values are one gemv of the stack with the
    raveled U.  It suits data with n d <= N (see
    GroupedDataset.evaluation_form).
    """

    __slots__ = ("CU",)

    def __init__(self, data: GroupedDataset, U: np.ndarray) -> None:
        self.data = data
        self.U = U
        self.CU = CU = data.covariances @ U
        # f_i(U) = <C_i U, U>: one gemv of the C-contiguous stack, viewed as
        # (n, d r), with the raveled U
        self.values = CU.reshape(CU.shape[0], -1).dot(U.ravel())

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
    """Compute each group's top eigenvalue t_i = ||C_i||_2 = ||X_i||_2^2,
    L1 = 2 max_i t_i and

        L2 = 2 sqrt(min(kyfan_r(sum_i C_i^2), max_i <C_i, X X^T>)),

    with C_i = X_i X_i^T, and L2 = 0 for a single group.

    2 sum_i y_i t_i bounds the smoothness of f(., y) through the polar
    retraction (see solve_arpgda), and L1, its largest value on the
    simplex, bounds it for any simplex y; L2 bounds
    ||grad_U f(U, y) - grad_U f(U, y')|| / ||y - y'|| for simplex y, y'.

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

    The quantities follow data.evaluation_form.  In covariance form
    (n d <= N) they come from the cached stack of C_i in O(n d^3):
    the t_i from a stacked eigvalsh, sum_i C_i^2, and <C_i, sum_j C_j>.
    In sample form (n d > N) they come from X in O(N d^2): singleton groups
    in one pass, where t_i = ||x_i||^2, any larger group through its Gram
    X_i^T X_i and an SVD.

    Raises NumericalError, naming the largest sample norm, when the bound
    overflows, which happens for data of norm near 1e38 or more; in
    covariance form, data of norm near 1e154 or more stops sooner, at the
    stack (see GroupedDataset.covariances).
    """
    check_rank("r", r, data.d)
    # M holds fourth powers of X: for data of norm near 1e38 or more its
    # Frobenius norm overflows, and near 1e77 the products themselves do.
    # Either raises NumericalError, without a warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        if data.evaluation_form == "covariance":
            C = data.covariances
            n, d, _ = C.shape
            tops = np.linalg.eigvalsh(C)[:, -1]
            if n == 1:
                return _constants(tops, 0.0)
            # sum_i C_i C_i as one (d, n d) @ (n d, d) product
            M = C.transpose(1, 0, 2).reshape(d, n * d) @ C.reshape(n * d, d)
            row_sums = C.reshape(n, d * d) @ C.sum(axis=0).ravel()
        else:
            X = data.X
            if data.num_groups == 1:
                sigma = float(np.linalg.norm(X, 2))
                return _constants(np.array([sigma * sigma]), 0.0)
            sizes = data.sizes_array
            # Singleton groups in one pass: ||x x^T||_2 = ||x||^2 and
            # (x x^T)^2 = ||x||^2 x x^T.
            single = sizes == 1
            Xs = X[:, np.repeat(single, sizes)]
            sq = np.einsum("ij,ij->j", Xs, Xs)
            tops = np.empty(data.num_groups)
            tops[single] = sq
            M = (Xs * sq) @ Xs.T
            for i in np.flatnonzero(~single):
                Xi = X[:, data._slice(i)]
                sigma = float(np.linalg.norm(Xi, 2))
                tops[i] = sigma * sigma
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
    return _constants(tops, 2.0 * float(np.sqrt(max(bound, 0.0))))


def _constants(tops: np.ndarray, L2: float) -> SmoothnessConstants:
    # freezes the group tops and takes L1 = 2 max_i t_i from them
    tops.setflags(write=False)
    return SmoothnessConstants(L1=2.0 * float(tops.max()), L2=L2, tops=tops)


def _step_gram(data: GroupedDataset) -> np.ndarray | None:
    """The group Gram K_ij = <C_i, C_j> = <x_i, x_j>^2 of singleton groups,
    K = (X^T X)∘(X^T X), shape (n, n) and read-only, for solve_arpgda's
    Frobenius bound ||A(y)||_F = sqrt(y^T K y); None for any other data.

    Internal.  None for one group, where A(y) = C_1; for groups of more
    than one sample, where no measured instance gained from the bound (see
    solve_arpgda); and when n^2 > N d, so that neither K nor its
    per-iteration matvec outgrows one pass over X.  With N = n that keeps
    n <= d, and K costs O(N^2 d) <= O(N d^2).
    """
    n = data.num_groups
    if n == 1 or not data._singletons or n * n > data.num_samples * data.d:
        return None
    G = data.X.T @ data.X
    K = G * G
    K.setflags(write=False)
    return K


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
