"""Independent reference implementations used to cross-check the package.

Everything here favors clarity over speed: brute-force enumeration, dense
decompositions, explicit python loops. Tests compare the package's fast
paths against these slow, evidently-correct ones.
"""

import itertools
import math

import numpy as np


def simplex_projection_bruteforce(z):
    """Minimize ||y - z||^2 over the probability simplex by support enumeration.

    For every nonempty support S the only stationary candidate places
    y_i = z_i + (1 - sum_S z) / |S| on S and zero elsewhere. The feasible
    candidate closest to z is the projection. Exponential in len(z);
    intended for len(z) <= 8.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    best = None
    best_dist = math.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            shift = (1.0 - z[idx].sum()) / size
            y = np.zeros(n)
            y[idx] = z[idx] + shift
            if y[idx].min() < -1e-12:
                continue
            y = np.maximum(y, 0.0)
            dist = float(np.sum((y - z) ** 2))
            if dist < best_dist:
                best_dist = dist
                best = y
    return best


def ky_fan_via_svd(M, r):
    """Sum of the r largest singular values from a dense SVD."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    return float(s[:r].sum())


def top_eigenvalue_sum(X, r):
    """Classical PCA optimum: sum of the r largest eigenvalues of X X^T."""
    return float(np.linalg.eigvalsh(X @ X.T)[-r:].sum())


def objective_by_loops(X, group_sizes, U):
    """Per-group projected variances ||X_i^T U||_F^2 with explicit loops."""
    values = []
    start = 0
    for size in group_sizes:
        total = 0.0
        for j in range(start, start + size):
            row = X[:, j] @ U
            total += float(row @ row)
        values.append(total)
        start += size
    return np.array(values)


def euclidean_gradient_by_loops(X, group_sizes, U, y):
    """Ambient gradient of -sum_i y_i ||X_i^T U||_F^2, one group at a time."""
    grad = np.zeros_like(U)
    start = 0
    for i, size in enumerate(group_sizes):
        block = X[:, start:start + size]
        grad -= 2.0 * y[i] * (block @ (block.T @ U))
        start += size
    return grad


def covariance_stack(X, group_sizes):
    """The (n, d, d) stack of group covariances X_i X_i^T, one @ per group."""
    starts = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))
    return np.stack([X[:, s:s + n] @ X[:, s:s + n].T for s, n in zip(starts, group_sizes)])


def covariance_values_by_batched_reduce(X, group_sizes, U):
    """f_i(U) = <C_i U, U> as the batched product C U, an elementwise
    multiply by U and a sum over both trailing axes."""
    return (covariance_stack(X, group_sizes) @ U * U).sum(axis=(1, 2))


def evaluation_by_matmul(X, group_sizes, U, form):
    """The group variances, gradient(y) and group_gradient(i) in the named
    form ("sample" or "covariance"), through the @ operator, with the
    per-group sum and the weight repeat run for every group size; the
    covariance values are one matrix-vector product of C U, viewed as
    (n, d r), with the raveled U.  X is first copied to C order, as
    GroupedDataset stores it."""
    X = np.ascontiguousarray(X, dtype=float)
    sizes = np.asarray(group_sizes, dtype=np.intp)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    if form == "sample":
        P = X.T @ U
        values = np.add.reduceat(np.einsum("ij,ij->i", P, P), starts)

        def gradient(y):
            return -2.0 * (X @ (np.repeat(y, sizes)[:, None] * P))

        def group_gradient(i):
            sl = slice(starts[i], starts[i] + sizes[i])
            return 2.0 * (X[:, sl] @ P[sl])
    else:
        CU = covariance_stack(X, sizes) @ U
        values = CU.reshape(CU.shape[0], -1) @ U.ravel()

        def gradient(y):
            return -2.0 * (y @ CU.reshape(CU.shape[0], -1)).reshape(CU.shape[1:])

        def group_gradient(i):
            return 2.0 * CU[i]
    return values, gradient, group_gradient


def tangent_projection_by_formula(U, G):
    """G - U sym(U^T G), operation for operation as the package's tangent
    projection forms it."""
    S = U.T @ G
    return G - U @ ((S + S.T) / 2.0)


def random_tangent(U, seed):
    """A seeded standard Gaussian d x r matrix projected onto the tangent
    space at U."""
    return tangent_projection_by_formula(U, np.random.default_rng(seed).standard_normal(U.shape))


def tangency_residual(U, D):
    """Frobenius residual ||U^T D + D^T U||_F of the tangency condition."""
    S = U.T @ D
    return float(np.linalg.norm(S + S.T))


def orthonormality_error_by_diagonal(U):
    """||U^T U - I||_F with 1 subtracted from the diagonal entries only,
    then the square root of the Frobenius dot product."""
    G = U.T @ U
    G.flat[:: G.shape[0] + 1] -= 1.0
    return math.sqrt(np.vdot(G, G))


def simplex_projection_by_sort(z):
    """The sort-and-threshold projection onto the simplex with its sum
    correction, operation for operation, for any number of entries: the
    largest m with z_(m) > (sum_{j<=m} z_(j) - 1) / m sets the threshold,
    and the residual of the sum is folded back once over the support."""
    s = np.sort(z)[::-1]
    shifted = s.cumsum() - 1.0
    last = np.flatnonzero(s - shifted / np.arange(1, z.size + 1) > 0)[-1]
    y = z - shifted[last] / (last + 1.0)
    np.maximum(y, 0.0, out=y)
    support = y > 0
    y[support] -= (y.sum() - 1.0) / np.count_nonzero(support)
    np.maximum(y, 0.0, out=y)
    return y


def polar_retraction_via_svd(U, D):
    """Polar factor of U + D computed from a dense SVD.

    Agrees with (U + D)(I + D^T D)^(-1/2) whenever D is tangent at U.
    """
    W, _, Vt = np.linalg.svd(U + D, full_matrices=False)
    return W @ Vt


def polar_retract_by_eigh(U, D):
    """(U + D)(I + D^T D)^(-1/2) through np.linalg.eigh of the Gram matrix
    of U + D, operation for operation as the package's retraction forms it."""
    A = U + D
    w, Q = np.linalg.eigh(A.T @ A)
    return A @ ((Q / np.sqrt(w)) @ Q.T)


def arpgda_schedule_by_hand(epsilon, mu, rho, theta, L1, L2, k):
    """The paper's step-size rule at the 1-based step k: lambda = epsilon /
    (8 R^2) with R = 1 on the simplex, beta_k = mu k^-rho and
    zeta_k = theta / (L1 + L2^2 / (lambda + beta_k + beta_{k+1})), with L1
    the smoothness constant the step takes (step_smoothness_by_svd)."""
    lam = epsilon / 8.0
    beta_k = mu * k ** -rho
    beta_next = mu * (k + 1) ** -rho
    zeta_k = theta / (L1 + L2 ** 2 / (lam + beta_k + beta_next))
    return lam, beta_k, zeta_k


def arpgda_step_by_hand(X, group_sizes, U, y, lam, beta_k, zeta_k):
    """One alternating update written directly from the update equations."""
    grad = tangent_projection_by_formula(
        U, euclidean_gradient_by_loops(X, group_sizes, U, y))
    U_next = polar_retraction_via_svd(U, -zeta_k * grad)
    ascent = (-objective_by_loops(X, group_sizes, U_next) - lam * y)
    y_next = simplex_projection_bruteforce(y + ascent / (lam + beta_k))
    return U_next, y_next


def rsg_step_by_hand(X, group_sizes, U, c, k):
    """One subgradient ascent step on min_i ||X_i^T U||_F^2, by hand."""
    values = objective_by_loops(X, group_sizes, U)
    i = int(np.argmin(values))
    start = int(np.sum(group_sizes[:i]))
    block = X[:, start:start + group_sizes[i]]
    g = tangent_projection_by_formula(U, 2.0 * (block @ (block.T @ U)))
    return polar_retraction_via_svd(U, (c / math.sqrt(k)) * g)


def fd_directional_derivative(fn, U, D, h):
    """Central difference of t -> fn(retract(U, t D)) at t = 0."""
    f_plus = fn(polar_retraction_via_svd(U, h * D))
    f_minus = fn(polar_retraction_via_svd(U, -h * D))
    return (f_plus - f_minus) / (2.0 * h)


def two_group_mix_distance(g1, g2, resolution=1e-3):
    """min over t in [0,1] of ||t g1 + (1-t) g2||_F on a uniform grid."""
    best = math.inf
    for t in np.arange(0.0, 1.0 + resolution / 2, resolution):
        best = min(best, float(np.linalg.norm(t * g1 + (1.0 - t) * g2)))
    return best


def _group_blocks(X, group_sizes):
    blocks = []
    start = 0
    for size in group_sizes:
        blocks.append(X[:, start:start + size])
        start += size
    return blocks


def group_tops_by_svd(X, group_sizes):
    """Each group's top eigenvalue ||X_i X_i^T||_2 = ||X_i||_2^2, from the
    largest singular value of X_i."""
    return np.array([float(np.linalg.svd(block, compute_uv=False)[0]) ** 2
                     for block in _group_blocks(X, group_sizes)])


def step_smoothness_by_svd(X, group_sizes, y, L1):
    """The U-step's smoothness constant at the weights y:
    min(L1, 2 sum_i y_i ||X_i||_2^2), one group at a time."""
    return min(L1, 2.0 * float(np.dot(y, group_tops_by_svd(X, group_sizes))))


def weighted_top_eigenvalue(X, group_sizes, y):
    """lambda_max(sum_i y_i X_i X_i^T), the exact smoothness of f(., y)
    over 2, from a dense eigvalsh of the weighted sum."""
    A = sum(w * (block @ block.T) for w, block in zip(y, _group_blocks(X, group_sizes)))
    return float(np.linalg.eigvalsh(A)[-1])


def smoothness_constants_by_loops(X, group_sizes, r):
    """L1 = 2 max_i ||X_i||_2^2 and the Ky Fan bound
    2 sqrt(kyfan_r(sum_i (X_i X_i^T)^2)), one group at a time."""
    d = X.shape[0]
    M = np.zeros((d, d))
    for block in _group_blocks(X, group_sizes):
        C = block @ block.T
        M += C @ C
    top = float(group_tops_by_svd(X, group_sizes).max())
    return 2.0 * top, 2.0 * math.sqrt(ky_fan_via_svd(M, r))


def group_gram_dense(X, group_sizes):
    """n x n Gram of the group covariances, K_ij = ||X_i^T X_j||_F^2."""
    blocks = _group_blocks(X, group_sizes)
    n = len(blocks)
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = float(np.sum((blocks[i].T @ blocks[j]) ** 2))
    return K


def weight_lipschitz_bound(X, group_sizes, r):
    """min(Ky Fan bound, 2 sqrt(max row sum of the dense K)); 0 for one
    group, whose simplex is a single point."""
    if len(group_sizes) == 1:
        return 0.0
    _, kyfan = smoothness_constants_by_loops(X, group_sizes, r)
    K = group_gram_dense(X, group_sizes)
    return min(kyfan, 2.0 * math.sqrt(float(K.sum(axis=1).max())))


def preprocess_by_loops(X, group_sizes, labels, threshold, standardize, center, normalize):
    """Preprocessing as a loop over groups: keep each group's samples whose
    norm is at least threshold, concatenate the survivors, then standardize
    the features, center and normalize the samples.  Returns the new X, the
    kept group sizes and labels, and the labels of the groups left empty;
    None when no sample survives."""
    norms = np.linalg.norm(X, axis=0)
    start = 0
    cols, sizes, kept, emptied = [], [], [], []
    for block, label in zip(_group_blocks(X, group_sizes), labels):
        mask = norms[start:start + block.shape[1]] >= threshold
        start += block.shape[1]
        if not mask.any():
            emptied.append(label)
            continue
        cols.append(block[:, mask])
        sizes.append(int(mask.sum()))
        kept.append(label)
    if not cols:
        return None
    X = np.ascontiguousarray(np.concatenate(cols, axis=1))
    if standardize:
        std = X.std(axis=1, keepdims=True)
        std[std == 0.0] = 1.0
        X = (X - X.mean(axis=1, keepdims=True)) / std
    if center:
        X = X - X.mean(axis=0, keepdims=True)
    if normalize:
        scale = np.linalg.norm(X, axis=0, keepdims=True)
        scale[scale == 0.0] = 1.0
        X = X / scale
    return X, tuple(sizes), tuple(kept), emptied
