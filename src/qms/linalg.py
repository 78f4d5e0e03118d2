"""Dense complex linear-algebra primitives.

Vectorization uses the column-stacking convention throughout the package:
``vec(X)`` stacks the columns of ``X`` top to bottom, so that

    kron(A.T, B) @ vec(X) == vec(B @ X @ A)

holds exactly.  Every superoperator matrix in this package is written in
this convention; it is fixed here and nowhere else.

Eigensystems come from numpy's LAPACK bindings.  scipy is imported only
inside :func:`matrix_exp`, so code paths without a generator never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# Relative tolerance for deciding that two eigenvalues belong to the same
# cluster.  Used everywhere a "distinct eigenvalue" decision is made.
TOL_CLUSTER = 1e-7


def as_matrix(x, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-d array, validating shape and entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name}: entries must be finite (no NaN/Inf)")
    return m


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    x = np.asarray(x)
    return x.T.reshape(-1)


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`.  ``d`` defaults to sqrt(len(v))."""
    v = np.asarray(v).reshape(-1)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionError(f"unvec: vector of length {v.size} is not {d}x{d}")
    return v.reshape(d, d).T


def apply_batch(m: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply the superoperator matrix ``m`` to a stack of matrices, shape
    (n, d, d) -> (n, d, d); the package's only batched application.

    A stack of superoperator matrices, shape (c, d^2, d^2), applies each
    to every matrix, giving (c, n, d, d) in one matmul; each slice is the
    same product as the single-map application.
    """
    n, d = mats.shape[0], mats.shape[-1]
    v = mats.transpose(0, 2, 1).reshape(n, d * d)
    out = v @ m.swapaxes(-1, -2)
    return out.reshape(*out.shape[:-1], d, d).swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (thin wrapper, kept for the conversion identities)."""
    return np.kron(a, b)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def trace_norm(m) -> float:
    """Schatten 1-norm (sum of singular values) of a square matrix."""
    m = as_matrix(m, square=True, name="trace_norm input")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_norm_batch(mats: np.ndarray) -> np.ndarray:
    """Trace norms of a batch of square matrices, shape (..., d, d) -> (...).

    For 2x2 inputs uses the closed form s1+s2 = sqrt(||A||_F^2 + 2|det A|),
    which avoids a batched SVD on hot paths.
    """
    mats = np.asarray(mats, dtype=complex)
    d = mats.shape[-1]
    if d == 2:
        fro2 = np.abs(mats[..., 0, 0]) ** 2 + np.abs(mats[..., 0, 1]) ** 2 \
            + np.abs(mats[..., 1, 0]) ** 2 + np.abs(mats[..., 1, 1]) ** 2
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
        return np.sqrt(np.maximum(fro2 + 2.0 * np.abs(det), 0.0))
    return np.linalg.svd(mats, compute_uv=False).sum(axis=-1)


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """e^{t M} by scaling-and-squaring (Pade), via ``scipy.linalg.expm``.

    scipy is imported here rather than at module level: only generator
    paths exponentiate, and the import dominates a cold start otherwise.
    Raises :class:`NumericError` when the result overflows.
    """
    import scipy.linalg

    m = as_matrix(m, square=True, name="matrix_exp input")
    if not np.isfinite(t):
        raise ValidationError("matrix_exp: t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(t * m)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise NumericError("matrix_exp overflowed for ||tM|| = %.3g"
                           % (abs(t) * spectral_norm(m)))
    return out


@dataclass
class EigenSystem:
    """Eigendecomposition with biorthogonalized left/right eigenvectors.

    Eigenvalues are sorted by nonincreasing modulus.  ``clusters`` groups
    indices of eigenvalues closer than ``TOL_CLUSTER`` (relative to the
    spectral radius); ``degenerate`` is set when the left/right overlap
    matrix of some cluster was numerically singular, i.e. the matrix is
    (close to) defective there and the pairing could not be normalized.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    residual: float
    clusters: list = field(default_factory=list)
    degenerate: bool = False

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_i * r_i l_i^dag; recovers M for diagonalizable input."""
        return (self.right_vectors * self.eigenvalues) @ dagger(self.left_vectors)


def _cluster_indices(w: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose pairwise distance is below tol (chained)."""
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: g[0])]


def eig(m, cluster_tol: float = TOL_CLUSTER) -> EigenSystem:
    """Full eigendecomposition with matched, biorthogonalized left vectors.

    Right vectors come from the decomposition of M, left vectors from that
    of M^dag.  The two need not list equal-modulus eigenvalues in the same
    order (cycles, unitary channels), so each eigenvalue of M^dag goes to
    the cluster of M holding its nearest conjugate; a cluster receiving the
    wrong number raises :class:`NumericError`.  Each cluster is then
    rescaled so that l_i^dag r_j = delta_ij within it, which makes the
    order inside a cluster irrelevant.  Pairs in clusters whose overlap
    matrix is singular are flagged via ``degenerate`` instead of being
    force-normalized.
    """
    m = as_matrix(m, square=True, name="eig input")
    w, vr = np.linalg.eig(m)
    order = np.lexsort((w.imag, w.real, -np.abs(w)))
    w, vr = w[order], vr[:, order]

    norm_m = spectral_norm(m)
    residual = float(np.linalg.norm(m @ vr - vr * w, axis=0).max()) if len(w) else 0.0
    if residual > 1e-8 * max(norm_m, 1e-300):
        raise NumericError("eigendecomposition residual %.3g exceeds 1e-8*||M||"
                           % residual, residual=residual)

    radius = float(np.abs(w).max()) if len(w) else 0.0
    clusters = _cluster_indices(w, cluster_tol * max(radius, 1e-300))
    w_dag, v_dag = np.linalg.eig(dagger(m))
    nearest = (np.abs(w_dag.conj()[:, None] - w).argmin(axis=1) if len(w)
               else np.zeros(0, dtype=int))
    vl = np.empty_like(vr)
    degenerate = False
    for grp in clusters:
        mine = np.nonzero(np.isin(nearest, grp))[0]
        if len(mine) != len(grp):
            raise NumericError(
                "left/right eigenvalue matching failed: cluster of size %d at "
                "%s received %d left vectors"
                % (len(grp), format(complex(w[grp[0]]), ".6g"), len(mine)))
        vl[:, grp] = v_dag[:, mine]
        overlap = dagger(vl[:, grp]) @ vr[:, grp]
        sv = np.linalg.svd(overlap, compute_uv=False)
        # columns are unit vectors, so a healthy (semisimple) cluster has
        # overlap singular values of order 1/cond; a defective one collapses
        if sv[-1] <= 1e-10:
            degenerate = True
            continue
        vl[:, grp] = vl[:, grp] @ np.linalg.inv(overlap).conj().T
    return EigenSystem(eigenvalues=w, right_vectors=vr, left_vectors=vl,
                       residual=residual, clusters=clusters, degenerate=degenerate)
