"""Dense complex linear-algebra primitives.

Vectorization uses the column-stacking convention throughout the package:
``vec(X)`` stacks the columns of ``X`` top to bottom, so that

    np.kron(A.T, B) @ vec(X) == vec(B @ X @ A)

holds exactly.  Every superoperator matrix in this package is written in
this convention; it is fixed here and nowhere else.
:func:`sandwich_matrix` is the package's only assembly of such a matrix
from operators: the map X -> A X B has matrix ``np.kron(B.T, A)``.
:func:`apply_batch` is the package's only application of such a matrix,
or of a stack of them, to a single matrix or to a stack; the power ascent
of :mod:`qms.contraction` repeats its product with the transposes hoisted.

Everything here is numpy: LAPACK through ``np.linalg``, and the matrix
exponential by Pade scaling and squaring on top of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant of e^A,
# and the 1-norm theta_13 up to which it is accurate to double precision
# (Higham 2005, "The scaling and squaring method for the matrix exponential
# revisited", Table 2.3).  The rows U_hi = (0, b_9, b_11, b_13), U_lo = (b_1,
# b_3, b_5, b_7), V_hi = (0, b_8, b_10, b_12), V_lo = (b_0, b_2, b_4, b_6)
# weigh I, A^2, A^4, A^6: U = A (A^6 U_hi + U_lo) and V = A^6 V_hi + V_lo are
# the numerator's odd and even parts.
_PADE13 = np.array([
    [0.0, 40840800.0, 16380.0, 1.0],
    [32382376266240000.0, 1187353796428800.0, 10559470521600.0, 33522128640.0],
    [0.0, 1323241920.0, 960960.0, 182.0],
    [64764752532480000.0, 7771770303897600.0, 129060195264000.0, 670442572800.0]])
_THETA13 = 5.371920351148152


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex square array, validating shape and entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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


def sandwich_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator matrices of X -> A X B, ``np.kron(B.T, A)``, for
    stacks of A and B, shape (..., d, d) -> (..., d^2, d^2).

    Leading axes broadcast.  Each entry is the single product B[j, i] A[k, l]
    that ``np.kron`` forms, with the operands in kron's order, so every
    slice equals ``np.kron(B.T, A)`` bit for bit.
    """
    d = a.shape[-1]
    out = b.swapaxes(-1, -2)[..., :, None, :, None] * a[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], d * d, d * d)


def apply_batch(m: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply the superoperator matrix ``m`` to a matrix or a stack of them,
    shape (..., d, d) -> (..., d, d); on one matrix it is ``unvec(m @
    vec(mats))`` bit for bit, as numpy runs the same matrix-vector product.

    A stack of superoperator matrices, shape (c, d^2, d^2), applies each
    to every matrix, giving (c, n, d, d) in one matmul; each slice is the
    same product as the single-map application.  Leading axes broadcast
    as in matmul, so maps (n, d^2, d^2) with matrices (n, 1, d, d) apply
    map k to matrix k alone, giving (n, 1, d, d).
    """
    d = mats.shape[-1]
    v = mats.swapaxes(-1, -2).reshape(*mats.shape[:-2], d * d)
    out = v @ m.swapaxes(-1, -2)
    return out.reshape(*out.shape[:-1], d, d).swapaxes(-1, -2)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def trace_norm(m) -> float:
    """Schatten 1-norm (sum of singular values) of a square matrix."""
    m = as_matrix(m, name="trace_norm input")
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
    """Largest singular value, the operator 2-norm."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def _pade13(a: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant of e^A, (V - U)^{-1} (V + U): one product
    with the coefficient rows gives every combination of the even powers, so
    U and V take six products in all."""
    n = len(a)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    c = (_PADE13 @ np.reshape([np.eye(n), a2, a4, a6], (4, n * n))).reshape(4, n, n)
    u = a @ (a6 @ c[0] + c[1])
    v = a6 @ c[2] + c[3]
    return np.linalg.solve(v - u, v + u)


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """e^{t M} by Pade scaling and squaring (Higham 2005).

    tM is halved s times until its 1-norm is at most theta_13, the [13/13]
    Pade approximant is evaluated there, and the result is squared s times.
    Raises :class:`NumericError` when the result overflows.

    Squaring limits the accuracy at large t: each squaring doubles the
    roundoff along the directions e^{tM} keeps, so the error grows about
    like eps ||tM||_1.  For the rate-1 depolarizing generator (largest
    entry of e^{tL} 1/2) it is 1.5e-8 at t = 1e9, 1.3e-5 at 1e12 and 6e-2
    at 1e15; scipy.linalg.expm is off by 1.7e-2 at 1e15."""
    m = as_matrix(m, name="matrix_exp input")
    if not np.isfinite(t):
        raise ValidationError("matrix_exp: t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a = t * m
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        ok = np.isfinite(norm)
        if ok:
            s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
            out = _pade13(a / 2.0 ** s)
            for _ in range(s):
                out = out @ out
            ok = np.isfinite(out).all()
    if not ok:
        raise NumericError("matrix_exp overflowed for ||tM|| = %.3g"
                           % (abs(t) * spectral_norm(m)))
    return out
