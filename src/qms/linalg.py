"""Dense complex linear-algebra primitives.

Vectorization uses the column-stacking convention throughout the package:
``vec(X)`` stacks the columns of ``X`` top to bottom, so that

    np.kron(A.T, B) @ vec(X) == vec(B @ X @ A)

holds exactly.  Every superoperator matrix in this package is written in
this convention; it is fixed here and nowhere else.
:func:`sandwich_matrix` is the package's only assembly of such a matrix
from operators: the map X -> A X B has matrix ``np.kron(B.T, A)``.
:func:`apply_batch` is the package's only application of such a matrix,
or of a stack of them, to a single matrix or to a stack.

Everything here is numpy: LAPACK through ``np.linalg``, and the matrix
exponential by Pade scaling and squaring on top of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# Numerator coefficients b_0..b_m of the [m/m] Pade approximants, and the
# 1-norm theta_m up to which each is accurate to double precision (Higham
# 2005, "The scaling and squaring method for the matrix exponential
# revisited", Table 2.3).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0)}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}


def as_matrix(x, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2-d array, validating shape and entries."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected a 2-d array, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
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
    """Largest singular value, the operator 2-norm."""
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def _pade_rows(m: int) -> np.ndarray:
    """Coefficients of the numerator's odd and even parts over the even
    powers I, A^2, A^4, ...; for m = 13 split further at A^6."""
    b = _PADE[m]
    if m == 13:
        return np.array([[0.0, b[9], b[11], b[13]], [b[1], b[3], b[5], b[7]],
                         [0.0, b[8], b[10], b[12]], [b[0], b[2], b[4], b[6]]])
    return np.array([b[1::2], b[0::2]])


_PADE_ROWS = {m: _pade_rows(m) for m in _PADE}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of e^A, (V - U)^{-1} (V + U), with U the
    odd and V the even part of the numerator polynomial.

    All polynomial combinations of the even powers come from one product
    with the coefficient rows; for m = 13 they are U = A (A^6 U_hi + U_lo)
    and V = A^6 V_hi + V_lo, which needs six products in all.
    """
    n = len(a)
    powers = [np.eye(n, dtype=complex), a @ a]
    while len(powers) < (4 if m == 13 else (m + 1) // 2):
        powers.append(powers[-1] @ powers[1])
    c = (_PADE_ROWS[m] @ np.reshape(powers, (len(powers), n * n))).reshape(-1, n, n)
    if m == 13:
        u = a @ (powers[3] @ c[0] + c[1])
        v = powers[3] @ c[2] + c[3]
    else:
        u, v = a @ c[0], c[1]
    return np.linalg.solve(v - u, v + u)


def matrix_exp(m, t: float = 1.0) -> np.ndarray:
    """e^{t M} by Pade scaling and squaring (Higham 2005).

    The lowest degree m in (3, 5, 7, 9) with ||tM||_1 <= theta_m evaluates
    the [m/m] Pade approximant directly; above theta_9, tM is halved s
    times until its 1-norm is at most theta_13, the [13/13] approximant is
    evaluated there with six products and one solve, and the result is
    squared s times.  Raises :class:`NumericError` when the result
    overflows.
    """
    m = as_matrix(m, square=True, name="matrix_exp input")
    if not np.isfinite(t):
        raise ValidationError("matrix_exp: t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        a = t * m
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
        ok = np.isfinite(norm)
        if ok:
            degree = next((k for k in (3, 5, 7, 9) if norm <= _THETA[k]), 13)
            s = (max(0, math.ceil(math.log2(norm / _THETA[13])))
                 if degree == 13 else 0)
            out = _pade(a / 2.0 ** s, degree)
            for _ in range(s):
                out = out @ out
            ok = np.isfinite(out).all()
    if not ok:
        raise NumericError("matrix_exp overflowed for ||tM|| = %.3g"
                           % (abs(t) * spectral_norm(m)))
    return out
