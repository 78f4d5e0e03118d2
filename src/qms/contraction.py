"""Trace-norm contraction coefficients and induced 1->1 norms.

The contraction coefficient tau(L) is the worst-case trace-norm growth on
traceless Hermitian inputs; for Hermiticity-preserving maps it equals half
the maximal output distance over pairs of orthogonal pure states.  On
qubits it has a closed form in the Pauli transfer matrix.  For d >= 3 the
values come from multistart local ascent and are *lower bounds*; the
spread over restarts is reported as a quality signal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import SuperOperator, choi_hermiticity_residual, choi_matrix
from .errors import DimensionError, DomainError
from .linalg import apply_batch, spectral_norm, trace_norm, trace_norm_batch
from .rng import SplitMix64, derive_seed

DEFAULT_RESTARTS = 64
TOL_OPT = 1e-6
FD_STEP = 1e-5
_REL_IMPROVEMENT = 1e-10


@dataclass
class ContractionEstimate:
    """An optimizer output; ``value`` is a certified lower bound.

    ``best_witness`` reproduces ``value`` when plugged back into the
    objective.  ``convergence_spread`` is max - min over restart optima
    that converged (0.0 for the analytic method).
    """

    value: float
    method: str                      # multistart_manifold | analytic
    restarts: int
    best_witness: object
    convergence_spread: float

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "restarts": self.restarts,
                "convergence_spread": self.convergence_spread}


def _require_hermiticity_preserving(t: SuperOperator, context: str):
    res = choi_hermiticity_residual(choi_matrix(t))
    if res > 1e-8 * max(1.0, spectral_norm(t.matrix)):
        raise DomainError(
            f"{context}: map is not Hermiticity-preserving (residual {res:.3g}); "
            "use the traceless-Hermitian path (traceless_hermitian=True)")


# ---------------------------------------------------------------------------
# qubit closed form


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def tau_exact_qubit(t: SuperOperator) -> ContractionEstimate:
    """Contraction coefficient of a Hermiticity-preserving qubit map, exactly.

    With the Pauli transfer matrix R_ij = tr[sigma_i T(sigma_j)] / 2, an
    input b.sigma maps to a I + c.sigma with a = R[0,1:] b and
    c = R[1:,1:] b, and ||a I + c.sigma||_1 = 2 max(|a|, |c|), so

        tau(T) = max(||R[0,1:]||_2, ||R[1:,1:]||_op).

    The witness (phi, psi) is the eigenvector pair of n.sigma for the
    maximizing Bloch direction n.
    """
    if t.dim != 2:
        raise DimensionError(f"qubit closed form requires dim 2, got {t.dim}")
    _require_hermiticity_preserving(t, "tau_exact_qubit")
    images = t.apply_batch(_PAULIS)
    r = 0.5 * np.einsum("iab,jba->ij", _PAULIS, images).real
    shift = np.linalg.norm(r[0, 1:])
    _, sv, vh = np.linalg.svd(r[1:, 1:])
    if shift > sv[0]:
        value, n = float(shift), r[0, 1:] / shift
    else:
        value, n = float(sv[0]), vh[0]
    _, evecs = np.linalg.eigh(np.einsum("i,ijk->jk", n, _PAULIS[1:]))
    witness = (evecs[:, 1], evecs[:, 0])          # eigenvalues +1, -1
    return ContractionEstimate(value=value, method="analytic", restarts=0,
                               best_witness=witness, convergence_spread=0.0)


# ---------------------------------------------------------------------------
# batched multistart ascent


def _fd_gradient(f: Callable, xs: np.ndarray, h: float) -> np.ndarray:
    a, p = xs.shape
    pert = np.repeat(xs[:, None, :], 2 * p, axis=1)
    idx = np.arange(p)
    pert[:, 2 * idx, idx] += h
    pert[:, 2 * idx + 1, idx] -= h
    vals = f(pert.reshape(a * 2 * p, p)).reshape(a, 2 * p)
    return (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h)


def _multistart_ascent(objective, tangent_project, retract, x0: np.ndarray,
                       maxiter: int = 300):
    """Lockstep projected-gradient ascent with per-restart step halving.

    Each restart's trajectory depends only on its own state, so results are
    identical to running the restarts individually (and hence independent
    of any parallel schedule).
    """
    xs = x0.copy()
    fs = objective(xs)
    nrestarts = xs.shape[0]
    alpha = np.full(nrestarts, 0.25)
    converged = np.zeros(nrestarts, dtype=bool)
    have_grad = np.zeros(nrestarts, dtype=bool)
    grads = np.zeros_like(xs)

    for _ in range(maxiter):
        active = ~converged
        if not active.any():
            break
        need = active & ~have_grad
        if need.any():
            g = _fd_gradient(objective, xs[need], FD_STEP)
            grads[need] = tangent_project(xs[need], g)
            have_grad[need] = True
        act = np.nonzero(active)[0]
        trial = retract(xs[act] + alpha[act, None] * grads[act])
        ft = objective(trial)
        gain = ft - fs[act]
        improved = gain > 0.0
        acc, rej = act[improved], act[~improved]
        xs[acc] = trial[improved]
        fs[acc] = ft[improved]
        have_grad[acc] = False
        small = gain[improved] <= _REL_IMPROVEMENT * np.maximum(np.abs(fs[acc]), 1.0)
        converged[acc[small]] = True
        alpha[acc] = np.minimum(alpha[acc] * 1.5, 0.5)
        alpha[rej] *= 0.5
        converged[rej[alpha[rej] < 1e-12]] = True
    return xs, fs, converged


def _sphere_project_blocks(xs: np.ndarray, gs: np.ndarray, blocks) -> np.ndarray:
    out = gs.copy()
    for lo, hi in blocks:
        x = xs[:, lo:hi]
        g = gs[:, lo:hi]
        coef = np.sum(x * g, axis=1, keepdims=True)
        nrm2 = np.maximum(np.sum(x * x, axis=1, keepdims=True), 1e-300)
        out[:, lo:hi] = g - x * (coef / nrm2)
    return out


def _sphere_retract_blocks(xs: np.ndarray, blocks) -> np.ndarray:
    out = xs.copy()
    for lo, hi in blocks:
        nrm = np.linalg.norm(out[:, lo:hi], axis=1, keepdims=True)
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        out[:, lo:hi] /= nrm
    return out


class _VectorPairProblem:
    """Rank-one inputs u v^dag over independent unit vectors (general 1->1 norm)."""

    def __init__(self, t: SuperOperator):
        self.m = t.matrix
        self.d = t.dim
        d = t.dim
        self.nparams = 4 * d
        self.blocks = [(0, 2 * d), (2 * d, 4 * d)]

    def _split(self, xs):
        d = self.d
        u = xs[:, :d] + 1j * xs[:, d:2 * d]
        v = xs[:, 2 * d:3 * d] + 1j * xs[:, 3 * d:]
        return u, v

    def objective(self, xs):
        u, v = self._split(xs)
        mats = u[:, :, None] * v.conj()[:, None, :]
        return trace_norm_batch(apply_batch(self.m, mats))

    def tangent(self, xs, gs):
        return _sphere_project_blocks(xs, gs, self.blocks)

    def retract(self, xs):
        return _sphere_retract_blocks(xs, self.blocks)

    def initial(self, gen: SplitMix64):
        x = gen.normals(self.nparams)
        return self.retract(x[None, :])[0]

    def witness(self, x):
        u, v = self._split(x[None, :])
        return (u[0], v[0])

    def evaluate_witness(self, w):
        u, v = w
        return trace_norm(apply_batch(self.m, np.outer(u, v.conj())[None])[0])


class _SingleVectorProblem:
    """Pure-state inputs psi psi^dag (Hermitian-restricted 1->1 norm)."""

    def __init__(self, t: SuperOperator):
        self.m = t.matrix
        self.d = t.dim
        self.nparams = 2 * t.dim
        self.blocks = [(0, 2 * t.dim)]

    def _psi(self, xs):
        d = self.d
        return xs[:, :d] + 1j * xs[:, d:]

    def objective(self, xs):
        psi = self._psi(xs)
        mats = psi[:, :, None] * psi.conj()[:, None, :]
        return trace_norm_batch(apply_batch(self.m, mats))

    def tangent(self, xs, gs):
        return _sphere_project_blocks(xs, gs, self.blocks)

    def retract(self, xs):
        return _sphere_retract_blocks(xs, self.blocks)

    def initial(self, gen: SplitMix64):
        return self.retract(gen.normals(self.nparams)[None, :])[0]

    def witness(self, x):
        return self._psi(x[None, :])[0]

    def evaluate_witness(self, psi):
        return trace_norm(apply_batch(self.m, np.outer(psi, psi.conj())[None])[0])


class _OrthoPairProblem:
    """Orthonormal pairs (phi, psi) as the first two columns of a unitary."""

    def __init__(self, t: SuperOperator):
        self.m = t.matrix
        self.d = t.dim
        self.nparams = 4 * t.dim

    def _q(self, xs):
        d = self.d
        return (xs[:, :2 * d] + 1j * xs[:, 2 * d:]).reshape(-1, d, 2)

    def _x(self, q):
        flat = q.reshape(-1, 2 * self.d)
        return np.concatenate([flat.real, flat.imag], axis=1)

    def objective(self, xs):
        q = self._q(xs)
        phi, psi = q[:, :, 0], q[:, :, 1]
        mats = phi[:, :, None] * phi.conj()[:, None, :] \
            - psi[:, :, None] * psi.conj()[:, None, :]
        return 0.5 * trace_norm_batch(apply_batch(self.m, mats))

    def tangent(self, xs, gs):
        q = self._q(xs)
        g = self._q(gs)
        qhg = np.einsum("bij,bik->bjk", q.conj(), g)
        herm = (qhg + qhg.conj().transpose(0, 2, 1)) / 2
        return self._x(g - np.einsum("bij,bjk->bik", q, herm))

    def retract(self, xs):
        q = self._q(xs)
        qq, rr = np.linalg.qr(q)
        diag = np.einsum("bii->bi", rr)
        phase = np.where(np.abs(diag) > 0, diag / np.maximum(np.abs(diag), 1e-300), 1.0)
        return self._x(qq * phase[:, None, :])

    def initial(self, gen: SplitMix64):
        q = gen.complex_normals((self.d, 2))
        return self.retract(self._x(q[None, :, :]))[0]

    def witness(self, x):
        q = self._q(x[None, :])[0]
        return (q[:, 0], q[:, 1])

    def evaluate_witness(self, w):
        phi, psi = w
        sigma = np.outer(phi, phi.conj()) - np.outer(psi, psi.conj())
        return 0.5 * trace_norm(apply_batch(self.m, sigma[None])[0])


def traceless_hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of traceless Hermitian d x d matrices."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j], m[j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            out.append(m)
    for k in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(k):
            m[i, i] = 1.0
        m[k, k] = -k
        out.append(m / np.sqrt(k * (k + 1)))
    return np.array(out)


class _TracelessHermitianProblem:
    """Direct ratio ||L(sigma)||_1 / ||sigma||_1 over traceless Hermitian sigma."""

    def __init__(self, t: SuperOperator):
        self.m = t.matrix
        self.basis = traceless_hermitian_basis(t.dim)
        self.nparams = len(self.basis)
        self.blocks = [(0, self.nparams)]

    def _sigma(self, xs):
        return np.einsum("bp,pij->bij", xs, self.basis)

    def objective(self, xs):
        sig = self._sigma(xs)
        denom = np.maximum(trace_norm_batch(sig), 1e-300)
        return trace_norm_batch(apply_batch(self.m, sig)) / denom

    def tangent(self, xs, gs):
        return _sphere_project_blocks(xs, gs, self.blocks)

    def retract(self, xs):
        return _sphere_retract_blocks(xs, self.blocks)

    def initial(self, gen: SplitMix64):
        return self.retract(gen.normals(self.nparams)[None, :])[0]

    def witness(self, x):
        return self._sigma(x[None, :])[0]

    def evaluate_witness(self, sigma):
        return (trace_norm(apply_batch(self.m, sigma[None])[0])
                / trace_norm(sigma))


def _run_multistart(problem, restarts: int, seed: int, method: str,
                    maxiter: int = 300) -> ContractionEstimate:
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    x0 = np.stack([problem.initial(SplitMix64(derive_seed(seed, r)))
                   for r in range(restarts)])
    xs, fs, converged = _multistart_ascent(problem.objective, problem.tangent,
                                           problem.retract, x0, maxiter=maxiter)
    best = int(np.argmax(fs))
    witness = problem.witness(xs[best])
    value = float(problem.evaluate_witness(witness))
    conv_vals = fs[converged] if converged.any() else fs
    spread = float(conv_vals.max() - conv_vals.min()) if len(conv_vals) else 0.0
    return ContractionEstimate(value=value, method=method, restarts=restarts,
                               best_witness=witness, convergence_spread=spread)


# ---------------------------------------------------------------------------
# public estimators


def tau(t: SuperOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
        traceless_hermitian: bool = False, maxiter: int = 300) -> ContractionEstimate:
    """Trace-norm contraction coefficient tau(L), as a lower-bound estimate.

    For qubit maps this delegates to the closed form
    :func:`tau_exact_qubit`.  For d >= 3 it runs ``restarts`` independent
    projected-gradient ascents over pairs of orthonormal vectors (restart r
    is seeded with seed * 0x9E3779B97F4A7C15 + r, so prefixes of the
    restart stream are reproducible).

    The orthogonal-pure-state form requires a Hermiticity-preserving map;
    for other maps pass ``traceless_hermitian=True`` to optimize the
    defining ratio over traceless Hermitian inputs directly.
    """
    if traceless_hermitian:
        return _run_multistart(_TracelessHermitianProblem(t), restarts, seed,
                               "multistart_manifold", maxiter)
    if t.dim == 2:
        return tau_exact_qubit(t)
    _require_hermiticity_preserving(t, "tau")
    return _run_multistart(_OrthoPairProblem(t), restarts, seed,
                           "multistart_manifold", maxiter)


def norm_1to1(t: SuperOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
              hermitian_only: bool = False, maxiter: int = 300) -> ContractionEstimate:
    """Induced 1->1 norm sup ||L(X)||_1 / ||X||_1, as a lower-bound estimate.

    General mode optimizes over rank-one X = u v^dag (the extreme points of
    the trace-norm ball); ``hermitian_only`` restricts to Hermitian X,
    whose extreme points are +/- psi psi^dag.
    """
    problem = _SingleVectorProblem(t) if hermitian_only else _VectorPairProblem(t)
    return _run_multistart(problem, restarts, seed, "multistart_manifold", maxiter)


def tau_of_powers_check(t: SuperOperator, n_max: int,
                        restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> list:
    """Tabulate (n, tau(L^n), tau(L)^n) for n = 1..n_max.

    Raises :class:`DomainError` if the estimates violate submultiplicativity
    beyond TOL_OPT (which would indicate an estimator defect, not
    mathematics).
    """
    _require_hermiticity_preserving(t, "tau_of_powers_check")
    rows = []
    tau1 = tau(t, restarts=restarts, seed=seed).value
    power = SuperOperator(t.dim, np.eye(t.dim ** 2, dtype=complex))
    for n in range(1, n_max + 1):
        power = SuperOperator(t.dim, power.matrix @ t.matrix)
        tau_n = tau(power, restarts=restarts, seed=derive_seed(seed, n)).value
        rows.append((n, tau_n, tau1 ** n))
        if tau_n > tau1 ** n + TOL_OPT:
            raise DomainError(
                f"submultiplicativity violated at n={n}: "
                f"tau(L^n)={tau_n:.9g} > tau(L)^n={tau1 ** n:.9g} + {TOL_OPT:g}")
    return rows


# ---------------------------------------------------------------------------
# probe-based lower bounds (cheap, used for empirical certificate checks)


@functools.lru_cache(maxsize=16)
def probe_inputs(d: int, n_random: int = 64, seed: int = 0) -> np.ndarray:
    """A deterministic family of unit-trace-norm probe inputs, shape (m, d, d).

    Contains all matrix units E_ij (basis-aligned rank-one extreme points)
    plus seeded random u v^dag pairs and pure-state projectors.  Memoised
    on the arguments; the returned array is shared, hence read-only.
    """
    probes = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            probes.append(e)
    gen = SplitMix64(derive_seed(seed, 0xA11CE))
    for _ in range(n_random):
        u = gen.complex_normals(d)
        v = gen.complex_normals(d)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        probes.append(np.outer(u, v.conj()))
        psi = gen.complex_normals(d)
        psi /= np.linalg.norm(psi)
        probes.append(np.outer(psi, psi.conj()))
    probes = np.array(probes)
    probes.flags.writeable = False
    return probes


def norm_lower_bound_probes(matrix: np.ndarray, probes: np.ndarray) -> float:
    """max_j ||L(X_j)||_1 over probe inputs of unit trace norm."""
    return float(trace_norm_batch(apply_batch(matrix, probes)).max())
