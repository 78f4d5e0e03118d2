"""Quantum channels and positive trace-preserving maps.

A map T on d x d matrices is stored as its d^2 x d^2 superoperator matrix
in the column-stacking convention of :mod:`qms.linalg`.  A channel built
from Kraus operators {A_k} has superoperator

    M = sum_k  conj(A_k) (x) A_k,

so that ``unvec(M @ vec(rho))`` equals ``sum_k A_k rho A_k^dag``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, PreconditionError, ValidationError
from .linalg import (apply_batch, as_matrix, dagger, matrix_exp,
                     sandwich_matrix, spectral_norm, trace_norm, vec)
from .rng import SplitMix64

DEFAULT_POSITIVITY_SAMPLES = 1000


@dataclass(eq=False)
class SuperOperator:
    """A linear map on M_d(C) as a d^2 x d^2 matrix (column stacking).

    Whether the map is trace-preserving is read from the matrix by the
    ``trace_preserving`` property, the package's one TP rule, whatever
    the map was built from.  Equality and hashing are by identity.
    """

    dim: int
    matrix: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, name="superoperator matrix")
        if self.matrix.shape[0] != self.dim ** 2:
            raise DimensionError(
                f"superoperator matrix is {self.matrix.shape[0]}x{self.matrix.shape[1]}, "
                f"expected {self.dim ** 2}x{self.dim ** 2} for dim={self.dim}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a d x d matrix: check the input, then
        :func:`~qms.linalg.apply_batch`."""
        x = as_matrix(x, name="channel input")
        if x.shape[0] != self.dim:
            raise DimensionError(f"input is {x.shape[0]}x{x.shape[1]}, map has dim {self.dim}")
        return apply_batch(self.matrix, x)

    def tp_residual(self) -> float:
        """|| vec(I)^dag M - vec(I)^dag ||_2 (zero iff trace-preserving),
        computed once per map, as a ``SuperOperator`` is never mutated."""
        return self._tp_residual

    @functools.cached_property
    def _tp_residual(self) -> float:
        vi = vec(np.eye(self.dim))
        return float(np.linalg.norm(dagger(self.matrix) @ vi - vi))

    @property
    def trace_preserving(self) -> bool:
        """Whether ``tp_residual() <= 1e-10``; read-only."""
        return self._tp_residual <= 1e-10


@dataclass
class DensityMatrix:
    """d x d density matrix: Hermitian, PSD and unit trace within 1e-10."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, name="density matrix")
        if self.matrix.shape[0] != self.dim:
            raise DimensionError(f"density matrix shape {self.matrix.shape} != dim {self.dim}")
        skew = self.matrix - dagger(self.matrix)
        herm = float(spectral_norm(skew)) if skew.any() else 0.0
        if herm > 1e-10:
            raise ValidationError(f"density matrix not Hermitian (residual {herm:.3g})")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace {tr.real:.12g} != 1")
        lo = float(np.linalg.eigvalsh((self.matrix + dagger(self.matrix)) / 2).min())
        if lo < -1e-10:
            raise ValidationError(f"density matrix has eigenvalue {lo:.3g} < -1e-10")


@dataclass(eq=False)
class GeneratorMap:
    """Superoperator of a semigroup generator; trace-annihilating.  Equality
    and hashing are by identity, as for :class:`SuperOperator`."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, name="generator matrix")
        if self.matrix.shape[0] != self.dim ** 2:
            raise DimensionError(
                f"generator matrix is {self.matrix.shape}, expected dim^2 = {self.dim ** 2}")
        ok, res = annihilates_trace(self.matrix, self.dim)
        if not ok:
            raise ValidationError(
                f"generator is not trace-annihilating (residual {res:.3g})")

    @functools.cached_property
    def unit_time_map(self) -> SuperOperator:
        """The semigroup element e^{L}, computed once per generator."""
        return generator_exponential(self, 1.0)


@dataclass
class ValidationReport:
    """Outcome of the structural checks on a map."""

    trace_preserving: bool
    tp_residual: float
    hermiticity_preserving: bool
    hp_residual: float
    completely_positive: bool
    min_choi_eigenvalue: float
    unital: bool
    unital_residual: float
    positivity: str                      # "no_counterexample" | "counterexample"
    positivity_samples: int
    positivity_witness: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        out = {
            "trace_preserving": self.trace_preserving,
            "tp_residual": self.tp_residual,
            "hermiticity_preserving": self.hermiticity_preserving,
            "hp_residual": self.hp_residual,
            "completely_positive": self.completely_positive,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
            "unital": self.unital,
            "unital_residual": self.unital_residual,
            "positivity": self.positivity,
            "positivity_samples": self.positivity_samples,
        }
        if self.positivity_witness is not None:
            out["positivity_witness"] = [
                [[float(z.real), float(z.imag)] for z in row]
                for row in np.outer(self.positivity_witness,
                                    self.positivity_witness.conj())
            ]
        return out


# ---------------------------------------------------------------------------
# constructors


def identity_channel(d: int) -> SuperOperator:
    return SuperOperator(d, np.eye(d * d, dtype=complex), label="identity")


def from_kraus(operators: Sequence[np.ndarray], label: str | None = None) -> SuperOperator:
    """Build the superoperator sum_k conj(A_k) (x) A_k of a Kraus family.

    The result is completely positive by construction, and trace-preserving
    iff sum_k A_k^dag A_k = I, as ``SuperOperator.trace_preserving`` decides.
    """
    if len(operators) == 0:
        raise ValidationError("from_kraus: empty Kraus list")
    ops = [as_matrix(a, name=f"Kraus operator {k}")
           for k, a in enumerate(operators)]
    d = ops[0].shape[0]
    for k, a in enumerate(ops):
        if a.shape[0] != d:
            raise DimensionError(f"Kraus operator {k} is {a.shape[0]}x{a.shape[1]}, "
                                 f"expected {d}x{d}")
    ops = np.stack(ops)
    m = sandwich_matrix(ops, dagger(ops)).sum(axis=0)
    return SuperOperator(d, m, label=label)


def from_stochastic(s, label: str | None = None) -> SuperOperator:
    """Embed a row-stochastic matrix S as a channel on diagonal states.

    The embedded map sends |i><i| to sum_j S[i, j] |j><j| (so probability
    column vectors evolve by p -> S^T p) and annihilates all off-diagonal
    matrix units.  Rows must sum to 1 within 1e-10; whether the embedded
    map is trace-preserving is then ``SuperOperator.trace_preserving``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"stochastic matrix must be square, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValidationError("stochastic matrix has non-finite entries")
    if np.any(s < -1e-12):
        raise ValidationError("stochastic matrix has negative entries")
    rows = s.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-10):
        bad = int(np.argmax(np.abs(rows - 1.0)))
        raise ValidationError(f"row {bad} of stochastic matrix sums to {rows[bad]:.12g}, not 1")
    d = s.shape[0]
    m = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)          # vec positions of |i><i|
    m[diag[:, None], diag] = s.T
    return SuperOperator(d, m, label=label)


def compose(t1: SuperOperator, t2: SuperOperator) -> SuperOperator:
    """Superoperator of t1 after t2 (matrix product of superoperators),
    TP as its own matrix decides."""
    if t1.dim != t2.dim:
        raise DimensionError(f"cannot compose maps of dims {t1.dim} and {t2.dim}")
    return SuperOperator(t1.dim, t1.matrix @ t2.matrix)


def dual(t: SuperOperator) -> SuperOperator:
    """Hilbert-Schmidt adjoint: the conjugate transpose of the superoperator.

    For Hermiticity-preserving maps this is the map T* with
    tr[T*(A) B] = tr[A T(B)].  An involution: dual(dual(T)) == T exactly.
    """
    return SuperOperator(t.dim, dagger(t.matrix), label=t.label)


def generator_exponential(gen: GeneratorMap, t: float) -> SuperOperator:
    """The semigroup element e^{t L} as a superoperator."""
    return SuperOperator(gen.dim, matrix_exp(gen.matrix, t))


def from_lindblad(h, jumps: Sequence[np.ndarray]) -> GeneratorMap:
    """Generator L(X) = -i[H, X] + sum_k (L_k X L_k^dag - {L_k^dag L_k, X}/2)."""
    h = as_matrix(h, name="Hamiltonian")
    if spectral_norm(h - dagger(h)) > 1e-12 * max(1.0, spectral_norm(h)):
        raise ValidationError("Hamiltonian must be Hermitian")
    d = h.shape[0]
    eye = np.eye(d)
    a, b = [h, eye], [eye, h]
    for k, l in enumerate(jumps):
        l = as_matrix(l, name=f"jump operator {k}")
        if l.shape[0] != d:
            raise DimensionError(f"jump operator {k} has shape {l.shape}, expected {d}x{d}")
        ll = dagger(l) @ l
        a += [l, ll, eye]
        b += [dagger(l), eye, ll]
    # the terms H X, X H, then L X L^dag, L^dag L X and X L^dag L per jump
    terms = sandwich_matrix(np.stack(a), np.stack(b))
    head = -1j * (terms[0] - terms[1])
    jump_terms = terms[2::3] - 0.5 * terms[3::3] - 0.5 * terms[4::3]
    # the terms add in order onto the head; accumulate, unlike sum, starts
    # from the head itself rather than 0 + head, which keeps its signed zeros
    return GeneratorMap(d, np.add.accumulate(
        np.concatenate([head[None], jump_terms]), axis=0)[-1])


# ---------------------------------------------------------------------------
# analysis


def choi_matrix(t) -> np.ndarray:
    """Choi matrix J(T) = (id (x) T)(|Omega><Omega|), |Omega> unnormalized.

    ``t`` is a SuperOperator, or a stack of superoperator matrices, shape
    (n, d^2, d^2), giving the (n, d^2, d^2) stack of their Choi matrices.
    T is completely positive iff J(T) >= 0, and tr J(T) = d for
    trace-preserving T.
    """
    m = t.matrix if isinstance(t, SuperOperator) else t
    d = math.isqrt(m.shape[-1])
    # images[..., i*d + k] = T(|i><k|), and J[(i, a), (k, b)] = T(|i><k|)[a, b]
    images = apply_batch(m, np.eye(d * d, dtype=complex).reshape(d * d, d, d))
    lead = images.shape[:-3]
    return images.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(
        *lead, d * d, d * d)


def annihilates_trace(matrix: np.ndarray, dim: int) -> tuple:
    """(whether the map with matrix M has only traceless outputs,
    ||M^dag vec(I)||_2).

    The residual is the norm of the map's trace row, zero iff
    tr L(X) = 0 for every X, and is accepted up to 1e-10.
    """
    res = float(np.linalg.norm(dagger(matrix) @ vec(np.eye(dim))))
    return res <= 1e-10, res


def preserves_hermiticity(t, j: np.ndarray) -> tuple:
    """(whether t preserves Hermiticity up to roundoff, ||J - J^dag||_2);
    the package's one Hermiticity-preservation rule.

    ``t`` is a SuperOperator or a stack of superoperator matrices, as in
    :func:`choi_matrix`, and ``j`` its Choi matrix or stack of them.  A
    stack gives an array of verdicts and one of residuals, from one SVD.
    The residual is zero iff the map is Hermiticity-preserving and is
    accepted up to 1e-8 max(1, ||T||_2), relative to the scale of the map.
    That threshold is never below 1e-8, so ||T||_2 is computed only for
    the maps whose residual exceeds 1e-8.
    """
    if isinstance(t, SuperOperator):
        ok, res = preserves_hermiticity(t.matrix[None], j[None])
        return bool(ok[0]), float(res[0])
    res = np.linalg.svd(j - dagger(j), compute_uv=False)[:, 0]
    ok = res <= 1e-8
    big = ~ok
    if big.any():
        scale = np.linalg.svd(t[big], compute_uv=False)[:, 0]
        ok[big] = res[big] <= 1e-8 * np.maximum(1.0, scale)
    return ok, res


def validate(t: SuperOperator, n_samples: int = DEFAULT_POSITIVITY_SAMPLES,
             seed: int = 0) -> ValidationReport:
    """Structural checks: TP, Hermiticity preservation, CP, unitality.

    TP/unitality are algebraic (residuals reported).  CP needs the map to
    preserve Hermiticity and its Choi matrix to have no eigenvalue below
    -1e-8; a map that does not preserve Hermiticity sends some state to a
    non-Hermitian image, so it is not even positive.  Positivity without
    CP is only *sampled*: a sampled state counts as a counterexample when
    its image has an eigenvalue below -1e-8 or an anti-Hermitian part of
    Frobenius norm above 1e-8.  The report says "no_counterexample" rather
    than "positive", with the number of sampled states in
    ``positivity_samples``, since deciding positivity of a map is hard.
    Deterministic given ``seed``.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    d = t.dim
    vi = vec(np.eye(d))
    unital_res = float(np.linalg.norm(t.matrix @ vi - vi))

    j = choi_matrix(t)
    hp_ok, hp_res = preserves_hermiticity(t, j)
    min_choi = float(np.linalg.eigvalsh((j + dagger(j)) / 2).min())

    gen = SplitMix64(seed)
    states = gen.complex_normals((n_samples, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    projectors = states[:, :, None] * states.conj()[:, None, :]
    images = apply_batch(t.matrix, projectors)
    anti = np.linalg.norm(images - dagger(images), axis=(1, 2)) / 2
    min_eigs = np.linalg.eigvalsh((images + dagger(images)) / 2)[:, 0]
    bad = np.nonzero((min_eigs < -1e-8) | (anti > 1e-8))[0]
    witness = states[bad[0]] if len(bad) else None

    return ValidationReport(
        trace_preserving=t.trace_preserving, tp_residual=t.tp_residual(),
        hermiticity_preserving=bool(hp_ok), hp_residual=hp_res,
        completely_positive=bool(hp_ok and min_choi >= -1e-8),
        min_choi_eigenvalue=min_choi,
        unital=bool(unital_res <= 1e-10), unital_residual=unital_res,
        positivity="counterexample" if witness is not None else "no_counterexample",
        positivity_samples=n_samples, positivity_witness=witness)


# ---------------------------------------------------------------------------
# states and stock channels


def basis_state(d: int, i: int) -> DensityMatrix:
    m = np.zeros((d, d), dtype=complex)
    m[i, i] = 1.0
    return DensityMatrix(d, m)


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(d, np.eye(d, dtype=complex) / d)


def pure_state(v) -> DensityMatrix:
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValidationError("pure_state: zero vector")
    v = v / n
    return DensityMatrix(len(v), np.outer(v, v.conj()))


def check_stationary(t: SuperOperator, rho: DensityMatrix) -> float:
    """Trace-norm residual ||T(rho) - rho||_1; raises if above 1e-9."""
    res = trace_norm(t.apply(rho.matrix) - rho.matrix)
    if res > 1e-9:
        raise PreconditionError(
            f"state is not stationary for the map (residual {res:.3g} > 1e-09)",
            residual=res)
    return res


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def pauli_channel(px: float, py: float, pz: float) -> SuperOperator:
    p0 = 1.0 - px - py - pz
    if min(p0, px, py, pz) < -1e-12:
        raise ValidationError("Pauli probabilities must be nonnegative and sum to <= 1")
    ops = [np.sqrt(max(p, 0.0)) * s for p, s in zip((p0, px, py, pz), _PAULIS)]
    return from_kraus(ops, label=f"pauli({px:g},{py:g},{pz:g})")


def depolarizing_channel(p: float, d: int = 2) -> SuperOperator:
    """T(X) = (1-p) X + p tr[X] I/d, as a superoperator."""
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ValidationError("depolarizing parameter must lie in [0, 1]")
    eye = np.eye(d * d, dtype=complex)
    m = (1.0 - p) * eye + p * np.outer(vec(np.eye(d) / d), vec(np.eye(d)).conj())
    return SuperOperator(d, m, label=f"depolarizing(p={p:g}, d={d})")


def completely_depolarizing(d: int = 2) -> SuperOperator:
    return depolarizing_channel(1.0, d)


def amplitude_damping_channel(gamma: float) -> SuperOperator:
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError("damping parameter must lie in [0, 1]")
    a0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return from_kraus([a0, a1], label=f"amplitude_damping({gamma:g})")


def depolarizing_generator(gamma: float, d: int = 2) -> GeneratorMap:
    """Generator L(X) = gamma (tr[X] I/d - X); e^{tL} is depolarizing."""
    eye = np.eye(d * d, dtype=complex)
    m = gamma * (np.outer(vec(np.eye(d) / d), vec(np.eye(d)).conj()) - eye)
    return GeneratorMap(d, m)
