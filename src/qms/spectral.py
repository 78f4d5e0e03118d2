"""Fixed-point structure of a map: projector, fundamental map, spectral scalars.

The eigenvalue-1 group is identified with the absolute tolerance
``TOL_FIX = 1e-9`` (the 1-eigenvalue of a trace-preserving positive map is
exact in theory, so a tolerance much tighter than the general clustering
tolerance avoids absorbing slow modes into the fixed space).

:func:`fixed_point_analysis` memoises its result per ``SuperOperator``
object (by identity, not by value), so every consumer of a map shares one
eigendecomposition.  The memo is module-level and keeps the 8 most
recently used maps: a caller holding many analysed maps pays a fixed
amount of memory for it, and a map that has dropped out is analysed again
on its next use.  This relies on a ``SuperOperator`` not being mutated
after construction.  A failed analysis raises and is not stored.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import DensityMatrix, SuperOperator
from .errors import (IllConditionedStructureError, NoFixedPointError,
                     NumericError, SpectralResolutionError)
from .linalg import (TOL_CLUSTER, EigenSystem, _cluster_indices, as_matrix,
                     dagger, eig, spectral_norm, vec)

TOL_FIX = 1e-9

_MEMO_SIZE = 8
# id(t) -> (t, analysis); holding t keeps its id from being reused
_memo: OrderedDict = OrderedDict()

# Cesaro cross-validation is only meaningful when plain powers converge
# well below the agreement tolerance within 2^14 steps.
_CESARO_STEPS_LOG2 = 14
_CESARO_TOL = 1e-6


@dataclass
class SpectralData:
    """Spectral scalars of a map, split into the 1-group and the rest.

    ``min_dist_to_one`` and ``spectral_gap`` are +inf when there are no
    non-unit eigenvalues (degenerate spectrum); consumers treat that case
    as unconstrained.
    """

    eigenvalues: np.ndarray
    min_dist_to_one: float
    spectral_gap: float
    subdominant_modulus: float
    peripheral_count: int
    one_group_multiplicity: int

    @property
    def nonunit_eigenvalues(self) -> np.ndarray:
        w = self.eigenvalues
        return w[np.abs(w - 1.0) > TOL_FIX]


@dataclass
class MinimalPolynomial:
    """Minimal polynomial of a map, as clustered roots with block sizes.

    ``linear_factor_count`` counts linear factors with multiplicity, i.e.
    equals the degree.
    """

    distinct_roots: np.ndarray
    block_sizes: list
    annihilation_residual: float

    @property
    def degree(self) -> int:
        return int(sum(self.block_sizes))

    @property
    def linear_factor_count(self) -> int:
        return self.degree


@dataclass
class FixedPointAnalysis:
    """Projector onto the fixed space plus bookkeeping from its construction."""

    projector: SuperOperator
    multiplicity: int
    eigensystem: EigenSystem
    peripheral_spectrum: bool
    cesaro_checked: bool
    spectral: SpectralData
    cesaro_residual: Optional[float] = None
    notes: list = field(default_factory=list)

    @functools.cached_property
    def stationary(self) -> tuple:
        """Density-matrix basis of the fixed space, built once per analysis."""
        return _stationary_basis(self.projector, self.multiplicity)


def _one_group(w: np.ndarray) -> np.ndarray:
    return np.nonzero(np.abs(w - 1.0) <= TOL_FIX)[0]


def _spectral_data(w: np.ndarray, ones: np.ndarray) -> SpectralData:
    lam = w[np.setdiff1d(np.arange(len(w)), ones)]
    return SpectralData(
        eigenvalues=w,
        min_dist_to_one=float(np.abs(1.0 - lam).min(initial=math.inf)),
        spectral_gap=float((1.0 - np.abs(lam)).min(initial=math.inf)),
        subdominant_modulus=float(np.abs(lam).max(initial=0.0)),
        peripheral_count=int(np.sum(np.abs(lam) >= 1.0 - TOL_CLUSTER)),
        one_group_multiplicity=len(ones))


def fixed_point_analysis(t: SuperOperator) -> FixedPointAnalysis:
    """Build the spectral projector onto the eigenvalue-1 eigenspace.

    The projector is P = R (L^dag R)^{-1} L^dag over the eigenvalue-1 group
    (|lambda - 1| <= TOL_FIX); it is cross-validated against the limit of
    the running Cesaro average computed by repeated squaring, unless
    peripheral eigenvalues other than 1 exist (plain powers do not
    converge there) or mixing is too slow for the average to settle within
    2^14 steps; both cases are recorded as notes.  The result is memoised
    (see the module docstring).

    A map without an eigenvalue within TOL_FIX of 1 raises
    :class:`NoFixedPointError`, an input-domain error, when its eigenpairs
    are resolved to TOL_FIX, and :class:`SpectralResolutionError` when
    they are too coarse to tell.
    """
    hit = _memo.pop(id(t), None)
    if hit is not None and hit[0] is t:
        _memo[id(t)] = hit                  # now the most recently used
        return hit[1]
    es = eig(t.matrix)
    w = es.eigenvalues
    ones = _one_group(w)
    if len(ones) == 0:
        if es.residual > TOL_FIX:
            # eigenpairs this coarse can hide an eigenvalue at 1 in roundoff
            raise SpectralResolutionError(
                "no eigenvalue resolved within %.1g of 1 (eigenpair residual "
                "%.3g)" % (TOL_FIX, es.residual))
        raise NoFixedPointError(
            "no eigenvalue within %.1g of 1; is the map trace-preserving?" % TOL_FIX)
    spec = _spectral_data(w, ones)
    if spec.min_dist_to_one <= 10 * TOL_FIX:
        raise SpectralResolutionError(
            "eigenvalue-1 cluster is not numerically separable "
            "(nearest excluded eigenvalue at distance %.3g)" % spec.min_dist_to_one)

    r1 = es.right_vectors[:, ones]
    l1 = es.left_vectors[:, ones]
    overlap = dagger(l1) @ r1
    sv = np.linalg.svd(overlap, compute_uv=False)
    if sv[-1] <= 1e-10:
        raise SpectralResolutionError(
            "eigenvalue-1 eigenspace is numerically defective "
            "(smallest left/right overlap %.3g)" % sv[-1])
    p = r1 @ np.linalg.solve(overlap, dagger(l1))

    m = t.matrix
    scale = max(1.0, spectral_norm(m))
    for name, resid in (("idempotence", spectral_norm(p @ p - p)),
                        ("T o P", spectral_norm(m @ p - p)),
                        ("P o T", spectral_norm(p @ m - p))):
        if resid > 1e-8 * scale:
            raise NumericError(f"fixed-point projector failed {name} check "
                               f"(residual {resid:.3g})", residual=resid)

    sub = spec.subdominant_modulus

    notes: list[str] = []
    cesaro_checked = False
    cesaro_residual = None
    if spec.peripheral_count:
        notes.append("cesaro cross-check skipped: peripheral eigenvalues other than 1")
    elif sub > 0.0 and (2 ** _CESARO_STEPS_LOG2) * math.log(sub) > math.log(1e-7):
        notes.append("cesaro cross-check skipped: subdominant modulus %.6g mixes "
                     "too slowly for 2^%d steps" % (sub, _CESARO_STEPS_LOG2))
    else:
        # Running average S_n/n over the window (2^k, 2^15] via squaring:
        # S_{2n} = S_n + M^n S_n, then shift by M^n to drop the transient.
        s = m.copy()
        pw = m.copy()
        for _ in range(_CESARO_STEPS_LOG2):
            s = s + pw @ s
            pw = pw @ pw
        avg = pw @ s / float(2 ** _CESARO_STEPS_LOG2)
        cesaro_residual = float(spectral_norm(avg - p))
        cesaro_checked = True
        if cesaro_residual > _CESARO_TOL:
            raise NumericError(
                "spectral projector disagrees with the Cesaro average "
                f"(residual {cesaro_residual:.3g} > {_CESARO_TOL:g})",
                residual=cesaro_residual)

    proj = SuperOperator(t.dim, p, provenance="explicit",
                         trace_preserving=t.trace_preserving,
                         label="; ".join(notes) if notes else None)
    analysis = FixedPointAnalysis(
        projector=proj, multiplicity=len(ones), eigensystem=es,
        peripheral_spectrum=spec.peripheral_count > 0,
        cesaro_checked=cesaro_checked, spectral=spec,
        cesaro_residual=cesaro_residual, notes=notes)
    _memo[id(t)] = (t, analysis)
    if len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)
    return analysis


def fixed_point_projector(t: SuperOperator) -> SuperOperator:
    """The projector T^infinity onto the fixed space (Cesaro limit of powers)."""
    return fixed_point_analysis(t).projector


def delta_map(t: SuperOperator) -> SuperOperator:
    """T - T^infinity as a superoperator."""
    return SuperOperator(t.dim, t.matrix - fixed_point_projector(t).matrix,
                         provenance="explicit")


def stationary_states(t: SuperOperator):
    """Basis of the fixed-point space intersected with density matrices.

    Returns (states, unique) where ``states`` is the tuple memoised as
    ``fixed_point_analysis(t).stationary`` and ``unique`` is True iff the
    eigenvalue-1 multiplicity is 1.
    """
    analysis = fixed_point_analysis(t)
    return analysis.stationary, analysis.multiplicity == 1


def _stationary_basis(proj: SuperOperator, multiplicity: int) -> tuple:
    """Applies T^infinity to a spanning family of pure states and keeps a
    maximal linearly independent subset, normalized to unit trace."""
    d = proj.dim
    basis_states = []
    for i in range(d):
        v = np.zeros(d, dtype=complex)
        v[i] = 1.0
        basis_states.append(v)
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d, dtype=complex)
            v[i], v[j] = 1.0, 1.0
            basis_states.append(v / np.sqrt(2.0))
            v = np.zeros(d, dtype=complex)
            v[i], v[j] = 1.0, 1j
            basis_states.append(v / np.sqrt(2.0))

    kept: list[np.ndarray] = []
    stacked: list[np.ndarray] = []
    for v in basis_states:
        img = proj.apply(np.outer(v, v.conj()))
        img = (img + dagger(img)) / 2
        candidate = stacked + [vec(img)]
        svals = np.linalg.svd(np.array(candidate), compute_uv=False)
        if svals[-1] > 1e-8 * max(svals[0], 1e-300):
            stacked = candidate
            kept.append(img)
        if len(kept) == multiplicity:
            break

    return tuple(DensityMatrix(d, m / np.trace(m).real) for m in kept)


def fundamental_map(t: SuperOperator,
                    analysis: FixedPointAnalysis | None = None) -> SuperOperator:
    """Z(T) = (id - (T - T^infinity))^{-1}.

    The inverse always exists because T - T^infinity has no eigenvalue 1.
    Enforces the inversion residual ||Z Z^{-1} - I|| <= 1e-8 and, for
    trace-preserving input, that Z is trace-preserving.
    """
    analysis = analysis or fixed_point_analysis(t)
    d2 = t.dim ** 2
    a = np.eye(d2, dtype=complex) - (t.matrix - analysis.projector.matrix)
    z = np.linalg.solve(a, np.eye(d2, dtype=complex))
    resid = float(spectral_norm(z @ a - np.eye(d2)))
    if resid > 1e-8:
        raise NumericError(
            f"fundamental map inversion residual {resid:.3g} exceeds 1e-8",
            residual=resid, condition=float(np.linalg.cond(a)))
    zop = SuperOperator(t.dim, z, provenance="explicit")
    if t.trace_preserving:
        tp_res = zop.tp_residual()
        if tp_res > 1e-8:
            raise NumericError(
                f"fundamental map lost trace preservation (residual {tp_res:.3g})",
                residual=tp_res)
        if tp_res <= 1e-10:
            zop.trace_preserving = True
    return zop


def spectral_quantities(t: SuperOperator) -> SpectralData:
    """Eigenvalues and the derived scalars governing the condition numbers.

    Note the distinction between the spectral gap min(1 - |lambda|) and the
    distance-to-one min|1 - lambda|; the condition-number bounds are
    governed by the latter.  Unlike ``fixed_point_analysis(t).spectral``,
    this does not require an eigenvalue at 1.
    """
    w = eig(t.matrix).eigenvalues
    return _spectral_data(w, _one_group(w))


def _stable_rank(m: np.ndarray, threshold: float) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    near = (sv > threshold / 10.0) & (sv < threshold * 10.0)
    if np.any(near):
        raise IllConditionedStructureError(
            "rank decision unstable: singular value %.3g within a factor 10 "
            "of threshold %.3g" % (float(sv[near][0]), threshold))
    return int(np.sum(sv > threshold))


def minimal_polynomial(delta: SuperOperator) -> MinimalPolynomial:
    """Minimal polynomial of Delta = T - T^infinity by numerical rank.

    Roots come from clustering the eigenvalues of Delta; a simple root has
    block size 1, and a repeated root's largest Jordan block size is the
    smallest k at which rank((Delta - root I)^k) stabilizes, with ranks
    decided by singular values against the threshold 1e-8 ||Delta||_2.
    Unstable rank decisions raise :class:`IllConditionedStructureError`
    (callers must treat the structure as undecidable rather than guess).
    """
    m = as_matrix(delta.matrix, square=True)
    n = m.shape[0]
    norm = spectral_norm(m)
    # maps at or below roundoff scale are the zero map, m(z) = z
    if norm <= 1e-12:
        return MinimalPolynomial(distinct_roots=np.array([0.0 + 0.0j]),
                                 block_sizes=[1], annihilation_residual=norm)

    w = np.linalg.eigvals(m)
    radius = float(np.abs(w).max())
    clusters = _cluster_indices(w, TOL_CLUSTER * max(radius, 1e-300))
    roots = []
    sizes = []
    threshold = 1e-8 * norm
    eye = np.eye(n, dtype=complex)
    for grp in clusters:
        root = complex(w[grp].mean())
        mult = len(grp)
        roots.append(root)
        if mult == 1:
            # a simple root has a 1x1 block; no rank decision is needed
            sizes.append(1)
            continue
        a = m - root * eye
        power = a.copy()
        prev_rank = _stable_rank(power, threshold)
        size = mult
        for k in range(1, mult + 1):
            nxt = power @ a
            rank = _stable_rank(nxt, threshold)
            if rank == prev_rank:
                size = k
                break
            power, prev_rank = nxt, rank
        sizes.append(size)

    # descending modulus; moduli within the clustering tolerance (such as a
    # conjugate pair's, which may differ in the last ulp) tie, and tied
    # roots are ordered by real, then imaginary part
    roots = np.array(roots)
    order = np.argsort(-np.abs(roots), kind="stable")
    band = np.cumsum(np.diff(np.abs(roots[order]), prepend=np.inf)
                     < -TOL_CLUSTER * max(radius, 1e-300))
    order = order[np.lexsort((roots[order].imag, roots[order].real, band))]
    roots = roots[order]
    sizes = [sizes[i] for i in order]

    annihilator = eye.copy()
    for root, size in zip(roots, sizes):
        for _ in range(size):
            annihilator = annihilator @ (m - root * eye)
    degree = int(sum(sizes))
    resid = float(spectral_norm(annihilator))
    if resid > 1e-6 * norm ** degree:
        raise NumericError(
            "minimal polynomial fails to annihilate the map "
            f"(residual {resid:.3g} > 1e-6 * ||Delta||^{degree})", residual=resid)
    return MinimalPolynomial(distinct_roots=roots, block_sizes=sizes,
                             annihilation_residual=resid)
