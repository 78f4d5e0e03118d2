"""Fixed-point structure of a map: projector, fundamental map, spectral scalars.

The eigenvalue-1 group is identified with the absolute tolerance
``TOL_FIX = 1e-9`` (the 1-eigenvalue of a trace-preserving positive map is
exact in theory, so a tolerance much tighter than the general clustering
tolerance avoids absorbing slow modes into the fixed space).

:func:`fixed_point_analysis` memoises its result per ``SuperOperator``
object (``SuperOperator`` hashes by identity, not by value), so every
consumer of a map shares one spectral analysis: one eigenvalue computation,
one SVD of T - id and two small ones for its checks.  The memo is a module-level ``functools.lru_cache`` of the 8
most recently used maps: a caller holding many analysed maps pays a fixed
amount of memory for it, and a map that has dropped out is analysed again
on its next use.  This relies on a ``SuperOperator`` not being mutated
after construction.  A failed analysis raises and is not stored.
``FixedPointAnalysis.projector`` is the package's one T^inf, and
:meth:`FixedPointAnalysis.limit_state` the one way to a stationary state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import DensityMatrix, SuperOperator
from .errors import (DomainError, IllConditionedStructureError,
                     NoFixedPointError, NumericError, SpectralResolutionError)
from .linalg import as_matrix, dagger, spectral_norm

TOL_FIX = 1e-9

# Relative tolerance for deciding that two eigenvalues belong to the same
# cluster.  Used everywhere a "distinct eigenvalue" decision is made.
TOL_CLUSTER = 1e-7

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


@dataclass
class MinimalPolynomial:
    """Minimal polynomial of a map, as clustered roots with block sizes.

    ``degree`` counts linear factors with multiplicity.
    """

    distinct_roots: np.ndarray
    block_sizes: list
    annihilation_residual: float

    @property
    def degree(self) -> int:
        return int(sum(self.block_sizes))


@dataclass
class FixedPointAnalysis:
    """Projector onto the fixed space plus bookkeeping from its construction.

    ``projector_residuals`` holds the spectral norms of P o P - P, T o P - P
    and P o T - P under the keys ``idempotence``, ``T o P`` and ``P o T``,
    and ``cesaro_residual`` that of the Cesaro average minus P (None when
    the cross-check was skipped; ``notes`` says why).  Neither appears in
    any report.
    """

    projector: SuperOperator
    multiplicity: int
    peripheral_spectrum: bool
    cesaro_checked: bool
    spectral: SpectralData
    cesaro_residual: Optional[float] = None
    projector_residuals: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def limit_state(self, m: np.ndarray) -> DensityMatrix:
        """T^inf(m) of a state m, Hermitized and renormalised: the one way to a
        stationary state (the pair recipes check uniqueness first).  A projected
        trace not above 1e-8 raises :class:`DomainError` (the map is not TP),
        and so does an anti-Hermitian part above 1e-9 of it (not HP)."""
        p = self.projector.apply(m)
        trace = np.trace(p).real
        if not trace > 1e-8:
            raise DomainError(f"projected state has trace {trace:.3g}, not above "
                              "1e-8; is the map trace-preserving?")
        skew = np.linalg.norm(p - dagger(p)) / 2     # Frobenius norm
        if skew > 1e-9 * trace:
            raise DomainError(f"the map's fixed point is not Hermitian (anti-"
                              f"Hermitian part {skew / trace:.3g} relative to its "
                              "trace); does the map preserve Hermiticity?")
        return DensityMatrix(self.projector.dim, (p + dagger(p)) / 2 / trace)


def _spectral_data(m: np.ndarray) -> SpectralData:
    """The eigenvalues of ``m`` by nonincreasing modulus (ties by real, then
    imaginary part), split into the 1-group |lambda - 1| <= TOL_FIX and the
    rest; the one eigenvalue computation of a spectral analysis."""
    w = np.linalg.eigvals(m)
    w = w[np.lexsort((w.imag, w.real, -np.abs(w)))]
    one = np.abs(w - 1.0) <= TOL_FIX
    lam = w[~one]
    return SpectralData(
        eigenvalues=w,
        min_dist_to_one=float(np.abs(1.0 - lam).min(initial=math.inf)),
        spectral_gap=float((1.0 - np.abs(lam)).min(initial=math.inf)),
        subdominant_modulus=float(np.abs(lam).max(initial=0.0)),
        peripheral_count=int(np.sum(np.abs(lam) >= 1.0 - TOL_CLUSTER)),
        one_group_multiplicity=int(one.sum()))


def fixed_point_analysis(t: SuperOperator) -> FixedPointAnalysis:
    """Build the spectral projector onto the eigenvalue-1 eigenspace.

    The eigenvalue-1 group (|lambda - 1| <= TOL_FIX) has some size k.  One
    SVD of A = T - id gives both kernels: R, the last k right singular
    vectors, and L, the last k left ones.  The projector is
    P = R (L^dag R)^{-1} L^dag.  It is cross-validated against the limit of
    the running Cesaro average computed by repeated squaring, unless
    peripheral eigenvalues other than 1 exist (plain powers do not
    converge there) or mixing is too slow for the average to settle within
    2^14 steps; both cases are recorded as notes.  The idempotence, T o P
    and P o T residuals of P and the Cesaro residual come from one batched
    SVD and stay on the analysis.  The result is memoised (see the module
    docstring).

    A map without an eigenvalue within TOL_FIX of 1 raises
    :class:`NoFixedPointError`, an input-domain error, when the smallest
    singular value of A, a lower bound on every |lambda - 1|, exceeds
    TOL_FIX beyond its roundoff, and :class:`SpectralResolutionError` when
    it does not.
    """
    return _analyse(t)


@functools.lru_cache(maxsize=8)
def _analyse(t: SuperOperator) -> FixedPointAnalysis:
    m = t.matrix
    spec = _spectral_data(m)
    k = spec.one_group_multiplicity
    u, sv, vh = np.linalg.svd(m - np.eye(len(m)))
    if k == 0:
        if sv[-1] - 100 * np.finfo(float).eps * sv[0] <= TOL_FIX:
            raise SpectralResolutionError(
                "no eigenvalue resolved within %.1g of 1 (smallest singular "
                "value of T - id %.3g)" % (TOL_FIX, sv[-1]))
        raise NoFixedPointError(
            "no eigenvalue within %.1g of 1; is the map trace-preserving?" % TOL_FIX)
    if spec.min_dist_to_one <= 10 * TOL_FIX:
        raise SpectralResolutionError(
            "eigenvalue-1 cluster is not numerically separable "
            "(nearest excluded eigenvalue at distance %.3g)" % spec.min_dist_to_one)

    def exceeds(resid):
        """resid > 1e-8 max(1, ||T||_2); ||T||_2 only once resid > 1e-8."""
        return resid > 1e-8 and resid > 1e-8 * max(1.0, spectral_norm(m))

    r1 = dagger(vh[-k:])
    l1 = u[:, -k:]
    overlap = dagger(l1) @ r1
    cos = np.linalg.svd(overlap, compute_uv=False)
    # a defective group has a kernel of dimension below k, so the largest
    # kept singular value is not small (the T o P check below would fail
    # on it too), or left and right kernels that are nearly orthogonal
    if exceeds(sv[-k]) or cos[-1] <= 1e-10:
        raise SpectralResolutionError(
            "eigenvalue-1 eigenspace is numerically defective (kernel "
            "residual %.3g, smallest left/right overlap %.3g)" % (sv[-k], cos[-1]))
    p = r1 @ np.linalg.solve(overlap, dagger(l1))

    sub = spec.subdominant_modulus
    notes: list[str] = []
    checks = [p @ p - p, m @ p - p, p @ m - p]
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
        checks.append(pw @ s / float(2 ** _CESARO_STEPS_LOG2) - p)
    # the three projector checks and the Cesaro residual from one SVD
    resids = np.linalg.svd(np.stack(checks), compute_uv=False)[:, 0].tolist()
    projector_residuals = dict(zip(("idempotence", "T o P", "P o T"), resids))
    for name, resid in projector_residuals.items():
        if exceeds(resid):
            raise NumericError(f"fixed-point projector failed {name} check "
                               f"(residual {resid:.3g})", residual=resid)
    cesaro_checked = len(resids) == 4
    cesaro_residual = resids[3] if cesaro_checked else None
    if cesaro_checked and cesaro_residual > _CESARO_TOL:
        raise NumericError(
            "spectral projector disagrees with the Cesaro average "
            f"(residual {cesaro_residual:.3g} > {_CESARO_TOL:g})",
            residual=cesaro_residual)

    proj = SuperOperator(t.dim, p)
    if t.trace_preserving and not proj.trace_preserving:
        res = proj.tp_residual()
        raise NumericError("fixed-point projector of a trace-preserving map is "
                           f"not trace-preserving (residual {res:.3g})", residual=res)
    return FixedPointAnalysis(
        projector=proj, multiplicity=k,
        peripheral_spectrum=spec.peripheral_count > 0,
        cesaro_checked=cesaro_checked, spectral=spec,
        cesaro_residual=cesaro_residual,
        projector_residuals=projector_residuals, notes=notes)


def fundamental_map(t: SuperOperator,
                    analysis: FixedPointAnalysis | None = None) -> SuperOperator:
    """Z(T) = (id - (T - T^infinity))^{-1}.

    The inverse always exists because T - T^infinity has no eigenvalue 1.
    Enforces the inversion residual ||Z Z^{-1} - I|| <= 1e-8 and, for
    trace-preserving input, a TP residual of Z of at most 1e-8; whether Z
    itself passes the 1e-10 TP rule is its own ``trace_preserving``.
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
    zop = SuperOperator(t.dim, z)
    if t.trace_preserving:
        tp_res = zop.tp_residual()
        if tp_res > 1e-8:
            raise NumericError(
                f"fundamental map lost trace preservation (residual {tp_res:.3g})",
                residual=tp_res)
    return zop


def spectral_quantities(t: SuperOperator) -> SpectralData:
    """Eigenvalues and the derived scalars governing the condition numbers.

    Note the distinction between the spectral gap min(1 - |lambda|) and the
    distance-to-one min|1 - lambda|; the condition-number bounds are
    governed by the latter.  Unlike ``fixed_point_analysis(t).spectral``,
    this does not require an eigenvalue at 1.
    """
    return _spectral_data(t.matrix)


def _cluster_indices(w: np.ndarray, tol: float) -> list[list[int]]:
    """Group eigenvalue indices whose pairwise distance is at most tol,
    chained: the connected components of |w_i - w_j| <= tol, in order of
    their smallest index.  Each squaring of the adjacency doubles the path
    length it spans, so it is fixed after at most len(w).bit_length()."""
    reach = np.abs(w[:, None] - w[None, :]) <= tol
    for _ in range(len(w).bit_length()):
        grown = reach @ reach.astype(float) > 0      # float, so BLAS runs it
        if np.array_equal(grown, reach):
            break
        reach = grown
    return [np.flatnonzero(row).tolist() for i, row in enumerate(reach)
            if row.argmax() == i]


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
    m = as_matrix(delta.matrix)
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

    # descending modulus, then ascending real, then imaginary part; moduli
    # and real parts within the clustering tolerance (such as a conjugate
    # pair's, which may differ in the last ulp) tie
    tol = TOL_CLUSTER * max(radius, 1e-300)
    roots = np.array(roots)
    order = np.argsort(-np.abs(roots), kind="stable")
    band = np.cumsum(np.diff(np.abs(roots[order]), prepend=np.inf) < -tol)
    by_real = np.lexsort((roots[order].real, band))
    order, band = order[by_real], band[by_real]
    tied = np.cumsum((np.diff(band, prepend=-1) != 0)
                     | (np.diff(roots[order].real, prepend=-np.inf) > tol))
    order = order[np.lexsort((roots[order].imag, tied))]
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
