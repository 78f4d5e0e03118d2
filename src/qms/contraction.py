"""Trace-norm contraction coefficients and induced 1->1 norms.

The contraction coefficient tau(L) is the worst-case trace-norm growth on
traceless Hermitian inputs; for every linear map it equals half the
maximal output distance over pairs of orthogonal pure states.  On
Hermiticity-preserving qubit maps tau and the Hermitian-restricted 1->1
norm have closed forms in the Pauli transfer matrix, and the general 1->1
norm of every qubit map comes from a search of its dual over the Bloch
sphere, attained at its witness.  Everywhere else the values come from a
seeded multistart power-method ascent (Boyd's method, as in Hager's and
Higham's 1-norm estimators, lifted to the trace norm and accelerated by
SQUAREM extrapolation) and are *lower bounds*; the spread over restarts
is reported as a quality signal.  Estimates of several (map, kind)
problems of one dimension run as one batch: every problem's seeded
restarts are rows of one ascent loop, each row with its own stopping
rule, and ``evaluations`` is counted per problem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import SuperOperator, choi_matrix, preserves_hermiticity
from .errors import DimensionError, DomainError
from .linalg import apply_batch, trace_norm_batch
from .rng import SplitMix64, derive_seed

DEFAULT_RESTARTS = 64
# power steps per ascent, two per SQUAREM cycle
MAXITER = 300
# random draws in the probe family, two probes each
PROBE_DRAWS = 64


@dataclass
class ContractionEstimate:
    """An optimizer output; ``value`` is a certified lower bound.

    ``best_witness`` reproduces ``value`` when plugged back into the
    objective.  ``convergence_spread`` is max - min over restart optima
    that converged (0.0 for the analytic and dual_sphere methods).
    ``evaluations`` counts objective evaluations summed over restarts (0 for
    the analytic method, pencil eigenvalues for dual_sphere); it is a work
    counter and stays out of :meth:`to_dict`.
    """

    value: float
    method: str            # multistart_manifold | analytic | dual_sphere
    restarts: int
    best_witness: object
    convergence_spread: float
    evaluations: int = 0

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "restarts": self.restarts,
                "convergence_spread": self.convergence_spread}


# ---------------------------------------------------------------------------
# qubit closed forms


_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                    [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _pauli_transfer(t: SuperOperator) -> np.ndarray:
    """Pauli transfer matrix R_ij = tr[sigma_i T(sigma_j)] / 2 of a
    Hermiticity-preserving qubit map (real for such maps)."""
    images = t.apply_batch(_PAULIS)
    return 0.5 * np.einsum("iab,jba->ij", _PAULIS, images).real


def _bloch_eigenvectors(n: np.ndarray) -> tuple:
    """Eigenvectors of n.sigma for a unit Bloch vector n, eigenvalue +1 first."""
    _, evecs = np.linalg.eigh(np.einsum("i,ijk->jk", n, _PAULIS[1:]))
    return evecs[:, 1], evecs[:, 0]


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
    ok, res = preserves_hermiticity(t, choi_matrix(t))
    if not ok:
        raise DomainError(
            "tau_exact_qubit: the qubit closed form needs a Hermiticity-preserving "
            f"map (residual {res:.3g})")
    r = _pauli_transfer(t)
    shift = np.linalg.norm(r[0, 1:])
    _, sv, vh = np.linalg.svd(r[1:, 1:])
    if shift > sv[0]:
        value, n = float(shift), r[0, 1:] / shift
    else:
        value, n = float(sv[0]), vh[0]
    return ContractionEstimate(value=value, method="analytic", restarts=0,
                               best_witness=_bloch_eigenvectors(n),
                               convergence_spread=0.0)


def _sphere_argmax(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A unit vector n maximizing ||r + B n||_2 (a trust-region problem).

    In the eigenbasis (mu_i, v_i) of M = B^T B, with c~ = V^T B^T r and
    gaps d_i = mu_max - mu_i, a maximizer is n = sum_i y_i v_i with
    y_i = c~_i / (s + d_i) for the root s >= 0 of ||y(s)|| = 1.  Newton's
    method on h(s) = 1/||y(s)|| - 1, which is concave and increasing,
    climbs monotonically to the root from s_0 = max(0, max_i |c~_i| - d_i),
    where ||y|| >= 1.  Keeping s and the gaps apart resolves near-equal
    top eigenvalues.  When ||y(0)|| <= 1 (the hard case, c~ vanishing on
    the top eigenvector) s = 0 and y is completed along v_max.
    """
    mu, v = np.linalg.eigh(b.T @ b)
    gaps = mu[-1] - mu
    ct = v.T @ (b.T @ r)

    def over_gaps(x, s):
        return np.divide(x, s + gaps, out=np.zeros(3), where=ct != 0.0)

    s = max(0.0, float(np.max(np.abs(ct) - gaps)))
    y = over_gaps(ct, s)
    if s == 0.0 and y @ y <= 1.0:               # here c~ = 0 wherever d_i = 0
        y[-1] = np.sqrt(1.0 - y @ y)
    else:
        for _ in range(100):
            norm2 = y @ y
            s_next = s + (np.sqrt(norm2) - 1.0) * norm2 / (y @ over_gaps(y, s))
            if not s_next > s:
                break
            s, y = s_next, over_gaps(ct, s_next)
    n = v @ y
    return n / np.linalg.norm(n)


def _hermitian_norm_qubit(r: np.ndarray) -> ContractionEstimate:
    """Hermitian-restricted 1->1 norm of the qubit map with real Pauli
    transfer matrix ``r``, exactly.

    The extreme points of the Hermitian trace-norm ball are +/- psi psi^dag
    with psi psi^dag = (I + n.sigma)/2, which maps to
    ((R00 + a.n) I + (r + B n).sigma)/2 for a = R[0,1:], r = R[1:,0],
    B = R[1:,1:]; its trace norm is max(|R00 + a.n|, ||r + B n||).  The
    first term peaks at n = +/- a/||a||, the second at the trust-region
    solution of :func:`_sphere_argmax`; the value is the objective at the
    better of the two unit vectors, so it is attained at the witness psi,
    the +1 eigenvector of n.sigma.
    """
    r00, a, shift, b = r[0, 0], r[0, 1:], r[1:, 0], r[1:, 1:]
    n_tr = _sphere_argmax(b, shift)
    a_norm = np.linalg.norm(a)
    n_a = np.copysign(1.0, r00) * a / a_norm if a_norm > 0.0 else n_tr
    cands = np.stack([n_a, n_tr])
    vals = np.maximum(np.abs(r00 + cands @ a),
                      np.linalg.norm(shift + cands @ b.T, axis=1))
    best = int(np.argmax(vals))
    return ContractionEstimate(value=float(vals[best]), method="analytic",
                               restarts=0,
                               best_witness=_bloch_eigenvectors(cands[best])[0],
                               convergence_spread=0.0)


def _icosphere() -> np.ndarray:
    """The 12 vertices and 30 edge midpoints of an icosahedron, on S^2."""
    g = (1.0 + np.sqrt(5.0)) / 2.0
    base = np.array([[0.0, s1, s2 * g] for s1 in (1, -1) for s2 in (1, -1)])
    verts = np.concatenate([np.roll(base, k, axis=1) for k in range(3)])
    i, j = np.nonzero(np.triu(np.isclose(
        np.linalg.norm(verts[:, None] - verts[None], axis=2), 2.0)))
    pts = np.concatenate([verts, verts[i] + verts[j]])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


_ICOSPHERE = _icosphere()
_SU2 = np.concatenate([_PAULIS[:1], 1j * _PAULIS[1:]])      # I, i sigma_x,y,z
_POLISH_ROWS = 4
_POLISH_STEPS = 500


def _general_norm_qubit(m: np.ndarray) -> ContractionEstimate:
    """General 1->1 norm of the qubit map with matrix ``m``, from its dual.

    ||L||_{1->1} = max over unitaries W of ||L*(W)||_inf (Watrous 2005).
    Modulo phase W = sum_k w_k U_k for U = (I, i sigma) and real unit
    w in S^3, so with A_k = L*(U_k) and rho = (I + n.sigma)/2,
    ||L*(W)||_inf^2 = max_rho w^T Re[tr(A_k^dag A_l rho)] w, and

        ||L||_{1->1}^2 = max_{|n|=1} lambda_max(Q^0 + sum_j n_j Q^j),
        Q^j_kl = Re tr(A_k^dag A_l sigma_j) / 2  (sigma_0 = I),

    a 4x4 real symmetric pencil whose top eigenvalue f(n) is convex in n.
    f is evaluated on a 42-point icosphere, and the best
    ``_POLISH_ROWS`` points are polished by n <- c/||c|| with
    c_j = w^T Q^j w, the gradient of f for the top eigenvector w.  The
    step maximizes w^T Q(n) w, a lower bound of f that is tight at the
    current n, so it never lowers f; the polish stops once no row gains
    more than 1e-15 max(f, 1), or after ``_POLISH_STEPS`` steps.  The best
    w gives W, and the top singular pair (u, v) of L*(W) the witness
    u v^dag; the value is ||L(u v^dag)||_1, so it is attained at the
    witness.  ``evaluations`` counts pencil eigenvalue evaluations: 42 on
    the grid plus ``_POLISH_ROWS`` per polish step.
    """
    a = apply_batch(m.conj().T, _SU2)
    q = 0.5 * np.einsum("kba,lbc,jca->jkl", a.conj(), a, _PAULIS).real
    q0, qn, flat = q[0], q[1:], q[1:].reshape(3, 16)

    def top_pairs(n):
        lam, vecs = np.linalg.eigh(q0 + (n @ flat).reshape(-1, 4, 4))
        return lam[:, -1], vecs[:, :, -1]

    fs, ws = top_pairs(_ICOSPHERE)
    evaluations = len(fs)
    best = np.argsort(fs)[-_POLISH_ROWS:]
    n, fs, ws = _ICOSPHERE[best], fs[best], ws[best]
    for _ in range(_POLISH_STEPS):
        c = np.einsum("nk,jkl,nl->nj", ws, qn, ws)
        c_norm = np.sqrt((c * c).sum(axis=1, keepdims=True))
        n = np.divide(c, c_norm, out=n, where=c_norm > 0.0)
        f, ws = top_pairs(n)
        evaluations += len(n)
        gain, fs = f - fs, f
        if np.all(gain <= 1e-15 * np.maximum(fs, 1.0)):
            break
    u, v = _pair_step(np.tensordot(ws[np.argmax(fs)], a, axes=1)[None])[0]
    value = float(trace_norm_batch(apply_batch(m, _rank_one(u[None], v[None])))[0])
    return ContractionEstimate(value=value, method="dual_sphere", restarts=0,
                               best_witness=(u, v), convergence_spread=0.0,
                               evaluations=evaluations)


# ---------------------------------------------------------------------------
# alternating power-method ascent


def _rank_one(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stack of u v^dag for row stacks u and v."""
    return u[:, :, None] * v.conj()[:, None, :]


def _pair_step(g: np.ndarray) -> np.ndarray:
    """Top singular pair (p, q) of G: u v^dag maximizing Re tr(G^dag u v^dag)."""
    p, _, qh = np.linalg.svd(g)
    return np.stack([p[:, :, 0], qh[:, 0, :].conj()], axis=1)


def _pair_input(x: np.ndarray) -> np.ndarray:
    return _rank_one(x[:, 0], x[:, 1])


def _pure_step(g: np.ndarray) -> np.ndarray:
    """Eigenvector of (G + G^dag)/2 whose eigenvalue has the largest modulus."""
    w, v = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
    col = np.where(np.abs(w[:, 0]) > np.abs(w[:, -1]), 0, -1)
    return v[np.arange(len(v)), :, col][:, None, :]


def _pure_input(x: np.ndarray) -> np.ndarray:
    return _rank_one(x[:, 0], x[:, 0])


def _ortho_step(g: np.ndarray) -> np.ndarray:
    """Top and bottom eigenvectors (phi, psi) of (G + G^dag)/2."""
    _, v = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
    return np.stack([v[:, :, -1], v[:, :, 0]], axis=1)


def _ortho_input(x: np.ndarray) -> np.ndarray:
    return 0.5 * (_rank_one(x[:, 0], x[:, 0]) - _rank_one(x[:, 1], x[:, 1]))


def _power_ascent(ms: np.ndarray, ascents, starts, maxiter: int) -> list:
    """Maximize ||L_p(X)||_1 over extreme points X = build_p(x) for several
    problems p in one loop, one ascent per row.

    Problem p is the map ``ms[p]`` with ``ascents[p] = (step, build)`` and
    the start stack ``starts[p]``, shape (rows, width, d); all maps act on
    one d.  The rows of every problem advance in lockstep as one batch:
    each projection applies every row's own map in one stacked product,
    makes one step call per distinct (step, build) pair and takes one SVD
    over all active rows.

    A power step S moves X to the extreme point that maximizes
    Re tr(G^dag X) for G = L^dag(W), with W the polar part of L(X)
    (``step``).  Since ||L(X')||_1 >= Re tr(W^dag L(X')) >= Re tr(W^dag L(X))
    = ||L(X)||_1, no power step lowers the objective.  The steps run in
    SQUAREM cycles (Varadhan & Roland 2008): x1 = S(x0) and x2 = S(x1),
    then with B_k = build(x_k), r = B1 - B0, v = B2 - 2 B1 + B0 and
    alpha = min(-||r||_F / ||v||_F, -1), the extrapolated trial is
    x3 = step(B0 - 2 alpha r + alpha^2 v); ``step`` doubles as the
    projection onto the extreme points, and working on B_k avoids the
    arbitrary phases of eigen- and singular vectors (v = 0 gives B2).  A
    cycle keeps the better of x2 and x3, and only if it gains over x0, so
    the objective never falls.  ``maxiter`` counts power steps: at most
    maxiter // 2 cycles run.  A row stops once a cycle gains at most
    1e-13 max(|f|, 1); its trajectory depends only on its own state, so
    results do not depend on which rows, of its own problem or another's,
    share the batch.  Returns one (points, values, converged mask,
    objective evaluations) tuple per problem.
    """
    sizes = [len(x) for x in starts]
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(starts)), sizes)
    kinds = list(dict.fromkeys(ascents))
    kind = np.repeat([kinds.index(a) for a in ascents], sizes)
    d = starts[0].shape[-1]
    xs = np.zeros((len(owner), 2, d), dtype=complex)     # width-1 rows use x[:, 0]
    for x, end in zip(starts, ends):
        xs[end - len(x):end, :x.shape[1]] = x
    ms = np.asarray(ms)
    mhs = ms.conj().swapaxes(-1, -2)

    def apply(maps, mats):
        return apply_batch(maps, mats[:, None])[:, 0]

    def evaluate(maps, b):
        u, s, vh = np.linalg.svd(apply(maps, b))
        return s.sum(axis=1), u @ vh

    def groups(act):
        sels = [(a, np.nonzero(kind[act] == k)[0]) for k, a in enumerate(kinds)]
        return [(a, sel) for a, sel in sels if len(sel)]

    def project(maps, grouped, g):
        x = np.zeros((len(g), 2, d), dtype=complex)
        b = np.empty_like(g)
        for (step, build), sel in grouped:
            x_k = step(g[sel])
            x[sel, :x_k.shape[1]] = x_k
            b[sel] = build(x_k)
        return (x, b) + evaluate(maps, b)

    bs = np.empty((len(owner), d, d), dtype=complex)
    for (_, build), sel in groups(np.arange(len(owner))):
        bs[sel] = build(xs[sel])
    fs, ws = evaluate(ms[owner], bs)
    evaluations = np.array(sizes)
    converged = np.zeros(len(owner), dtype=bool)
    for _ in range(maxiter // 2):
        act = np.nonzero(~converged)[0]
        if not len(act):
            break
        grouped = groups(act)
        m_act, mh_act = ms[owner[act]], mhs[owner[act]]
        b0 = bs[act]
        _, b1, _, w1 = project(m_act, grouped, apply(mh_act, ws[act]))
        x2, b2, f2, w2 = project(m_act, grouped, apply(mh_act, w1))
        r, v = b1 - b0, b2 - 2.0 * b1 + b0
        r_norm = np.linalg.norm(r, axis=(1, 2))
        v_norm = np.linalg.norm(v, axis=(1, 2))
        alpha = -np.maximum(np.divide(r_norm, v_norm, out=np.ones_like(r_norm),
                                      where=v_norm > 0.0), 1.0)[:, None, None]
        x3, b3, f3, w3 = project(m_act, grouped,
                                 b0 - 2.0 * alpha * r + alpha ** 2 * v)
        evaluations += 3 * np.bincount(owner[act], minlength=len(starts))
        pick = f3 > f2
        ft = np.where(pick, f3, f2)
        gain = ft - fs[act]
        ok = gain > 0.0
        keep, pick = act[ok], pick[ok, None, None]
        xs[keep] = np.where(pick, x3[ok], x2[ok])
        bs[keep] = np.where(pick, b3[ok], b2[ok])
        ws[keep] = np.where(pick, w3[ok], w2[ok])
        fs[keep] = ft[ok]
        converged[act[gain <= 1e-13 * np.maximum(np.abs(fs[act]), 1.0)]] = True
    return [(xs[end - len(x):end, :x.shape[1]], fs[end - len(x):end],
             converged[end - len(x):end], int(n))
            for x, end, n in zip(starts, ends, evaluations)]


def _require_restarts(restarts: int):
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")


def _run_multistart(problems, restarts: int, seed: int, maxiter: int) -> list:
    """One :func:`_power_ascent` over the (map, kind) ``problems``, with
    ``restarts`` rows each; one estimate per problem."""
    # restart r of every problem draws from its own stream, seeded derive_seed(seed, r)
    seeds = np.uint64(derive_seed(seed, 0)) + np.arange(restarts, dtype=np.uint64)
    starts = [_ASCENTS[kind][0](SplitMix64(seeds), t.dim) for t, kind in problems]
    results = _power_ascent(np.stack([t.matrix for t, _ in problems]),
                            [_ASCENTS[kind][1:] for _, kind in problems],
                            starts, maxiter)
    estimates = []
    for xs, fs, converged, evaluations in results:
        best = int(np.argmax(fs))
        conv_vals = fs[converged] if converged.any() else fs
        estimates.append(ContractionEstimate(
            value=float(fs[best]), method="multistart_manifold",
            restarts=restarts,
            best_witness=tuple(xs[best]) if xs.shape[1] > 1 else xs[best, 0],
            convergence_spread=float(conv_vals.max() - conv_vals.min()),
            evaluations=evaluations))
    return estimates


def _unit_vectors(gen: SplitMix64, d: int, k: int) -> np.ndarray:
    """k independent seeded unit vectors in C^d per stream, shape (streams, k, d)."""
    x = gen.normals(2 * k * d).reshape(-1, k, 2, d)      # (real, imaginary) parts
    z = x[:, :, 0] + 1j * x[:, :, 1]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _ortho_start(gen: SplitMix64, d: int) -> np.ndarray:
    """A seeded orthonormal pair (phi, psi) in C^d per stream, shape (streams, 2, d)."""
    return np.linalg.qr(gen.complex_normals((d, 2)))[0].swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# public estimators


# (start, step, build) of the ascent of each kind
_ASCENTS = {"tau": (_ortho_start, _ortho_step, _ortho_input),
            "hermitian": (functools.partial(_unit_vectors, k=1), _pure_step,
                          _pure_input),
            "general": (functools.partial(_unit_vectors, k=2), _pair_step,
                        _pair_input)}


def _closed_form(t: SuperOperator, kind: str):
    """The qubit closed form of ``kind`` for ``t``, or None where the
    ascent runs instead."""
    if t.dim != 2:
        return None
    if kind == "tau":
        return tau_exact_qubit(t)
    if kind == "general":
        return _general_norm_qubit(t.matrix)
    if preserves_hermiticity(t, choi_matrix(t))[0]:      # kind == "hermitian"
        return _hermitian_norm_qubit(_pauli_transfer(t))
    return None


def estimate_batch(problems, restarts: int, seed: int) -> list:
    """One estimate per (map, kind) in ``problems``, all maps of one
    dimension; kind ``tau`` is :func:`tau`, and ``hermitian`` and
    ``general`` are :func:`norm_1to1` in that mode.

    The qubit closed forms run per problem first.  Every other problem
    becomes ``restarts`` rows of one :func:`_power_ascent`, seeded as in a
    call of its own, so its estimate equals the one-at-a-time value up to
    roundoff.  ``restarts`` < 1 is refused.
    """
    _require_restarts(restarts)
    out = [_closed_form(t, kind) for t, kind in problems]
    rest = [i for i, est in enumerate(out) if est is None]
    if rest:
        ascended = _run_multistart([problems[i] for i in rest], restarts, seed,
                                   MAXITER)
        for i, est in zip(rest, ascended):
            out[i] = est
    return out


def tau(t: SuperOperator, restarts: int = DEFAULT_RESTARTS,
        seed: int = 0) -> ContractionEstimate:
    """Trace-norm contraction coefficient tau(L), as a lower-bound estimate.

    The extreme points of the traceless Hermitian trace-norm ball are
    (phi phi^dag - psi psi^dag)/2 with phi orthogonal to psi, for every
    linear map, so tau(L) is half the maximal output distance over
    orthogonal pure-state pairs.  Qubit maps take the closed form
    :func:`tau_exact_qubit`, which needs a Hermiticity-preserving map.
    Otherwise ``restarts`` independent power-method ascents run over the
    pairs, as the rows of a batch of one (:func:`_power_ascent`; restart r
    is seeded with derive_seed(seed, r), so prefixes of the restart stream
    are reproducible).  Each takes at most ``MAXITER`` power steps, two
    per SQUAREM cycle with one extrapolated trial each.  ``restarts`` < 1
    is refused even where the closed form ignores it.
    """
    return estimate_batch([(t, "tau")], restarts, seed)[0]


def norm_1to1(t: SuperOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
              hermitian_only: bool = False) -> ContractionEstimate:
    """Induced 1->1 norm sup ||L(X)||_1 / ||X||_1, as a lower-bound estimate.

    General mode ascends over rank-one X = u v^dag (the extreme points of
    the trace-norm ball; witness ``(u, v)``); ``hermitian_only`` restricts
    to Hermitian X, whose extreme points are +/- psi psi^dag (witness
    ``psi``).  The ``restarts`` seeded power-method ascents are the rows
    of a batch of one (:func:`_power_ascent`), each taking at most
    ``MAXITER`` power steps, two per SQUAREM cycle with one extrapolated
    trial each.  In Hermitian mode a Hermiticity-preserving qubit map
    takes the closed form :func:`_hermitian_norm_qubit` instead (method
    ``analytic``, exact).  In general mode every qubit map takes
    :func:`_general_norm_qubit` (method ``dual_sphere``): by duality
    ||L||_{1->1}^2 is the maximum over unit Bloch vectors n of the top
    eigenvalue of a 4x4 real symmetric pencil Q^0 + sum_j n_j Q^j built
    from L* on (I, i sigma), searched on an icosphere and polished by a
    monotone fixed-point step; the value is attained at its witness
    (u, v).  Both qubit paths ignore ``restarts``, but ``restarts`` < 1 is
    refused everywhere.
    """
    kind = "hermitian" if hermitian_only else "general"
    return estimate_batch([(t, kind)], restarts, seed)[0]


# ---------------------------------------------------------------------------
# probe-based lower bounds (cheap, used for empirical certificate checks)


@functools.lru_cache(maxsize=16)
def probe_inputs(d: int, seed: int = 0) -> np.ndarray:
    """A deterministic family of unit-trace-norm probe inputs, shape (m, d, d).

    Contains all matrix units E_ij (basis-aligned rank-one extreme points)
    plus, for each of the ``PROBE_DRAWS`` random draws, a u v^dag pair and a
    pure-state projector psi psi^dag.  The draws take the whole SplitMix64
    stream in one call and replay ``SplitMix64.complex_normals(d)`` for u, v
    and psi in turn, so the probes match a draw-by-draw construction.
    Memoised on the arguments; the returned array is shared, hence
    read-only.
    """
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    # axes: draw, vector (u, v, psi), Box-Muller radius or angle, entry
    bits = SplitMix64(derive_seed(seed, 0xA11CE)).next_uint64(6 * PROBE_DRAWS * d)
    bits = (bits >> np.uint64(11)).reshape(PROBE_DRAWS, 3, 2, d).astype(np.float64)
    u1 = (bits[:, :, 0] + 1.0) * 2.0**-53
    u2 = bits[:, :, 1] * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    z = (r * np.cos(2.0 * np.pi * u2) + 1j * (r * np.sin(2.0 * np.pi * u2))) \
        / np.sqrt(2.0)
    # squared norms by BLAS dot, as np.linalg.norm takes them for one vector
    re, im = z.real[..., None, :], z.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    z = z / np.sqrt(sq[..., 0])
    u, v, psi = z[:, 0], z[:, 1], z[:, 2]
    pairs = np.stack([u[:, :, None] * v.conj()[:, None, :],
                      psi[:, :, None] * psi.conj()[:, None, :]], axis=1)
    probes = np.concatenate([units, pairs.reshape(2 * PROBE_DRAWS, d, d)])
    probes.flags.writeable = False
    return probes


def norm_lower_bound_probes(matrix: np.ndarray, probes: np.ndarray):
    """max_j ||L(X_j)||_1 over probe inputs of unit trace norm.

    ``matrix`` is one superoperator matrix, giving a float, or a stack of
    them, shape (c, d^2, d^2), giving the c bounds as an array from one
    application and one trace-norm batch.
    """
    bounds = trace_norm_batch(apply_batch(matrix, probes)).max(axis=-1)
    return float(bounds) if bounds.ndim == 0 else bounds
